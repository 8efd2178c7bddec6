type config = {
  sq_words : int;
  static_words : int;
  heap_words : int;
  stack_words : int;
  bind_words : int;
}

let default_config =
  { sq_words = 64; static_words = 1 lsl 16; heap_words = 1 lsl 18; stack_words = 1 lsl 15;
    bind_words = 1 lsl 13 }

type t = { cfg : config; words : int array; mutable static_next : int }

let create ?(config = default_config) () =
  let total =
    config.sq_words + config.static_words + config.heap_words + config.stack_words
    + config.bind_words
  in
  { cfg = config; words = Array.make total 0; static_next = config.sq_words }

let config m = m.cfg
let size m = Array.length m.words

(* The range faults live out of line so that [read] and [write] stay
   small enough for the compiler to inline into the simulator's decoded
   instructions. *)
let read_fault addr = failwith (Printf.sprintf "memory read out of range: %d" addr)
let write_fault addr = failwith (Printf.sprintf "memory write out of range: %d" addr)

let read m addr =
  if addr < 0 || addr >= Array.length m.words then read_fault addr
  else Array.unsafe_get m.words addr

let write m addr v =
  if addr < 0 || addr >= Array.length m.words then write_fault addr
  else Array.unsafe_set m.words addr (v land Word.mask)

let sq_base _ = 0
let static_base m = m.cfg.sq_words
let static_limit m = m.cfg.sq_words + m.cfg.static_words
let heap_base m = static_limit m
let heap_limit m = heap_base m + m.cfg.heap_words
let stack_base m = heap_limit m
let stack_limit m = stack_base m + m.cfg.stack_words
let bind_base m = stack_limit m
let bind_limit m = bind_base m + m.cfg.bind_words
let is_stack_addr m addr = addr >= stack_base m && addr < stack_limit m
let is_heap_addr m addr = addr >= heap_base m && addr < heap_limit m
let is_static_addr m addr = addr >= static_base m && addr < static_limit m

let alloc_static m n =
  let base = m.static_next in
  if base + n > static_limit m then failwith "static region exhausted"
  else begin
    m.static_next <- base + n;
    base
  end

let static_used m = m.static_next - static_base m
