(** Compiled units in their loadable form.

    Every compile produces a {!unit_img}: the pre-assembly program with
    every world-dependent word replaced by a {e sentinel}, plus the
    ordered recipe of world requests ("intern this symbol", "intern this
    constant", "allocate a fresh static cell") whose replay against a
    live world yields the words to substitute back.  The generator
    compiles against a {!recording_world}; {!Compiler.install} resolves
    the recipe against the target world and loads the result, whether
    the unit was just compiled or decoded from an image
    ([lib/serve/image.ml] adds the codec).  Replaying the recipe in
    recording order reproduces the exact interning and static-allocation
    sequence of a from-source compile: same words, same addresses, same
    cycle counts. *)

(* private aliases: [lib/serve/image.ml] includes this module *)
open struct
  module Sexp = S1_sexp.Sexp
  module Isa = S1_machine.Isa
  module Asm = S1_machine.Asm
  module Gen = S1_codegen.Gen
end

(* Sentinels ------------------------------------------------------------ *)

(* World-dependent words in a unit's program are placeholders far above
   the 36-bit machine word space: sentinel [i] stands for the result of
   the [i]th world request in the unit's recipe.  Nothing downstream of
   the generator inspects immediate values (the peephole rewrites
   control flow only, and operand cost classes the sentinel range with
   every other non-short immediate), so a sentinel program assembles
   and costs exactly like its resolved counterpart. *)
let sentinel_base = 1 lsl 40
let is_sentinel w = w >= sentinel_base
let sentinel i = sentinel_base + i
let sentinel_index w = w - sentinel_base

(** One recorded world request.  Replay order is the list order. *)
type worldref =
  | Rnil
  | Rtrue
  | Rconst of Sexp.t  (** intern a quoted constant in static space *)
  | Rsym of string  (** intern a symbol *)
  | Rfun_cell of string  (** address of a symbol's function cell *)
  | Rval_cell of string  (** address of a symbol's value cell *)
  | Rfresh_cell  (** allocate one fresh static cell (closure fixups) *)

type unit_img = {
  u_name : string;
  u_prog : Asm.program;  (** pre-assembly, world words as sentinels *)
  u_entry : string;
  u_min_args : int;
  u_max_args : int;
  u_fixups : (string * int * string * int * int) list;
      (** closure fixups; the cell component is a sentinel *)
  u_refs : worldref list;  (** the recipe, in recording order *)
  u_listing : string;  (** resolved listing, as [--annotate] shows it *)
  u_tn_report : string;
}

(** What the unit was {e for}: one per top-level form, built by
    {!Compiler.eval_action} as it evaluates the form, so replaying it
    ({!Compiler.replay_action}) has the same world effects (function
    cells set, specials proclaimed, macros registered, top-level forms
    run) as evaluating the source. *)
type action =
  | Defun of unit_img
  | Defmacro of string * unit_img  (** macro name; the unit is its expander *)
  | Defvar of string * unit_img  (** variable name; the unit computes the init *)
  | Proclaim of string list  (** names proclaimed SPECIAL; no code *)
  | Toplevel of unit_img

(* Recording and resolution --------------------------------------------- *)

(** A world that answers every request with the next sentinel and
    appends the request to the recipe; the second component reads the
    recipe back in recording order. *)
let recording_world () : Gen.world * (unit -> worldref list) =
  let refs = ref [] and n = ref 0 in
  let add r =
    let i = !n in
    incr n;
    refs := r :: !refs;
    sentinel i
  in
  (* nil/t are plain record fields, so they are recorded up front whether
     or not the unit ends up using them; replay of Rnil/Rtrue is a pure
     read with no world effect, so unused entries cost nothing *)
  let nil_word = add Rnil in
  let t_word = add Rtrue in
  ( {
      Gen.nil_word;
      t_word;
      const_word = (fun s -> add (Rconst s));
      symbol_word = (fun n -> add (Rsym n));
      function_cell = (fun n -> add (Rfun_cell n));
      value_cell = (fun n -> add (Rval_cell n));
      alloc_cell = (fun () -> add Rfresh_cell);
    },
    fun () -> List.rev !refs )

(* Replay the recipe in recording order.  Order matters: interning and
   static allocation have world effects, and reproducing the compile's
   exact request sequence is what makes warm worlds word-identical to
   cold ones. *)
let resolve_refs (w : Gen.world) (refs : worldref list) : int array =
  let arr = Array.make (List.length refs) 0 in
  List.iteri
    (fun i r ->
      arr.(i) <-
        (match r with
        | Rnil -> w.Gen.nil_word
        | Rtrue -> w.Gen.t_word
        | Rconst s -> w.Gen.const_word s
        | Rsym n -> w.Gen.symbol_word n
        | Rfun_cell n -> w.Gen.function_cell n
        | Rval_cell n -> w.Gen.value_cell n
        | Rfresh_cell -> w.Gen.alloc_cell ()))
    refs;
  arr

(* Substitution --------------------------------------------------------- *)

(* Replace sentinels with resolved words.  Only [Imm] and [Mabs]
   operands and [Data] words can carry world words (the generator's
   world contract); everything else passes through untouched. *)

let subst_word a w = if is_sentinel w then a.(sentinel_index w) else w

let subst_operand a (op : Isa.operand) : Isa.operand =
  match op with
  | Isa.Imm v -> Isa.Imm (subst_word a v)
  | Isa.Mabs v -> Isa.Mabs (subst_word a v)
  | Isa.Reg _ | Isa.Ind _ | Isa.Idx _ | Isa.Defind _ | Isa.Defreg _ | Isa.Lab _
  | Isa.Dlab _ ->
      op

let subst_instr a (i : Isa.instr) : Isa.instr =
  let s = subst_operand a in
  match i with
  | Isa.Mov (d, x) -> Isa.Mov (s d, s x)
  | Isa.Movp (t, d, x) -> Isa.Movp (t, s d, s x)
  | Isa.Gettag (d, x) -> Isa.Gettag (s d, s x)
  | Isa.Getaddr (d, x) -> Isa.Getaddr (s d, s x)
  | Isa.Settag (t, d) -> Isa.Settag (t, s d)
  | Isa.Bin (op, w, d, x, y) -> Isa.Bin (op, w, s d, s x, s y)
  | Isa.Un (op, w, d, x) -> Isa.Un (op, w, s d, s x)
  | Isa.Jmp (c, x, y, t) -> Isa.Jmp (c, s x, s y, t)
  | Isa.Fjmp (c, x, y, t) -> Isa.Fjmp (c, s x, s y, t)
  | Isa.Jmpz (c, x, t) -> Isa.Jmpz (c, s x, t)
  | Isa.Jmptag (c, x, tag, t) -> Isa.Jmptag (c, s x, tag, t)
  | Isa.Jmpa _ | Isa.Ret | Isa.Svc _ | Isa.Halt | Isa.Nop -> i
  | Isa.Jmpi x -> Isa.Jmpi (s x)
  | Isa.Jsp _ -> i
  | Isa.Push x -> Isa.Push (s x)
  | Isa.Pop d -> Isa.Pop (s d)
  | Isa.Allocs (x, n) -> Isa.Allocs (s x, n)
  | Isa.Call (f, n) -> Isa.Call (s f, n)
  | Isa.Tcall (f, n) -> Isa.Tcall (s f, n)
  | Isa.Vdot (d, x, y, n) -> Isa.Vdot (s d, s x, s y, s n)
  | Isa.Vadd (d, x, y, n) -> Isa.Vadd (s d, s x, s y, s n)

let subst_item a (it : Asm.item) : Asm.item =
  match it with
  | Asm.Instr i -> Asm.Instr (subst_instr a i)
  | Asm.Data (l, ds) ->
      Asm.Data
        ( l,
          List.map
            (function Asm.Word w -> Asm.Word (subst_word a w) | d -> d)
            ds )
  | Asm.Label _ | Asm.Comment _ | Asm.Mark _ -> it

let subst_program a (prog : Asm.program) : Asm.program =
  List.map (subst_item a) prog
