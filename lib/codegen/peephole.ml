(** Peephole optimization — the extension the paper considered.

    "Currently there is no peephole optimizer ... The one optimization
    for which we may need to add a peephole optimizer is branch
    tensioning.  It is very difficult to express the elimination of
    branches to branch instructions at the source level, because branch
    instructions do not appear in the internal tree, but rather are
    artifacts of the embedding of the tree into a linear instruction
    stream." (§4.5)

    This module implements that deferred phase over the symbolic
    assembly, before assembly proper:

    - {b branch tensioning}: a jump whose target instruction is an
      unconditional jump is retargeted to the final destination
      (chains followed with a bound; applies to conditional and
      unconditional jumps, JSP return paths excluded, and to code
      addresses stored in dispatch data tables);
    - {b jump-to-next elimination}: an unconditional jump to the
      immediately following instruction is removed;
    - {b unreachable code removal}: instructions strictly between an
      unconditional control transfer and the next label can never
      execute and are dropped.

    It is off by default ({!Gen.options}), matching the paper's shipped
    configuration; the bench harness measures what it buys. *)

module Isa = S1_machine.Isa
module Asm = S1_machine.Asm

type stats = { tensioned : int; jumps_removed : int; unreachable_removed : int }

let no_stats = { tensioned = 0; jumps_removed = 0; unreachable_removed = 0 }

(* The first real instruction at or after a label, with any labels that
   alias the same position. *)
let instruction_at (prog : Asm.item list) : (string, Isa.instr) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let rec go pending = function
    | [] -> ()
    | Asm.Label l :: rest -> go (l :: pending) rest
    | Asm.Comment _ :: rest | Asm.Mark _ :: rest -> go pending rest
    | Asm.Data _ :: rest -> go pending rest
    | Asm.Instr i :: rest ->
        List.iter (fun l -> Hashtbl.replace tbl l i) pending;
        go [] rest
  in
  go [] prog;
  tbl

(* Follow a chain of unconditional jumps from label [l]. *)
let rec resolve at fuel l =
  if fuel = 0 then l
  else
    match Hashtbl.find_opt at l with
    | Some (Isa.Jmpa (Isa.L l2)) when l2 <> l -> resolve at (fuel - 1) l2
    | _ -> l

(* A conditional jump at the target blocks the tensioning window: only
   unconditional JMPAs can be seen through. *)
let cond_jump_name : Isa.instr -> string option = function
  | Isa.Jmp _ -> Some "JMP"
  | Isa.Fjmp _ -> Some "FJMP"
  | Isa.Jmpz _ -> Some "JMPZ"
  | Isa.Jmptag _ -> Some "JMPTAG"
  | _ -> None

let retarget_instr ?loc at counter (i : Isa.instr) : Isa.instr =
  let module Remark = S1_obs.Remark in
  let tg (t : Isa.target) =
    match t with
    | Isa.L l ->
        let l' = resolve at 8 l in
        if l' <> l then begin
          incr counter;
          if Remark.enabled () then
            Remark.passed ~pass:"peephole" ~rule:"BRANCH-TENSION" ?loc
              ~args:[ ("from", Remark.Str l); ("to", Remark.Str l') ]
              (Printf.sprintf "jump chain collapsed: %s reaches %s directly" l l')
        end
        else if Remark.enabled () then
          (match Option.bind (Hashtbl.find_opt at l) cond_jump_name with
          | Some blocker ->
              Remark.missed ~pass:"peephole" ~rule:"BRANCH-TENSION" ?loc
                ~args:[ ("target", Remark.Str l); ("blocker", Remark.Str blocker) ]
                (Printf.sprintf
                   "window rejected: %s begins with conditional %s, which tensioning \
                    cannot see through"
                   l blocker)
          | None -> ());
        Isa.L l'
    | abs -> abs
  in
  match i with
  | Jmp (c, a, b, t) -> Jmp (c, a, b, tg t)
  | Fjmp (c, a, b, t) -> Fjmp (c, a, b, tg t)
  | Jmpz (c, a, t) -> Jmpz (c, a, tg t)
  | Jmptag (c, a, k, t) -> Jmptag (c, a, k, tg t)
  | Jmpa t -> Jmpa (tg t)
  | other -> other

let tension (prog : Asm.item list) : Asm.item list * int =
  let at = instruction_at prog in
  let counter = ref 0 in
  (* thread the last provenance mark along, so each jump's remark lands
     on the source line the jump was compiled from *)
  let rec go cur_loc = function
    | [] -> []
    | (Asm.Mark (_, loc) as item) :: rest ->
        item :: go (match loc with Some _ -> loc | None -> cur_loc) rest
    | Asm.Instr i :: rest -> Asm.Instr (retarget_instr ?loc:cur_loc at counter i) :: go cur_loc rest
    | Asm.Data (l, ws) :: rest ->
        (* dispatch tables hold code addresses: tension them too *)
        Asm.Data
          ( l,
            List.map
              (function
                | Asm.Labref lab ->
                    let lab' = resolve at 8 lab in
                    if lab' <> lab then incr counter;
                    Asm.Labref lab'
                | w -> w)
              ws )
        :: go cur_loc rest
    | item :: rest -> item :: go cur_loc rest
  in
  (* bind before reading the counter: tuple components evaluate
     right-to-left *)
  let out = go None prog in
  (out, !counter)

(* Does control always transfer away after this instruction? *)
let is_barrier : Isa.instr -> bool = function
  | Isa.Jmpa _ | Isa.Jmpi _ | Isa.Ret | Isa.Tcall _ | Isa.Halt -> true
  | _ -> false

let drop_unreachable (prog : Asm.item list) : Asm.item list * int =
  let removed = ref 0 in
  let rec go dead = function
    | [] -> []
    | Asm.Label l :: rest -> Asm.Label l :: go false rest
    | Asm.Data (l, ws) :: rest -> Asm.Data (l, ws) :: go dead rest
    | Asm.Comment c :: rest -> if dead then go dead rest else Asm.Comment c :: go dead rest
    | Asm.Mark (n, loc) :: rest -> if dead then go dead rest else Asm.Mark (n, loc) :: go dead rest
    | Asm.Instr i :: rest ->
        if dead then begin
          incr removed;
          go dead rest
        end
        else Asm.Instr i :: go (is_barrier i) rest
  in
  let out = go false prog in
  (out, !removed)

(* Remove JMPA L when L labels the very next instruction (only labels and
   comments intervene). *)
let drop_jump_to_next (prog : Asm.item list) : Asm.item list * int =
  let removed = ref 0 in
  let rec next_labels = function
    | Asm.Label l :: rest -> l :: next_labels rest
    | Asm.Comment _ :: rest | Asm.Mark _ :: rest -> next_labels rest
    | _ -> []
  in
  let rec go = function
    | [] -> []
    | Asm.Instr (Isa.Jmpa (Isa.L l)) :: rest when List.mem l (next_labels rest) ->
        incr removed;
        go rest
    | item :: rest -> item :: go rest
  in
  let out = go prog in
  (out, !removed)

let run ?(max_rounds = 4) (prog : Asm.program) : Asm.program * stats =
  let rec loop prog stats rounds =
    if rounds = 0 then (prog, stats)
    else
      let prog, t = tension prog in
      let prog, j = drop_jump_to_next prog in
      let prog, u = drop_unreachable prog in
      let stats =
        {
          tensioned = stats.tensioned + t;
          jumps_removed = stats.jumps_removed + j;
          unreachable_removed = stats.unreachable_removed + u;
        }
      in
      if t = 0 && j = 0 && u = 0 then (prog, stats) else loop prog stats (rounds - 1)
  in
  loop prog no_stats max_rounds
