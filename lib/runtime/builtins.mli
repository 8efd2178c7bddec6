(** The standard library: Lisp primitives implemented as native code
    objects.

    Each builtin is an OCaml function registered once, at module
    initialization, with {!Rt.define_native}; {!boot} loads every
    builtin's callable code object (a [SVC]+[RET] stub) into the new
    world's symbol function cells, writing only to that world.  Compiled
    code and the interpreter reach the same implementations, so the two
    agree bit-for-bit on library semantics.

    The set covers the MACLISP-family core the paper's examples use:
    list structure, predicates, the full generic arithmetic tower, the
    type-specific operators ([+$f], [*$f], [sin$f], [sinc$f], [+&], …)
    of paper §6.2, property lists, vectors, [funcall]/[apply]/[mapcar],
    and printing. *)

val boot : ?config:S1_machine.Mem.config -> unit -> Rt.t
(** Create a runtime with all builtins loaded. *)
