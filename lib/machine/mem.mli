(** Simulated data memory: one flat 36-bit-word address space divided into
    regions.

    - {b SQ page}: system quantities at fixed low addresses (NIL, T, the
      service linkage constants) — the paper's [(SQ *:SQ-...)] operands.
    - {b static}: assembler data blocks and load-time (quoted) constants;
      scanned but never moved by the collector.
    - {b heap}: the garbage-collected region (two semispaces, managed by
      the runtime).
    - {b stack}: the control stack, growing upward.  Pointer
      {e certification} (paper §6.3) is exactly [is_stack_addr].
    - {b bind}: the deep-binding special-variable stack. *)

type config = {
  sq_words : int;
  static_words : int;
  heap_words : int;  (** total for both semispaces *)
  stack_words : int;
  bind_words : int;
}

val default_config : config

type t

val create : ?config:config -> unit -> t
val config : t -> config

val read : t -> int -> int
val write : t -> int -> int -> unit
(** Bounds-checked word access. @raise Failure on out-of-range address. *)

val size : t -> int

(** {1 Region geometry} *)

val sq_base : t -> int
val static_base : t -> int
val static_limit : t -> int
val heap_base : t -> int
val heap_limit : t -> int
val stack_base : t -> int
val stack_limit : t -> int
val bind_base : t -> int
val bind_limit : t -> int

val is_stack_addr : t -> int -> bool
(** True when the address lies in the control-stack region — an "unsafe"
    (pdl) pointer target. *)

val is_heap_addr : t -> int -> bool
val is_static_addr : t -> int -> bool

(** {1 Static allocation}

    Bump allocation in the static region, used by the loader for
    assembler data blocks and immortal quoted constants. *)

val alloc_static : t -> int -> int
(** [alloc_static m n] reserves [n] words, returns the base address.
    @raise Failure when the static region is exhausted. *)

val static_used : t -> int
