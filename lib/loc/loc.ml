(** Source locations, shared across the whole pipeline.

    A leaf library: both the reader (which produces locations) and the
    machine layer (whose assembler carries them through PC line maps)
    depend on it, so it must depend on nothing else in the tree.

    [line] and [col] are 1-based, as the reader counts them. *)

type t = { file : string; line : int; col : int }

let make ~file ~line ~col = { file; line; col }

let to_string l = Printf.sprintf "%s:%d:%d" l.file l.line l.col

(** Render without the column — the granularity of per-line profiles and
    annotated listings. *)
let line_key l = l.file ^ ":" ^ string_of_int l.line

let pp fmt l = Format.pp_print_string fmt (to_string l)

let compare a b =
  match String.compare a.file b.file with
  | 0 -> ( match Int.compare a.line b.line with 0 -> Int.compare a.col b.col | c -> c)
  | c -> c

let equal a b = compare a b = 0
