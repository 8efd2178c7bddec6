(** The decision journal: every optimization decision, and every
    rewrite of the tree, recorded once.

    An entry records a {e decision}, declined ones included.  Every
    pass that can refuse an optimization reports why, at the source
    position of the refusal:

    - [Passed]: an optimization applied (a rule fired, a TN won a
      register, a float box went to the stack);
    - [Missed]: the pass considered the site and declined, with the
      blocking reason as typed arguments (the effects judgement, the
      competing TN count, the escaping consumer);
    - [Analysis]: a fact worth surfacing that is neither (a coercion
      interposed, a duplication avoided by thunk introduction, a pass
      rollback).

    An entry that rewrote the tree also carries the rewrite: the form
    before and after, rendered back to source.

    The registry is a domain-local singleton like {!Obs}, disabled by
    default so the hot paths pay one boolean test; callers render no
    form and format no message while it is off.  [s1lc --remarks],
    [--transcript] and [--trace], the compile service and the tests
    enable it around the unit of interest.

    Two views read the one stream:

    - the {e remarks} view ({!remarks}): decisions, deduplicated on
      their full identity (kind, pass, rule, node, loc, message) — the
      simplifier re-examines every node each sweep, and one decision
      should read as one remark, not one per sweep.  It renders as a
      source-interleaved listing (like [--annotate]), a canonical
      one-line-per-remark text (stable across processes — node ids are
      excluded — used by the golden tests), and a JSONL journal (schema
      {!schema_version}) consumed by [s1lc --diff-runs];
    - the {e rewrite} view ({!rewrites}): every rewrite, never
      deduplicated, including those that make no remark of their own
      (META-SUBSTITUTE).  It renders as the paper's §7 compile
      transcript ({!transcript}) and as a JSONL journal (schema
      {!trace_schema_version}, {!trace_jsonl}) behind [s1lc --trace].

    A pass that rolls back drops its entries, so neither view ever
    shows a decision about a tree that no longer exists. *)

module Loc = S1_loc.Loc
module Json = Obs.Json

type kind = Passed | Missed | Analysis

let kind_name = function Passed -> "passed" | Missed -> "missed" | Analysis -> "analysis"

let kind_of_name = function
  | "passed" -> Some Passed
  | "missed" -> Some Missed
  | "analysis" -> Some Analysis
  | _ -> None

(** Typed argument values, so consumers can diff and threshold without
    re-parsing prose. *)
type value = Int of int | Str of string | Bool of bool

let value_to_string = function
  | Int n -> string_of_int n
  | Str s -> s
  | Bool b -> if b then "true" else "false"

(** A rewrite of the tree, rendered back to source. *)
type rewrite = {
  w_seq : int;  (** order among rewrites, 0-based *)
  w_before : string;
  w_after : string;
}

type t = {
  r_seq : int;
      (** order among remarks, 0-based; -1 on an entry the remarks view
          omits: a rewrite with no remark of its own, or one whose remark
          repeats an earlier decision *)
  r_kind : kind;
  r_pass : string;  (** "simplify", "cse", "repan", "pdlnum", "tnbind", "peephole", "compiler" *)
  r_rule : string;  (** decision id, e.g. "META-SUBSTITUTE", "TN-PACK" *)
  r_node : int;  (** IR node id; -1 unknown *)
  r_loc : Loc.t option;
  r_msg : string;
  r_args : (string * value) list;
  r_rewrite : rewrite option;
}

(* The registry: one per domain (like {!Obs}), so batch worker domains
   journal their own units without cross-talk. *)
type state = {
  mutable st_enabled : bool;
  mutable st_items : t list;  (* newest first *)
  mutable st_len : int;  (* List.length st_items *)
  mutable st_next_seq : int;
  mutable st_next_rewrite : int;
  st_seen : (string, unit) Hashtbl.t;
}

let state_key : state S1_par.Dls.t =
  S1_par.Dls.create (fun () ->
      { st_enabled = false; st_items = []; st_len = 0; st_next_seq = 0; st_next_rewrite = 0;
        st_seen = Hashtbl.create 64 })

let st () = S1_par.Dls.get state_key

let set_enabled b = (st ()).st_enabled <- b
let enabled () = (st ()).st_enabled

let reset () =
  let s = st () in
  s.st_items <- [];
  s.st_len <- 0;
  s.st_next_seq <- 0;
  s.st_next_rewrite <- 0;
  Hashtbl.reset s.st_seen

let identity_key ~kind ~pass ~rule ~node ~loc msg =
  Printf.sprintf "%s|%s|%s|%d|%s|%s" (kind_name kind) pass rule node
    (match loc with Some l -> Loc.to_string l | None -> "-")
    msg

let push s ~seq ~kind ~pass ~rule ~node ~loc ~args ~rewrite msg =
  let rewrite =
    Option.map
      (fun (before, after) ->
        s.st_next_rewrite <- s.st_next_rewrite + 1;
        { w_seq = s.st_next_rewrite - 1; w_before = before; w_after = after })
      rewrite
  in
  s.st_items <-
    { r_seq = seq; r_kind = kind; r_pass = pass; r_rule = rule; r_node = node; r_loc = loc;
      r_msg = msg; r_args = args; r_rewrite = rewrite }
    :: s.st_items;
  s.st_len <- s.st_len + 1

(* A repeated decision still journals its rewrite: rewrites are never
   deduplicated. *)
let record ~kind ~pass ~rule ?(node = -1) ?loc ?(args = []) ?rewrite msg =
  let s = st () in
  if s.st_enabled then begin
    let key = identity_key ~kind ~pass ~rule ~node ~loc msg in
    if not (Hashtbl.mem s.st_seen key) then begin
      Hashtbl.replace s.st_seen key ();
      s.st_next_seq <- s.st_next_seq + 1;
      push s ~seq:(s.st_next_seq - 1) ~kind ~pass ~rule ~node ~loc ~args ~rewrite msg
    end
    else if rewrite <> None then
      push s ~seq:(-1) ~kind ~pass ~rule ~node ~loc ~args ~rewrite msg
  end

let passed ~pass ~rule ?node ?loc ?args ?rewrite msg =
  record ~kind:Passed ~pass ~rule ?node ?loc ?args ?rewrite msg

let missed ~pass ~rule ?node ?loc ?args msg = record ~kind:Missed ~pass ~rule ?node ?loc ?args msg

let analysis ~pass ~rule ?node ?loc ?args msg =
  record ~kind:Analysis ~pass ~rule ?node ?loc ?args msg

(** A rewrite that makes no remark: journaled for the rewrite view only. *)
let rewrite ~pass ~rule ?(node = -1) ?loc ~before ~after () =
  let s = st () in
  if s.st_enabled then
    push s ~seq:(-1) ~kind:Passed ~pass ~rule ~node ~loc ~args:[]
      ~rewrite:(Some (before, after)) ""

(** Every entry, in recording order. *)
let entries () = List.rev (st ()).st_items

(** The remarks view. *)
let remarks () = List.filter (fun r -> r.r_seq >= 0) (entries ())

(** {1 Rollback scoping}

    A pass that rolls back must take its entries with it: the decisions
    it reported and the rewrites it made describe a tree that no longer
    exists.  The driver marks before the pass body and drops on
    restore. *)

let mark () = (st ()).st_len

(** The entries recorded since [m], in recording order. *)
let since m =
  let s = st () in
  List.rev (List.filteri (fun i _ -> i < s.st_len - m) s.st_items)

let drop_since m =
  let s = st () in
  if m < s.st_len then begin
    s.st_items <- List.filteri (fun i _ -> i >= s.st_len - m) s.st_items;
    s.st_len <- m;
    (* rebuild the dedup table so an identical decision on the retried
       (degraded) compilation path is not silently suppressed *)
    Hashtbl.reset s.st_seen;
    List.iter
      (fun r ->
        if r.r_seq >= 0 then
          Hashtbl.replace s.st_seen
            (identity_key ~kind:r.r_kind ~pass:r.r_pass ~rule:r.r_rule ~node:r.r_node
               ~loc:r.r_loc r.r_msg)
            ())
      s.st_items
  end

(** [capture f] runs [f] with the journal on and returns the entries
    it recorded.  A journal that was off is left as it was found: the
    entries go to the caller, not to the registry. *)
let capture f =
  let s = st () in
  let was = s.st_enabled and m = mark () in
  s.st_enabled <- true;
  Fun.protect
    ~finally:(fun () ->
      if not was then begin
        drop_since m;
        s.st_enabled <- false
      end)
    (fun () ->
      f ();
      since m)

(** {1 The JSONL journal} *)

let schema_version = "s1lisp.remarks/1"

let json_of_value = function
  | Int n -> Json.Int n
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let value_of_json = function
  | Json.Int n -> Int n
  | Json.Str s -> Str s
  | Json.Bool b -> Bool b
  | other -> Str (Json.to_string ~pretty:false other)

let json_of_loc = function
  | None -> Json.Null
  | Some l ->
      Json.Obj
        [
          ("file", Json.Str l.Loc.file); ("line", Json.Int l.Loc.line); ("col", Json.Int l.Loc.col);
        ]

let json_of_remark (r : t) : Json.t =
  Json.Obj
    [
      ("seq", Json.Int r.r_seq);
      ("kind", Json.Str (kind_name r.r_kind));
      ("pass", Json.Str r.r_pass);
      ("rule", Json.Str r.r_rule);
      ("node_id", Json.Int r.r_node);
      ("loc", json_of_loc r.r_loc);
      ("message", Json.Str r.r_msg);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) r.r_args));
    ]

(* One header line carrying the schema, then one JSON object per line. *)
let jsonl ~schema (lines : Json.t list) : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun j ->
      Buffer.add_string b (Json.to_string ~pretty:false j);
      Buffer.add_char b '\n')
    (Json.Obj [ ("schema", Json.Str schema) ] :: lines);
  Buffer.contents b

(* One remark per line, in sequence (decision) order — deterministic for
   a fixed input and configuration. *)
let to_jsonl (rs : t list) : string = jsonl ~schema:schema_version (List.map json_of_remark rs)

exception Journal_error of string

let remark_of_json (j : Json.t) : t =
  let get name = Json.member name j in
  let int name ~default =
    match Option.bind (get name) Json.to_int with Some n -> n | None -> default
  in
  let str name =
    match Option.bind (get name) Json.to_str with
    | Some s -> s
    | None -> raise (Journal_error (Printf.sprintf "remark missing field %S" name))
  in
  let kind =
    match kind_of_name (str "kind") with
    | Some k -> k
    | None -> raise (Journal_error (Printf.sprintf "unknown remark kind %S" (str "kind")))
  in
  let loc =
    match get "loc" with
    | Some (Json.Obj _ as l) -> (
        match
          ( Option.bind (Json.member "file" l) Json.to_str,
            Option.bind (Json.member "line" l) Json.to_int,
            Option.bind (Json.member "col" l) Json.to_int )
        with
        | Some file, Some line, Some col -> Some (Loc.make ~file ~line ~col)
        | _ -> raise (Journal_error "malformed loc object"))
    | _ -> None
  in
  let args =
    match get "args" with
    | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, value_of_json v)) kvs
    | _ -> []
  in
  {
    r_seq = int "seq" ~default:0;
    r_kind = kind;
    r_pass = str "pass";
    r_rule = str "rule";
    r_node = int "node_id" ~default:(-1);
    r_loc = loc;
    r_msg = str "message";
    r_args = args;
    r_rewrite = None;
  }

let of_jsonl (src : string) : t list =
  let lines =
    String.split_on_char '\n' src |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> raise (Journal_error "empty remarks journal")
  | header :: rest ->
      let hj =
        try Json.parse header
        with Json.Parse_error m -> raise (Journal_error ("bad header: " ^ m))
      in
      (match Option.bind (Json.member "schema" hj) Json.to_str with
      | Some s when s = schema_version -> ()
      | Some s -> raise (Journal_error (Printf.sprintf "unsupported schema %S" s))
      | None -> raise (Journal_error "header lacks a schema field"));
      List.map
        (fun line ->
          match Json.parse line with
          | j -> remark_of_json j
          | exception Json.Parse_error m -> raise (Journal_error ("bad remark: " ^ m)))
        rest

(** {1 The rewrite view} *)

(** The entries of [es] that rewrote the tree, with their rewrites. *)
let rewrites (es : t list) : (t * rewrite) list =
  List.filter_map (fun r -> Option.map (fun w -> (r, w)) r.r_rewrite) es

(* The paper's §7 compile-transcript text:

   {v
   ;**** Optimizing this form: (+$F A B C)
   ;**** to be this form: (+$F (+$F C B) A)
   ;**** courtesy of META-EVALUATE-ASSOC-COMMUT-CALL
   v} *)
let transcript (es : t list) : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun (r, w) ->
      Printf.bprintf b
        ";**** Optimizing this form: %s\n;**** to be this form: %s\n;**** courtesy of %s\n\n"
        w.w_before w.w_after r.r_rule)
    (rewrites es);
  Buffer.contents b

let trace_schema_version = "s1lisp.trace/1"

(* One rewrite per line, in firing order. *)
let trace_jsonl (es : t list) : string =
  jsonl ~schema:trace_schema_version
    (List.map
       (fun (r, w) ->
         Json.Obj
           [
             ("seq", Json.Int w.w_seq);
             ("pass", Json.Str r.r_pass);
             ("rule", Json.Str r.r_rule);
             ("node_id", Json.Int r.r_node);
             ("loc", json_of_loc r.r_loc);
             ("before", Json.Str w.w_before);
             ("after", Json.Str w.w_after);
           ])
       (rewrites es))

(** {1 Text renderings} *)

let args_to_string = function
  | [] -> ""
  | args ->
      " {"
      ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ value_to_string v) args)
      ^ "}"

(* One remark, one line, no node ids: stable across processes for the
   same source and configuration — the golden-test format. *)
let canonical (r : t) : string =
  Printf.sprintf "%-8s %s/%s @%s: %s%s" (kind_name r.r_kind) r.r_pass r.r_rule
    (match r.r_loc with Some l -> Loc.to_string l | None -> "-")
    r.r_msg (args_to_string r.r_args)

let canonical_all (rs : t list) : string =
  String.concat "" (List.map (fun r -> canonical r ^ "\n") rs)

(* Source-interleaved rendering, in the style of [--annotate]: each
   source line that attracted remarks is printed once, its remarks
   beneath it; unlocated remarks pool at the end. *)
let render ?(kinds = [ Passed; Missed; Analysis ]) ~(source : string -> string array option)
    (rs : t list) : string =
  let rs = List.filter (fun r -> List.mem r.r_kind kinds) rs in
  let located, unlocated = List.partition (fun r -> r.r_loc <> None) rs in
  let by_line : ((string * int) * t list ref) list ref = ref [] in
  List.iter
    (fun r ->
      match r.r_loc with
      | None -> ()
      | Some l ->
          let key = (l.Loc.file, l.Loc.line) in
          (match List.assoc_opt key !by_line with
          | Some cell -> cell := r :: !cell
          | None -> by_line := !by_line @ [ (key, ref [ r ]) ]))
    located;
  let b = Buffer.create 1024 in
  let groups =
    List.sort
      (fun ((fa, la), _) ((fb, lb), _) ->
        let c = compare fa fb in
        if c <> 0 then c else compare la lb)
      !by_line
  in
  let last_file = ref "" in
  List.iter
    (fun ((file, line), cell) ->
      if file <> !last_file then begin
        if !last_file <> "" then Buffer.add_char b '\n';
        Buffer.add_string b (Printf.sprintf ";;; remarks for %s\n" file);
        last_file := file
      end;
      let text =
        match source file with
        | Some lines when line >= 1 && line <= Array.length lines -> lines.(line - 1)
        | _ -> ""
      in
      Buffer.add_string b (Printf.sprintf "%5d | %s\n" line text);
      List.iter
        (fun r ->
          Buffer.add_string b
            (Printf.sprintf "      |   [%s] %s/%s: %s%s\n" (kind_name r.r_kind) r.r_pass
               r.r_rule r.r_msg (args_to_string r.r_args)))
        (List.sort (fun a b -> compare a.r_seq b.r_seq) !cell))
    groups;
  if unlocated <> [] then begin
    if groups <> [] then Buffer.add_char b '\n';
    Buffer.add_string b ";;; remarks with no source position\n";
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "      |   [%s] %s/%s: %s%s\n" (kind_name r.r_kind) r.r_pass
             r.r_rule r.r_msg (args_to_string r.r_args)))
      unlocated
  end;
  Buffer.contents b

(* Per-kind totals, for one-line summaries. *)
let totals (rs : t list) : int * int * int =
  List.fold_left
    (fun (p, m, a) r ->
      match r.r_kind with
      | Passed -> (p + 1, m, a)
      | Missed -> (p, m + 1, a)
      | Analysis -> (p, m, a + 1))
    (0, 0, 0) rs
