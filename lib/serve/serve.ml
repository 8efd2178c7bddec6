(** The compile service: content-addressed caching in front of
    {!S1_core.Compiler}, one unit at a time ({!Supervise} batches it).

    Cold path: evaluate each top-level form with
    {!S1_core.Compiler.eval_action}.  Every compile already produces its
    unit in loadable form — a sentinel program plus the recipe of world
    requests ({!S1_core.Cunit}) — and installs it through
    {!S1_core.Compiler.install}; the actions, one per form, serialize as
    an {!Image}.

    Warm path: verify and decode the image, then replay each action
    ({!S1_core.Compiler.replay_action}) into a fresh world: the same
    install resolves the recipe against that world, substitutes, loads,
    and the action's world effects follow.  Because the recipe replays
    the exact world-effect sequence of a from-source compile, the loaded
    code is byte-identical — same words, same addresses, same cycle
    counts, same annotate listing — without running a single
    optimization pass.

    Every execution, cold or warm, runs in a world of its own that dies
    with the call, so a failed run leaves nothing behind to roll back.
    All compiler state is either per-instance ({!S1_core.Compiler.t}) or
    domain-local ({!S1_par.Dls}), so {!Supervise.batch} can run units on
    worker domains.  Counter deltas are the supervisor's: it takes one
    per unit ({!Supervise.run_unit}) and merges them in input order. *)

module Reader = S1_sexp.Reader
module Cpu = S1_machine.Cpu
module Rt = S1_runtime.Rt
module Node = S1_ir.Node
module Freshen = S1_ir.Freshen
module Macroexp = S1_frontend.Macroexp
module Rules = S1_transform.Rules
module Gen = S1_codegen.Gen
module C = S1_core.Compiler
module Obs = S1_obs.Obs
module Remark = S1_obs.Remark
module Oracle = S1_fuzz.Oracle
module Genprog = S1_fuzz.Genprog

type cfg = {
  sv_rules : Rules.config;
  sv_options : Gen.options;
  sv_cse : bool;
}

let default_cfg =
  { sv_rules = Rules.default_config; sv_options = Gen.default_options; sv_cse = false }

let flags_of (cfg : cfg) : string =
  Cache.canonical_flags cfg.sv_rules cfg.sv_options ~cse:cfg.sv_cse

let key_of (cfg : cfg) (src : string) : string =
  Cache.key ~flags:(flags_of cfg) src

(* Hermetic compiles ---------------------------------------------------- *)

(* Every name-generating counter that leaks into emitted code (labels,
   CSE temporaries, macro gensyms, node ids in marks) restarts at zero,
   so a file's image is a function of (source, flags) alone — not of
   what the domain compiled before it. *)
let reset_compile_state () =
  Node.reset_counters ();
  Freshen.reset_counter ();
  S1_transform.Cse.reset_counter ();
  Macroexp.reset_gensym ();
  Gen.reset_label_counter ()

let compiler_of (cfg : cfg) : C.t =
  C.create ~options:cfg.sv_options ~rules:cfg.sv_rules ~cse:cfg.sv_cse ()

type exec = { e_value : string; e_output : string; e_cycles : int }

let cycles_of (c : C.t) : int = c.C.rt.Rt.cpu.Cpu.stats.Cpu.cycles

(* Run [f] under a cumulative cycle watchdog when a deadline is set.
   The budget covers every nested simulator run — macroexpanders, DEFVAR
   initializers, toplevel effects — so a unit cannot dodge it by
   spreading work across many small calls. *)
let under_deadline (c : C.t) (deadline : int option) (f : unit -> 'a) : 'a =
  match deadline with
  | None -> f ()
  | Some cycles -> Rt.with_deadline c.C.rt ~cycles f

(* Compile and run a whole file cold, capturing the image as evaluation
   proceeds.  The image embeds the compile's remark journal and counter
   delta — the observability a warm load would otherwise lose.
   [degraded] stamps the image as a retry-ladder fallback (see
   {!Supervise}); it lands both in the envelope and as a remark so
   --remarks and --diff-runs surface the weakened compile. *)
let compile_cold (cfg : cfg) ?(prepare = fun (_ : C.t) -> ()) ?fuel ?deadline
    ?(degraded = "") ~file ~key (src : string) : Image.t * exec =
  reset_compile_state ();
  let c = compiler_of cfg in
  c.C.rt.Rt.fuel <- fuel;
  prepare c;
  let forms, tab = Reader.parse_string_located ~file src in
  c.C.locs <- Some tab;
  let remark_was = Remark.enabled () in
  Remark.reset ();
  Remark.set_enabled true;
  if degraded <> "" then
    Remark.analysis ~pass:"serve" ~rule:"DEGRADED"
      (Printf.sprintf "compiled at degraded rung %s after retry" degraded);
  let before = Obs.snapshot () in
  Fun.protect
    ~finally:(fun () -> Remark.set_enabled remark_was)
    (fun () ->
      let actions, last =
        under_deadline c deadline (fun () ->
            List.fold_left
              (fun (actions, _) form ->
                let a, v = C.eval_action c form in
                (a :: actions, v))
              ([], c.C.rt.Rt.nil) forms)
      in
      let exec =
        {
          e_value = Rt.print_value c.C.rt last;
          e_output = Rt.output c.C.rt;
          e_cycles = cycles_of c;
        }
      in
      let img =
        {
          Image.i_file = file;
          i_key = key;
          i_flags = flags_of cfg;
          i_degraded = degraded;
          i_actions = List.rev actions;
          i_remarks = Remark.to_jsonl (Remark.remarks ());
          i_counters = Obs.diff ~before ();
        }
      in
      (img, exec))

(* Warm replay ---------------------------------------------------------- *)

(* The service's names for the compiler's loader and replay dispatch
   (perfbench times them per call); a cold compile installs through the
   same {!S1_core.Compiler.install}. *)
let replay_unit (c : C.t) (u : Image.unit_img) : int = fst (C.install c u)
let replay_action = C.replay_action

(** Replay a loaded image into a {e fresh} world. *)
let execute (cfg : cfg) ?(prepare = fun (_ : C.t) -> ()) ?fuel ?deadline
    (img : Image.t) : exec =
  let c = compiler_of cfg in
  c.C.rt.Rt.fuel <- fuel;
  prepare c;
  let last =
    under_deadline c deadline (fun () ->
        List.fold_left (fun _ a -> C.replay_action c a) c.C.rt.Rt.nil img.Image.i_actions)
  in
  {
    e_value = Rt.print_value c.C.rt last;
    e_output = Rt.output c.C.rt;
    e_cycles = cycles_of c;
  }

(* Service front door --------------------------------------------------- *)

type result = {
  r_file : string;
  r_key : string;
  r_hit : bool;
  r_image : string;  (** serialized image bytes; [""] if the compile failed *)
  r_outcome : Oracle.outcome;
  r_exec : exec option;  (** populated on normal completion *)
  r_trap : Cpu.trap_kind option;
      (** machine trap behind a [Crash] outcome, when there was one —
          the supervisor's retry ladder keys off this *)
  r_loc : S1_loc.Loc.t option;  (** provenance of the faulting instruction *)
}

(* Run [f] and classify how it ended with {!Oracle.outcome_of_exn}; an
   untyped exception is a [Crash] too, so nothing escapes as a bare
   exception.  Machine traps additionally surface their kind and
   provenance loc so the supervisor can classify the fault (deadline vs.
   corruption vs. engine bug) without string matching. *)
let structured (f : unit -> exec) :
    Oracle.outcome * exec option * (Cpu.trap_kind * S1_loc.Loc.t option) option
    =
  match f () with
  | e -> (Oracle.Value e.e_value, Some e, None)
  | exception e ->
      let outcome =
        match Oracle.outcome_of_exn e with
        | Some o -> o
        | None -> Oracle.Crash (Printexc.to_string e)
      in
      let trap =
        match e with Cpu.Trap { kind; loc; _ } -> Some (kind, loc) | _ -> None
      in
      (outcome, None, trap)

(** Compile-or-load one file through the service: cache lookup by
    content address, cold compile + capture + store on miss, replay of
    the image the cache verified and decoded on hit (it is not decoded
    again here).  Runs the program either way and never lets an
    exception escape. *)
let compile_file ?cache ?prepare ?fuel ?deadline ?degraded (cfg : cfg) ~file
    (src : string) : result =
  let k = key_of cfg src in
  let hit, bytes, (outcome, exec, trap) =
    match Option.bind cache (fun t -> Cache.lookup ~file t k) with
    | Some (bytes, img) ->
        ( true,
          bytes,
          structured (fun () -> execute cfg ?prepare ?fuel ?deadline img) )
    | None ->
        let img = ref None in
        let run =
          structured (fun () ->
              let i, e =
                compile_cold cfg ?prepare ?fuel ?deadline ?degraded ~file ~key:k src
              in
              img := Some i;
              e)
        in
        let bytes =
          match !img with
          | Some i ->
              let bytes = Image.save i in
              Option.iter (fun t -> Cache.store t k bytes) cache;
              bytes
          | None -> ""
        in
        (false, bytes, run)
  in
  {
    r_file = file;
    r_key = k;
    r_hit = hit;
    r_image = bytes;
    r_outcome = outcome;
    r_exec = exec;
    r_trap = Option.map fst trap;
    r_loc = Option.bind trap snd;
  }

(* Fuzzing the cache path ----------------------------------------------- *)

type fuzz_failure = {
  z_index : int;
  z_seed : int;
  z_kind : string;
  z_detail : string;
  z_program : string;
}

type fuzz_report = {
  f_seed : int;
  f_count : int;
  f_hits : int;
  f_failures : fuzz_failure list;
}

(** Differential testing over the cache: each seeded program is compiled
    cold through the service, then again so the second run must be served
    from the cache and executed from its image in a fresh world; the
    cache-loaded outcome must agree with the reference interpreter and
    match the cold outcome exactly. *)
let fuzz ?(seed = 1) ?(count = 100) ?cache_dir () : fuzz_report =
  let cache = Cache.create ?dir:cache_dir ~capacity:(max 16 count) () in
  let cfg = default_cfg in
  let hits = ref 0 in
  let failures = ref [] in
  for i = 0 to count - 1 do
    let pseed = seed + i in
    let prog = Genprog.generate ~seed:pseed in
    let src = Genprog.render prog in
    let file = Printf.sprintf "<fuzz-%d>" pseed in
    let record kind detail =
      failures :=
        { z_index = i; z_seed = pseed; z_kind = kind; z_detail = detail;
          z_program = src }
        :: !failures
    in
    let reference = Oracle.run_interp prog.Genprog.pr_forms in
    let r1 = compile_file ~cache ~fuel:Oracle.fuzz_fuel cfg ~file src in
    let r2 = compile_file ~cache ~fuel:Oracle.fuzz_fuel cfg ~file src in
    if r2.r_hit then incr hits
    else if r1.r_image <> "" then
      record "no-hit" "cold run cached an image but the warm run missed";
    if not (Oracle.agree reference r2.r_outcome) then
      record "divergence"
        (Printf.sprintf "interp=%s cached=%s"
           (Oracle.outcome_string reference)
           (Oracle.outcome_string r2.r_outcome));
    if Oracle.outcome_string r1.r_outcome <> Oracle.outcome_string r2.r_outcome
    then
      record "cold-warm"
        (Printf.sprintf "cold=%s warm=%s"
           (Oracle.outcome_string r1.r_outcome)
           (Oracle.outcome_string r2.r_outcome))
  done;
  {
    f_seed = seed;
    f_count = count;
    f_hits = !hits;
    f_failures = List.rev !failures;
  }

let fuzz_summary (r : fuzz_report) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "serve-fuzz: %d programs, seed %d, %d warm hits: %d failure%s\n" r.f_count
    r.f_seed r.f_hits
    (List.length r.f_failures)
    (if List.length r.f_failures = 1 then "" else "s");
  List.iter
    (fun z ->
      Printf.bprintf b "\n--- %s: program %d (seed %d)\n%s\nprogram:\n%s\n"
        z.z_kind z.z_index z.z_seed z.z_detail z.z_program)
    r.f_failures;
  Buffer.contents b
