(* Tests for the compile service: image round-trips (a cache-loaded
   program must be indistinguishable — output, cycles, folded stacks,
   annotate inputs — from a from-source compile), byte-deterministic
   serialization, the verifying loader's typed errors, cache-key
   sensitivity to every optimization-lattice axis, warm hits running
   zero optimization passes, the per-instance pass hook and macro
   tables, and `-j N` batch output being independent of N.  Every
   compile records its unit, so the plain and service paths share one
   loader; the round trips pin that they agree. *)

module Sexp = S1_sexp.Sexp
module Reader = S1_sexp.Reader
module Cpu = S1_machine.Cpu
module Asm = S1_machine.Asm
module Rt = S1_runtime.Rt
module Rules = S1_transform.Rules
module Gen = S1_codegen.Gen
module C = S1_core.Compiler
module Obs = S1_obs.Obs
module Image = S1_serve.Image
module Cache = S1_serve.Cache
module Serve = S1_serve.Serve
module Sup = S1_serve.Supervise

let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lisp")
  |> List.sort compare

let read_file path =
  In_channel.with_open_text path In_channel.input_all

(* under `dune runtest` the cwd is a private sandbox: a relative scratch
   directory is safe and cleaned with the sandbox.  Under a bare
   `dune exec` the directory survives between runs, so each test wipes
   its own subdirectory before use. *)
let tmp_dir () = "_serve_scratch"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir sub =
  let dir = Filename.concat (tmp_dir ()) sub in
  rm_rf dir;
  dir

(* What a run of a program looks like from the outside: everything the
   acceptance criteria require to be identical between in-memory and
   cache-loaded compilation. *)
type observed = {
  value : string;
  output : string;
  cycles : int;
  folded : string;
  code : (string * string * int) list;  (* (name, listing, org), oldest first *)
}

let arm (c : C.t) =
  Cpu.enable_callgraph c.C.rt.Rt.cpu;
  c.C.record_code <- true

let observe (c : C.t) (value_word : int) : observed =
  {
    value = Rt.print_value c.C.rt value_word;
    output = Rt.output c.C.rt;
    cycles = c.C.rt.Rt.cpu.Cpu.stats.Cpu.cycles;
    folded = Cpu.render_folded c.C.rt.Rt.cpu;
    code =
      List.rev_map
        (fun (name, prog, org) -> (name, Asm.listing prog, org))
        c.C.code_log;
  }

(* The reference: plain Compiler.eval with no service involved. *)
let run_plain (src : string) ~file : observed =
  Serve.reset_compile_state ();
  let c = C.create () in
  arm c;
  let forms, tab = Reader.parse_string_located ~file src in
  c.C.locs <- Some tab;
  let v = List.fold_left (fun _ f -> C.eval c f) c.C.rt.Rt.nil forms in
  observe c v

(* Run a file through the service, observing the world it executed in
   via the prepare hook. *)
let run_serve ?cache (src : string) ~file : Serve.result * observed =
  let world = ref None in
  let prepare c =
    arm c;
    world := Some c
  in
  let r = Serve.compile_file ?cache ~prepare Serve.default_cfg ~file src in
  match (r.Serve.r_exec, !world) with
  | Some e, Some c ->
      ( r,
        {
          value = e.Serve.e_value;
          output = e.Serve.e_output;
          cycles = e.Serve.e_cycles;
          folded = Cpu.render_folded c.C.rt.Rt.cpu;
          code =
            List.rev_map
              (fun (name, prog, org) -> (name, Asm.listing prog, org))
              c.C.code_log;
        } )
  | _ ->
      Alcotest.failf "%s: service run did not complete (%s)" file
        (S1_fuzz.Oracle.outcome_string r.Serve.r_outcome)

(* [exact:false] relaxes the comparison to value + output only: a warm
   replay of a DEFMACRO source correctly skips the compile-time expander
   calls, so the cycle count, the folded stacks, and the resolved static
   addresses in code listings all legitimately differ from a from-source
   run (the cycle delta's direction is pinned separately below). *)
let check_observed ?(exact = true) ~what (expected : observed)
    (got : observed) =
  Alcotest.(check string) (what ^ ": value") expected.value got.value;
  Alcotest.(check string) (what ^ ": output") expected.output got.output;
  if exact then begin
    Alcotest.(check int) (what ^ ": cycles") expected.cycles got.cycles;
    Alcotest.(check string) (what ^ ": folded stacks") expected.folded got.folded;
    Alcotest.(check (list (triple string string int)))
      (what ^ ": loaded code") expected.code got.code
  end

(* Round trip ----------------------------------------------------------------- *)

(* Every corpus program: in-memory compile, service cold compile, and
   cache-loaded execution in a fresh world must be indistinguishable,
   and the image bytes must be identical between the cold store and the
   warm load. *)
let test_corpus_round_trip () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus present" true (List.length files >= 8);
  let dir = fresh_dir "roundtrip" in
  List.iter
    (fun file ->
      let path = Filename.concat corpus_dir file in
      let src = read_file path in
      match run_plain src ~file:path with
      | exception _ -> () (* a non-completing program is not cacheable *)
      | plain ->
      let cache = Cache.create ~dir:(Filename.concat dir file) () in
      let cold, cold_obs = run_serve ~cache src ~file:path in
      Alcotest.(check bool) (file ^ ": first run is a miss") false cold.Serve.r_hit;
      check_observed ~what:(file ^ " cold") plain cold_obs;
      let warm, warm_obs = run_serve ~cache src ~file:path in
      Alcotest.(check bool) (file ^ ": second run hits") true warm.Serve.r_hit;
      let uses_macro =
        let re = Str.regexp_string "DEFMACRO" in
        try ignore (Str.search_forward re src 0); true with Not_found -> false
      in
      check_observed ~exact:(not uses_macro) ~what:(file ^ " warm") plain
        warm_obs;
      Alcotest.(check string)
        (file ^ ": warm bytes = cold bytes") cold.Serve.r_image
        warm.Serve.r_image)
    files

(* Serialization -------------------------------------------------------------- *)

let sample_src =
  "(PROCLAIM (QUOTE (SPECIAL *W*)))\n\
   (DEFVAR *V* 7)\n\
   (DEFUN SQ (X) (* X X))\n\
   (DEFMACRO TWICE (E) (LIST (QUOTE +) E E))\n\
   (+ (SQ *V*) (TWICE 3))"

let cold_image ?(src = sample_src) () : Image.t * Serve.exec =
  Serve.compile_cold Serve.default_cfg ~file:"<test>"
    ~key:(Serve.key_of Serve.default_cfg src)
    src

let test_image_bytes_deterministic () =
  let i1, _ = cold_image () in
  let i2, _ = cold_image () in
  Alcotest.(check string)
    "two independent cold compiles serialize identically" (Image.save i1)
    (Image.save i2)

let test_image_round_trips_structurally () =
  let img, exec = cold_image () in
  (match Image.load (Image.save img) with
  | Error e -> Alcotest.fail (Image.load_error_to_string e)
  | Ok back ->
      Alcotest.(check string)
        "decode(encode(img)) re-encodes identically" (Image.save img)
        (Image.save back);
      let e2 = Serve.execute Serve.default_cfg back in
      Alcotest.(check string) "replayed value" exec.Serve.e_value e2.Serve.e_value;
      (* sample_src uses a macro, so the cold cycle count includes the
         compile-time expander call the warm replay correctly skips;
         replay itself must still be cycle-deterministic *)
      let e3 = Serve.execute Serve.default_cfg back in
      Alcotest.(check int) "replay cycles deterministic" e2.Serve.e_cycles
        e3.Serve.e_cycles)

let test_actions_cover_form_kinds () =
  let img, _ = cold_image () in
  let kinds =
    List.map
      (function
        | Image.Defun _ -> "defun"
        | Image.Defmacro _ -> "defmacro"
        | Image.Defvar _ -> "defvar"
        | Image.Proclaim _ -> "proclaim"
        | Image.Toplevel _ -> "toplevel")
      img.Image.i_actions
  in
  Alcotest.(check (list string))
    "one action per top-level form, in order"
    [ "proclaim"; "defvar"; "defun"; "defmacro"; "toplevel" ]
    kinds

(* PROCLAIM is the one action kind with no unit: its warm replay must
   leave the variable proclaimed in the fresh world, as evaluating the
   source does.  Pinned exactly against the interpreter, the plain
   compile, and the cold and warm service runs. *)
let test_proclaim_replays_exactly () =
  let file = Filename.concat corpus_dir "proclaim-special.lisp" in
  let src = read_file file in
  let expected = "(15 35 6)" in
  Alcotest.(check string) "interpreted" expected
    (S1_fuzz.Oracle.outcome_string
       (S1_fuzz.Oracle.run_interp (Reader.parse_string src)));
  let plain = run_plain src ~file in
  Alcotest.(check string) "compiled" expected plain.value;
  let img, cold = cold_image ~src () in
  Alcotest.(check string) "served cold" expected cold.Serve.e_value;
  (match img.Image.i_actions with
  | Image.Proclaim names :: _ ->
      Alcotest.(check (list string)) "proclaimed names" [ "*SCALE*" ] names
  | _ -> Alcotest.fail "first action is not a PROCLAIM");
  let world = ref None in
  let warm =
    Serve.execute Serve.default_cfg ~prepare:(fun c -> world := Some c) img
  in
  Alcotest.(check string) "served warm" expected warm.Serve.e_value;
  Alcotest.(check int) "warm cycles = cold cycles" cold.Serve.e_cycles
    warm.Serve.e_cycles;
  (* the compiled code alone cannot tell: the proclamation is a flag in
     the world, read by the next compile that binds the variable *)
  let rebind = Reader.parse_string "(let ((*scale* 10)) (scaled 1))" in
  Alcotest.(check string) "warm world proclaimed *SCALE*" "10"
    (C.eval_print (Option.get !world) rebind)

(* The TN report [listing_of] hands back is the one its unit carries:
   compiling TESTFN for its listing in a plain world yields the same
   report (and listing) as the DEFUN unit in the service's cold image. *)
let test_listing_of_reports_its_unit () =
  let file =
    if Sys.file_exists "../examples/testfn.lisp" then "../examples/testfn.lisp"
    else "examples/testfn.lisp"
  in
  let src = read_file file in
  let frotz, testfn =
    match Reader.parse_string src with
    | f :: t :: _ -> (f, t)
    | _ -> Alcotest.fail "testfn.lisp: expected FROTZ then TESTFN"
  in
  Serve.reset_compile_state ();
  let c = C.create () in
  ignore (C.eval c frotz);
  let listing, tn_report, _ = C.listing_of c testfn in
  Alcotest.(check bool) "TN report non-empty" true (tn_report <> "");
  let img, _ = cold_image ~src () in
  match
    List.find_map
      (function
        | Image.Defun u when u.Image.u_name = "TESTFN" -> Some u | _ -> None)
      img.Image.i_actions
  with
  | None -> Alcotest.fail "no TESTFN unit in the cold image"
  | Some u ->
      Alcotest.(check string) "TN report = the image unit's" u.Image.u_tn_report
        tn_report;
      Alcotest.(check string) "listing = the image unit's" u.Image.u_listing listing

(* Loader --------------------------------------------------------------------- *)

let expect_error what bytes pred =
  match Image.load bytes with
  | Ok _ -> Alcotest.failf "%s: loader accepted the blob" what
  | Error e ->
      Alcotest.(check bool)
        (what ^ ": " ^ Image.load_error_to_string e)
        true (pred e)

let test_loader_rejects_garbage () =
  expect_error "not JSON" "this is not json" (function
    | Image.Bad_json _ -> true
    | _ -> false);
  expect_error "JSON, wrong shape" "{\"x\": 1}" (function
    | Image.Malformed _ -> true
    | _ -> false);
  (* a well-formed, correctly checksummed blob whose code names a
     service this process never registered: a foreign image is
     rejected, never registered as a new service *)
  let img, _ = cold_image () in
  let foreign =
    match S1_obs.Json.parse (Image.save img) with
    | S1_obs.Json.Obj [ schema; _; ("payload", S1_obs.Json.Str payload) ] ->
        let payload =
          Str.global_replace (Str.regexp_string "*:SQ-GENERIC-MUL")
            "*:SQ-NO-SUCH-SERVICE" payload
        in
        S1_obs.Json.to_string ~pretty:false
          (S1_obs.Json.Obj
             [ schema;
               ("checksum", S1_obs.Json.Str (Digest.to_hex (Digest.string payload)));
               ("payload", S1_obs.Json.Str payload) ])
    | _ -> Alcotest.fail "unexpected envelope shape"
  in
  expect_error "unknown service" foreign (function
    | Image.Malformed m -> m = "unknown service *:SQ-NO-SUCH-SERVICE"
    | _ -> false)

let test_loader_rejects_wrong_schema () =
  let img, _ = cold_image () in
  let bytes = Image.save img in
  let bumped =
    Str.global_replace (Str.regexp_string Image.schema_version) "s1lisp.image/999"
      bytes
  in
  expect_error "bumped schema" bumped (function
    | Image.Wrong_schema "s1lisp.image/999" -> true
    | _ -> false)

let test_loader_rejects_corruption () =
  let img, _ = cold_image () in
  let bytes = Bytes.of_string (Image.save img) in
  (* flip one payload byte; the envelope checksum must catch it *)
  let i = Bytes.length bytes / 2 in
  Bytes.set bytes i (if Bytes.get bytes i = 'A' then 'B' else 'A');
  match Image.load (Bytes.to_string bytes) with
  | Ok _ -> Alcotest.fail "loader accepted a corrupted image"
  | Error (Image.Corrupted _ | Image.Bad_json _ | Image.Malformed _) -> ()
  | Error e ->
      Alcotest.failf "unexpected error class: %s" (Image.load_error_to_string e)

(* Cache keys ----------------------------------------------------------------- *)

(* Flip each optimization-lattice axis in turn: every one must change
   the content address. *)
let lattice_points : (string * Rules.config * Gen.options * bool) list =
  let r = Rules.default_config and o = Gen.default_options in
  [
    ("beta", { r with Rules.beta = not r.Rules.beta }, o, false);
    ("fold", { r with Rules.fold = not r.Rules.fold }, o, false);
    ("ifopt", { r with Rules.ifopt = not r.Rules.ifopt }, o, false);
    ("assoc", { r with Rules.assoc = not r.Rules.assoc }, o, false);
    ( "identities",
      { r with Rules.identities = not r.Rules.identities },
      o,
      false );
    ("deadcode", { r with Rules.deadcode = not r.Rules.deadcode }, o, false);
    ("sinc", { r with Rules.sinc = not r.Rules.sinc }, o, false);
    ("integrate", { r with Rules.integrate = not r.Rules.integrate }, o, false);
    ( "typed_specialize",
      { r with Rules.typed_specialize = not r.Rules.typed_specialize },
      o,
      false );
    ( "max_integrate_size",
      { r with Rules.max_integrate_size = r.Rules.max_integrate_size + 1 },
      o,
      false );
    ( "max_duplicate_size",
      { r with Rules.max_duplicate_size = r.Rules.max_duplicate_size + 1 },
      o,
      false );
    ("checked", r, { o with Gen.checked = not o.Gen.checked }, false);
    ("use_tnbind", r, { o with Gen.use_tnbind = not o.Gen.use_tnbind }, false);
    ("pdl_numbers", r, { o with Gen.pdl_numbers = not o.Gen.pdl_numbers }, false);
    ( "cache_specials",
      r,
      { o with Gen.cache_specials = not o.Gen.cache_specials },
      false );
    ( "inline_prims",
      r,
      { o with Gen.inline_prims = not o.Gen.inline_prims },
      false );
    ("peephole", r, { o with Gen.peephole = not o.Gen.peephole }, false);
    ("cse", r, o, true);
  ]

let test_key_sensitive_to_flags () =
  let src = "(+ 1 2)" in
  let base = Serve.key_of Serve.default_cfg src in
  List.iter
    (fun (axis, rules, options, cse) ->
      let cfg = { Serve.sv_rules = rules; sv_options = options; sv_cse = cse } in
      Alcotest.(check bool)
        (axis ^ " flip changes the key")
        true
        (Serve.key_of cfg src <> base))
    lattice_points

let test_key_sensitive_to_source () =
  let base = Serve.key_of Serve.default_cfg "(+ 1 2)" in
  Alcotest.(check bool)
    "one source byte changes the key" true
    (Serve.key_of Serve.default_cfg "(+ 1 3)" <> base)

let test_key_sensitive_to_schema () =
  let flags = Serve.flags_of Serve.default_cfg in
  Alcotest.(check bool)
    "schema bump changes the key" true
    (Cache.key ~schema:"s1lisp.image/999" ~flags "(+ 1 2)"
    <> Cache.key ~flags "(+ 1 2)")

let test_key_stable () =
  Alcotest.(check string)
    "identical input, identical key"
    (Serve.key_of Serve.default_cfg sample_src)
    (Serve.key_of Serve.default_cfg sample_src)

(* Warm hits run no passes ---------------------------------------------------- *)

let pass_span_count () =
  List.fold_left
    (fun acc (sp : Obs.span) ->
      (* "compile" wraps the whole pipeline; "phases" wraps the
         optimizer; "codegen" spans live underneath *)
      if
        List.exists
          (fun part -> part = "compile" || part = "phases")
          (String.split_on_char '/' sp.Obs.sp_path)
      then acc + sp.Obs.sp_count
      else acc)
    0 (Obs.spans ())

let test_warm_hit_runs_zero_passes () =
  let cache = Cache.create ~capacity:4 () in
  let src = sample_src in
  let r1 = Serve.compile_file ~cache Serve.default_cfg ~file:"<warm>" src in
  Alcotest.(check bool) "cold run misses" false r1.Serve.r_hit;
  let before = pass_span_count () in
  let misses = Obs.count "serve.misses" in
  let r2 = Serve.compile_file ~cache Serve.default_cfg ~file:"<warm>" src in
  Alcotest.(check bool) "warm run hits" true r2.Serve.r_hit;
  Alcotest.(check int)
    "no compile/phases spans opened by the warm run" before (pass_span_count ());
  Alcotest.(check int) "no new misses" misses (Obs.count "serve.misses");
  Alcotest.(check string)
    "warm serves the stored bytes" r1.Serve.r_image r2.Serve.r_image

let test_eviction_and_counters () =
  Obs.reset ();
  let cache = Cache.create ~capacity:1 () in
  let r1 = Serve.compile_file ~cache Serve.default_cfg ~file:"<a>" "(+ 1 1)" in
  let _r2 = Serve.compile_file ~cache Serve.default_cfg ~file:"<b>" "(+ 2 2)" in
  (* capacity 1: <b> evicted <a>, so <a> misses again *)
  let r3 = Serve.compile_file ~cache Serve.default_cfg ~file:"<a>" "(+ 1 1)" in
  Alcotest.(check bool) "evicted entry misses" false r3.Serve.r_hit;
  Alcotest.(check bool) "evictions counted" true (Obs.count "serve.evictions" >= 1);
  Alcotest.(check int) "all three cold runs missed" 3 (Obs.count "serve.misses");
  Alcotest.(check string)
    "re-compiled image is byte-identical" r1.Serve.r_image r3.Serve.r_image

let test_stale_disk_entry () =
  Obs.reset ();
  let dir = fresh_dir "stale" in
  let cache = Cache.create ~dir () in
  let src = "(+ 40 2)" in
  let r1 = Serve.compile_file ~cache Serve.default_cfg ~file:"<s>" src in
  Alcotest.(check bool) "image on disk" true (r1.Serve.r_image <> "");
  (* overwrite the stored blob with a well-formed envelope from an older
     schema: genuine staleness, so it is deleted (not quarantined) and a
     fresh cache (cold memory) recompiles *)
  let path = Filename.concat dir (r1.Serve.r_key ^ ".image") in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        "{\"schema\":\"s1lisp.image/0\",\"checksum\":\"x\",\"payload\":\"y\"}");
  let cache2 = Cache.create ~dir () in
  let r2 = Serve.compile_file ~cache:cache2 Serve.default_cfg ~file:"<s>" src in
  Alcotest.(check bool) "stale blob is not served" false r2.Serve.r_hit;
  Alcotest.(check int) "stale counted" 1 (Obs.count "serve.stale");
  Alcotest.(check int) "stale is not quarantine" 0 (Obs.count "serve.quarantined");
  Alcotest.(check bool)
    "stale blob deleted, not quarantined" false
    (Sys.file_exists (Filename.concat (Filename.concat dir "quarantine")
                        (r1.Serve.r_key ^ ".image")));
  Alcotest.(check string)
    "recompiled to identical bytes" r1.Serve.r_image r2.Serve.r_image

(* A hit hands back the image the cache verified together with its
   bytes, from disk (a fresh instance's memory is empty) and from
   memory (the disk blob is gone by then). *)
let test_lookup_hands_back_verified_image () =
  let dir = fresh_dir "lookup" in
  let cache = Cache.create ~dir () in
  let cold = Serve.compile_file ~cache Serve.default_cfg ~file:"<l>" sample_src in
  let k = cold.Serve.r_key in
  let check_hit what = function
    | Some (bytes, img) ->
        Alcotest.(check string) (what ^ ": the cold image's bytes")
          cold.Serve.r_image bytes;
        Alcotest.(check string) (what ^ ": the image saves to those bytes")
          bytes (Image.save img)
    | None -> Alcotest.failf "%s: lookup missed" what
  in
  let cache2 = Cache.create ~dir () in
  check_hit "disk hit" (Cache.lookup ~file:"<l>" cache2 k);
  Sys.remove (Option.get (Cache.blob_path cache2 k));
  check_hit "memory hit" (Cache.lookup ~file:"<l>" cache2 k)

(* DEFMACRO through the cache: the cold run pays for the compile-time
   expander calls on the simulated machine; the warm replay must not.
   Pin the direction of the delta and the determinism of both sides. *)
let test_defmacro_warm_cycle_delta () =
  let file = Filename.concat corpus_dir "defmacro-warm-expand.lisp" in
  let src = read_file file in
  let dir = fresh_dir "defmacro" in
  let cache = Cache.create ~dir () in
  let cold, cold_obs = run_serve ~cache src ~file in
  Alcotest.(check bool) "cold run misses" false cold.Serve.r_hit;
  let cache2 = Cache.create ~dir () in
  let warm, warm_obs = run_serve ~cache:cache2 src ~file in
  Alcotest.(check bool) "warm run hits" true warm.Serve.r_hit;
  Alcotest.(check string) "same value" cold_obs.value warm_obs.value;
  Alcotest.(check bool)
    (Printf.sprintf "warm (%d cycles) strictly below cold (%d cycles)"
       warm_obs.cycles cold_obs.cycles)
    true
    (warm_obs.cycles < cold_obs.cycles);
  (* the delta is exactly the expander work: a second warm replay costs
     the same, so the saving is deterministic, not scheduling noise *)
  let cache3 = Cache.create ~dir () in
  let warm2, warm2_obs = run_serve ~cache:cache3 src ~file in
  Alcotest.(check bool) "second warm run hits" true warm2.Serve.r_hit;
  Alcotest.(check int) "warm cycles deterministic" warm_obs.cycles
    warm2_obs.cycles

(* Instance scoping ----------------------------------------------------------- *)

let test_pass_hook_instance_scoped () =
  let fired1 = ref 0 and fired2 = ref 0 in
  let c1 = C.create () and c2 = C.create () in
  c1.C.pass_hook <- (fun _ _ -> incr fired1);
  c2.C.pass_hook <- (fun _ _ -> incr fired2);
  ignore (C.eval_string c1 "(DEFUN F (X) (+ X 1))");
  Alcotest.(check bool) "armed instance fires" true (!fired1 > 0);
  Alcotest.(check int) "other instance silent" 0 !fired2;
  let before = !fired1 in
  ignore (C.eval_string c2 "(DEFUN G (X) (+ X 2))");
  Alcotest.(check int) "first instance unaffected by second" before !fired1;
  Alcotest.(check bool) "second instance fires its own" true (!fired2 > 0)

let test_macro_tables_instance_scoped () =
  let c1 = C.create () and c2 = C.create () in
  ignore (C.eval_string c1 "(DEFMACRO M (X) (LIST (QUOTE +) X 100))");
  Alcotest.(check string) "macro visible in its instance" "107"
    (C.eval_print c1 (Reader.parse_string "(M 7)"));
  (* in c2, M is not a macro: (M 7) is an undefined-function call *)
  (match C.eval_print c2 (Reader.parse_string "(M 7)") with
  | v -> Alcotest.failf "macro leaked across instances: got %s" v
  | exception _ -> ())

(* Batch ---------------------------------------------------------------------- *)

(* The service results of a supervised batch, in input order. *)
let batch ?cache ~jobs files : Serve.result list =
  List.map
    (fun s -> s.Sup.s_result)
    (Sup.batch ?cache ~jobs Serve.default_cfg files).Sup.b_results

let batch_fingerprint (rs : Serve.result list) : (string * string * string) list
    =
  List.map
    (fun (r : Serve.result) ->
      (r.Serve.r_file, r.Serve.r_key, Digest.string r.Serve.r_image))
    rs

let test_batch_parallel_matches_sequential () =
  let files =
    List.map (Filename.concat corpus_dir) (corpus_files ())
  in
  let run jobs = (Sup.batch ~jobs Serve.default_cfg files).Sup.b_results in
  let seq = run 1 and par = run 4 in
  let results = List.map (fun s -> s.Sup.s_result) in
  Alcotest.(check (list (triple string string string)))
    "-j 4 produces byte-identical images in input order"
    (batch_fingerprint (results seq)) (batch_fingerprint (results par));
  List.iter2
    (fun (s : Sup.sup_result) (p : Sup.sup_result) ->
      let file = s.Sup.s_result.Serve.r_file in
      Alcotest.(check string)
        (file ^ ": same outcome")
        (S1_fuzz.Oracle.outcome_string s.Sup.s_result.Serve.r_outcome)
        (S1_fuzz.Oracle.outcome_string p.Sup.s_result.Serve.r_outcome);
      Alcotest.(check (list (pair string int)))
        (file ^ ": same counter delta")
        s.Sup.s_counters p.Sup.s_counters)
    seq par

let test_batch_warm_over_shared_cache () =
  Obs.reset ();
  (* workers reset their own registries per unit; the caller's keeps
     what it had *)
  Obs.incr ~n:7 "test.caller_own";
  let dir = fresh_dir "batchcache" in
  let files = List.map (Filename.concat corpus_dir) (corpus_files ()) in
  let cache = Cache.create ~dir ~capacity:4 () in
  let cold = batch ~cache ~jobs:4 files in
  List.iter
    (fun (r : Serve.result) ->
      Alcotest.(check bool) (r.Serve.r_file ^ ": cold miss") false r.Serve.r_hit)
    cold;
  (* tiny memory capacity forces the warm run through the disk store *)
  let cache2 = Cache.create ~dir ~capacity:4 () in
  let warm = batch ~cache:cache2 ~jobs:4 files in
  List.iter2
    (fun (c : Serve.result) (w : Serve.result) ->
      Alcotest.(check bool) (w.Serve.r_file ^ ": warm hit") true w.Serve.r_hit;
      Alcotest.(check string)
        (w.Serve.r_file ^ ": identical bytes")
        c.Serve.r_image w.Serve.r_image)
    cold warm;
  (* merged counters: the calling domain saw every worker's hits *)
  Alcotest.(check int)
    "all warm lookups hit" (List.length files) (Obs.count "serve.hits");
  Alcotest.(check int)
    "caller's own counter untouched by the batch" 7 (Obs.count "test.caller_own")

(* World lifecycle -------------------------------------------------------------- *)

(* A world is an ordinary value: once its owner is dropped, nothing in
   the process may keep it (and its simulated memory) alive.  Each
   helper builds a world out of line and returns only a weak pointer to
   its runtime. *)

let weakly (rt : Rt.t) =
  let w = Weak.create 1 in
  Weak.set w 0 (Some rt);
  w

let expect_collected what w =
  Gc.full_major ();
  Alcotest.(check bool) (what ^ ": world collected") false (Weak.check w 0)

let[@inline never] compiler_world () =
  let c = C.create () in
  ignore (C.eval_string c sample_src);
  weakly c.C.rt

let[@inline never] interp_world () =
  let w = ref None in
  let outcome =
    S1_fuzz.Oracle.run_interp
      ~prepare:(fun it -> w := Some (weakly it.S1_interp.Interp.rt))
      (Reader.parse_string sample_src)
  in
  (match outcome with
  | S1_fuzz.Oracle.Value _ -> ()
  | _ -> Alcotest.fail "interpreter run failed");
  Option.get !w

let[@inline never] serve_world () =
  let w = ref None in
  let r =
    Serve.compile_file
      ~prepare:(fun c -> w := Some (weakly c.C.rt))
      Serve.default_cfg ~file:"<test>" sample_src
  in
  Alcotest.(check bool) "unit compiled" true (r.Serve.r_exec <> None);
  Option.get !w

let test_world_dies_with_compiler () =
  expect_collected "Compiler.create" (compiler_world ())

let test_world_dies_with_interp_run () =
  expect_collected "Oracle.run_interp" (interp_world ())

let test_world_dies_with_unit () =
  expect_collected "Serve.compile_file" (serve_world ())

(* Serve fuzz (small smoke; CI runs the full 200) ----------------------------- *)

let test_fuzz_smoke () =
  let report = Serve.fuzz ~seed:42 ~count:10 () in
  (match report.Serve.f_failures with
  | [] -> ()
  | _ -> Alcotest.fail (Serve.fuzz_summary report));
  Alcotest.(check bool) "some warm hits happened" true (report.Serve.f_hits > 0)

let () =
  Alcotest.run "serve"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "corpus cold/warm equivalence" `Slow
            test_corpus_round_trip;
          Alcotest.test_case "bytes deterministic" `Quick
            test_image_bytes_deterministic;
          Alcotest.test_case "structural round trip" `Quick
            test_image_round_trips_structurally;
          Alcotest.test_case "action kinds" `Quick test_actions_cover_form_kinds;
          Alcotest.test_case "proclaim replays exactly" `Quick
            test_proclaim_replays_exactly;
          Alcotest.test_case "listing_of reports its unit" `Quick
            test_listing_of_reports_its_unit;
        ] );
      ( "loader",
        [
          Alcotest.test_case "rejects garbage" `Quick test_loader_rejects_garbage;
          Alcotest.test_case "rejects wrong schema" `Quick
            test_loader_rejects_wrong_schema;
          Alcotest.test_case "rejects corruption" `Quick
            test_loader_rejects_corruption;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "world dies with its compiler" `Quick
            test_world_dies_with_compiler;
          Alcotest.test_case "world dies with its interpreter run" `Quick
            test_world_dies_with_interp_run;
          Alcotest.test_case "world dies with its unit" `Quick
            test_world_dies_with_unit;
        ] );
      ( "keys",
        [
          Alcotest.test_case "sensitive to every flag" `Quick
            test_key_sensitive_to_flags;
          Alcotest.test_case "sensitive to source" `Quick
            test_key_sensitive_to_source;
          Alcotest.test_case "sensitive to schema" `Quick
            test_key_sensitive_to_schema;
          Alcotest.test_case "stable on identical input" `Quick test_key_stable;
        ] );
      ( "cache",
        [
          Alcotest.test_case "warm hit runs zero passes" `Quick
            test_warm_hit_runs_zero_passes;
          Alcotest.test_case "eviction and counters" `Quick
            test_eviction_and_counters;
          Alcotest.test_case "stale disk entry" `Quick test_stale_disk_entry;
          Alcotest.test_case "lookup hands back the verified image" `Quick
            test_lookup_hands_back_verified_image;
          Alcotest.test_case "defmacro warm cycle delta" `Quick
            test_defmacro_warm_cycle_delta;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "pass hook per instance" `Quick
            test_pass_hook_instance_scoped;
          Alcotest.test_case "macro tables per instance" `Quick
            test_macro_tables_instance_scoped;
        ] );
      ( "batch",
        [
          Alcotest.test_case "-j1 = -j4" `Slow test_batch_parallel_matches_sequential;
          Alcotest.test_case "warm over shared cache" `Slow
            test_batch_warm_over_shared_cache;
        ] );
      ("fuzz", [ Alcotest.test_case "cache oracle smoke" `Slow test_fuzz_smoke ]);
    ]
