(** The source-level optimizer driver (paper §4.2).

    "The next two phases (source-program analysis and source-level
    optimization) are actually executed in a complicated co-routining
    manner for efficiency.  Conceptually the analysis is performed first
    and the results made available to the optimizer.  However,
    optimization can alter the program, requiring re-analysis."

    We run to a fixpoint: one sweep applies every enabled rule at every
    node (bottom-up, so inner redexes simplify first); any firing
    triggers re-analysis before the next sweep.  A sweep bound guards
    against rule cycles (the paper avoids its introduction/elimination
    thrashing the same way, by structural separation). *)

open S1_ir
open Node

let max_sweeps = 60

let sweep (cfg : Rules.config) (root : node) : bool =
  let changed = ref false in
  let rec visit n =
    List.iter visit (children n);
    (* provenance: nodes a rule creates while rewriting [n] inherit [n]'s
       source position *)
    Node.set_origin n.n_loc;
    List.iter
      (fun (_, rule) -> if rule cfg n then changed := true)
      Rules.all_rules
  in
  visit root;
  Node.set_origin None;
  !changed

let run ?(config = Rules.default_config) (root : node) : unit =
  S1_obs.Obs.with_span "simplify" (fun () ->
      let continue_ = ref true in
      let sweeps = ref 0 in
      while !continue_ && !sweeps < max_sweeps do
        incr sweeps;
        S1_obs.Obs.incr "simplify.sweeps";
        S1_analysis.Analyze.refresh root;
        continue_ := sweep config root
      done;
      (* leave the tree fully analyzed for the machine-dependent phases *)
      S1_analysis.Analyze.refresh root)
