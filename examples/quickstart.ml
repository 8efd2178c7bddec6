(* Quickstart: boot a Lisp world, compile functions, run them, and look
   at what the compiler did.

   Run with:  dune exec examples/quickstart.exe *)

module C = S1_core.Compiler
module Reader = S1_sexp.Reader

let () =
  (* A compiler owns a live Lisp world: a simulated S-1 with its heap,
     standard library, and an interpreter sharing the same globals. *)
  let c = C.create () in
  let eval src = C.print_value c (C.eval_string c src) in

  print_endline "== evaluating through the compiler ==";
  List.iter
    (fun src -> Printf.printf "  %s\n    => %s\n" src (eval src))
    [
      "(+ 1 2 3)";
      "(let ((x 4) (y 5)) (* x y))";
      "'(a (b c) d)";
      "(/ 10 4)" (* exact rationals *);
      "(* 123456789123456789 987654321987654321)" (* bignums *);
    ];

  print_endline "\n== defining and calling compiled functions ==";
  ignore
    (C.eval_string c
       "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))");
  Printf.printf "  (fib 15) => %s\n" (eval "(fib 15)");

  (* The paper's tail-recursive exponentiation (§2): the self-calls
     compile to parameter-passing gotos, so the stack stays flat. *)
  ignore
    (C.eval_string c
       "(defun exptl (x n a)\n\
       \  (cond ((zerop n) a)\n\
       \        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))\n\
       \        (t (exptl (* x x) (floor n 2) a))))");
  Printf.printf "  (exptl 3 40 1) => %s\n" (eval "(exptl 3 40 1)");

  print_endline "\n== closures are first-class compiled objects ==";
  ignore (C.eval_string c "(defun make-adder (n) (lambda (x) (+ x n)))");
  Printf.printf "  (funcall (make-adder 5) 10) => %s\n" (eval "(funcall (make-adder 5) 10)");

  print_endline "\n== inspecting the compiler ==";
  print_endline "  Phase structure (the paper's Table 1):";
  List.iter (fun p -> Printf.printf "    - %s\n" p) C.phases;

  let listing, _, transcript =
    C.listing_of c (Reader.parse_one "(defun poly (x) (declare (single-float x)) (+$f (*$f x x) x 1.0))")
  in
  print_endline "\n  Optimizer transcript for (defun poly (x) ... (+$f (*$f x x) x 1.0)):";
  print_string (S1_obs.Remark.transcript transcript);
  print_endline "  Generated S-1 assembly:";
  String.split_on_char '\n' listing
  |> List.iter (fun l -> Printf.printf "    %s\n" l);

  let stats = c.C.rt.S1_runtime.Rt.cpu.S1_machine.Cpu.stats in
  Printf.printf "\n== simulator statistics for this session ==\n%s\n"
    (Format.asprintf "%a" S1_machine.Cpu.pp_stats stats)
