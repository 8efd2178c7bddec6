(* Tests for the S-1 machine model: words, floats, assembler, simulator. *)

open S1_machine

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

(* Word arithmetic ------------------------------------------------------- *)

let test_word_wrap () =
  check_int "add wraps" 0 (Word.add Word.mask 1 |> Word.to_signed);
  check_int "sub wraps" (-1) (Word.to_signed (Word.sub 0 1));
  check_int "neg" (-5) (Word.to_signed (Word.neg (Word.of_int 5)));
  check_int "mul" 391 (Word.to_signed (Word.mul (Word.of_int 17) (Word.of_int 23)));
  check_int "mul negative" (-391)
    (Word.to_signed (Word.mul (Word.of_int (-17)) (Word.of_int 23)))

let test_word_tags () =
  let w = Word.make_ptr ~tag:13 ~addr:12345 in
  check_int "tag" 13 (Word.tag_of w);
  check_int "addr" 12345 (Word.addr_of w);
  (* negative immediate datum *)
  let w2 = Word.make_ptr ~tag:9 ~addr:(-42 land Word.addr_mask) in
  check_int "signed datum" (-42) (Word.datum_signed w2);
  check_int "tag preserved" 9 (Word.tag_of w2)

let test_word_shift () =
  check_int "left" 8 (Word.to_signed (Word.shift (Word.of_int 1) 3));
  check_int "right arithmetic" (-2) (Word.to_signed (Word.shift (Word.of_int (-8)) (-2)))

let prop_word_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"to_signed/of_int round trip"
    QCheck2.Gen.(int_range (-(1 lsl 35)) ((1 lsl 35) - 1))
    (fun n -> Word.to_signed (Word.of_int n) = n)

(* Floats ----------------------------------------------------------------- *)

let test_float36_exact () =
  (* Small integers and simple dyadic fractions are exact in SWFLO. *)
  List.iter
    (fun f -> check_float (Printf.sprintf "%g exact" f) f (Float36.single_of_float f))
    [ 0.0; 1.0; -1.0; 2.0; 0.5; -0.25; 3.0; 1024.0; 0.125; 345.5; -1000.0 ]

let test_float36_rounding () =
  (* 26-bit fraction: relative error bounded by 2^-27. *)
  let f = 0.1 in
  let g = Float36.single_of_float f in
  Alcotest.(check bool) "0.1 close" true (Float.abs (g -. f) /. f < 1e-7);
  Alcotest.(check bool) "idempotent" true (Float36.single_of_float g = g)

let test_float36_specials () =
  Alcotest.(check bool) "inf" true
    (Float36.decode_single (Float36.encode_single Float.infinity) = Float.infinity);
  Alcotest.(check bool) "-inf" true
    (Float36.decode_single (Float36.encode_single Float.neg_infinity) = Float.neg_infinity);
  Alcotest.(check bool) "nan" true
    (Float.is_nan (Float36.decode_single (Float36.encode_single Float.nan)));
  Alcotest.(check bool) "overflow to inf" true
    (Float36.single_is_inf (Float36.encode_single 1e300));
  (* the format has a single zero: -0.0 encodes to the all-zero pattern,
     so the optimizer's associative/commutative reordering of float
     multiplies cannot change an observable zero sign *)
  check_float "negative zero" 0.0 (Float36.single_of_float (-0.0));
  Alcotest.(check int) "negative zero encoding" 0 (Float36.encode_single (-0.0));
  Alcotest.(check bool) "negative zero sign erased" false
    (Float.sign_bit (Float36.single_of_float (-0.0)))

let test_float36_double () =
  List.iter
    (fun f ->
      check_float
        (Printf.sprintf "double %g" f)
        f
        (Float36.decode_double (Float36.encode_double f)))
    [ 0.0; 1.0; -1.5; 3.14159265358979; 1e100; -2.2e-200 ]

let prop_float36_monotone =
  (* encode/decode is monotone over moderate floats *)
  QCheck2.Test.make ~count:500 ~name:"float36 ordering preserved"
    QCheck2.Gen.(pair (float_bound_inclusive 1e6) (float_bound_inclusive 1e6))
    (fun (a, b) ->
      let a' = Float36.single_of_float a and b' = Float36.single_of_float b in
      if a <= b then a' <= b' else a' >= b')

let prop_float36_relative_error =
  QCheck2.Test.make ~count:1000 ~name:"float36 relative error < 2^-26"
    QCheck2.Gen.(float_range 1e-10 1e10)
    (fun f ->
      let g = Float36.single_of_float f in
      Float.abs (g -. f) <= Float.abs f *. (1.0 /. Float.ldexp 1.0 26))

(* Assembler --------------------------------------------------------------- *)

let test_asm_labels () =
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "START";
          Instr (Isa.Mov (Isa.Reg 0, Isa.Imm 7));
          Instr (Isa.Jmpa (Isa.L "DONE"));
          Instr (Isa.Mov (Isa.Reg 0, Isa.Imm 99));
          Label "DONE";
          Instr Isa.Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "START");
  check_int "skipped the second store" 7 (Cpu.get_reg cpu 0)

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_asm_undefined_label () =
  let cpu = Cpu.create () in
  match Cpu.load cpu Asm.[ Instr (Isa.Jmpa (Isa.L "NOWHERE")) ] with
  | exception Asm.Asm_error msgs ->
      Alcotest.(check bool) "mentions label" true
        (List.exists (fun m -> string_contains m "NOWHERE") msgs)
  | _ -> Alcotest.fail "expected Asm_error"

let test_asm_validates_25_address () =
  let cpu = Cpu.create () in
  (* Three distinct operands, none RT: illegal. *)
  let bad = Isa.Bin (Isa.ADD, Isa.S, Isa.Reg 1, Isa.Reg 2, Isa.Reg 3) in
  (match Cpu.load cpu Asm.[ Instr bad ] with
  | exception Asm.Asm_error _ -> ()
  | _ -> Alcotest.fail "expected 2.5-address violation");
  (* Same with RTA destination: legal. *)
  let ok = Isa.Bin (Isa.ADD, Isa.S, Isa.Reg Isa.rta, Isa.Reg 2, Isa.Reg 3) in
  let cpu2 = Cpu.create () in
  ignore (Cpu.load cpu2 Asm.[ Instr ok; Instr Isa.Halt ]);
  (* dst = s1 is also legal *)
  let ok2 = Isa.Bin (Isa.ADD, Isa.S, Isa.Reg 1, Isa.Reg 1, Isa.Reg 3) in
  ignore (Cpu.load cpu2 Asm.[ Instr ok2; Instr Isa.Halt ])

let test_asm_data_blocks () =
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          Data ("TBL", [ Word 10; Word 20; Word 30 ]);
          Label "GO";
          Instr (Isa.Mov (Isa.Reg Isa.t2, Isa.Dlab ("TBL", 0)));
          Instr (Isa.Mov (Isa.Reg 0, Isa.Idx { base = Isa.t2; disp = 0; index = Isa.rta; shift = 0 }));
          Instr Isa.Halt;
        ]
  in
  Cpu.set_reg cpu Isa.rta 2;
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_int "indexed read of data block" 30 (Cpu.get_reg cpu 0)

(* CPU execution ------------------------------------------------------------ *)

let run_program ?(setup = fun _ -> ()) prog =
  let cpu = Cpu.create () in
  let image = Cpu.load cpu Asm.(List.map (fun i -> Instr i) prog @ [ Instr Isa.Halt ]) in
  setup cpu;
  Cpu.run cpu ~at:image.org;
  cpu

let test_cpu_arith () =
  let open Isa in
  let cpu =
    run_program
      [
        Mov (Reg 0, Imm 10);
        Mov (Reg 1, Imm 3);
        Bin (ADD, S, Reg rta, Reg 0, Reg 1);
        Bin (SUB, S, Reg rtb, Reg 0, Reg 1);
        Bin (MULT, S, Reg 2, Reg 2, Reg 0) (* 0 * 10 = 0 *);
        Bin (DIV Floor, S, Reg 3, Reg rta, Reg 1) (* 13/3 floor = 4 *);
      ]
  in
  check_int "add" 13 (Cpu.get_reg cpu Isa.rta);
  check_int "sub" 7 (Cpu.get_reg cpu Isa.rtb);
  check_int "mul" 0 (Cpu.get_reg cpu 2);
  check_int "div floor" 4 (Cpu.get_reg cpu 3)

let test_cpu_div_roundings () =
  let open Isa in
  let check_div rounding a b expect =
    let cpu =
      run_program
        [
          Mov (Reg 0, Imm (Word.of_int a));
          Mov (Reg 1, Imm (Word.of_int b));
          Bin (DIV rounding, S, Reg rta, Reg 0, Reg 1);
        ]
    in
    check_int
      (Printf.sprintf "%d/%d" a b)
      expect
      (Word.to_signed (Cpu.get_reg cpu Isa.rta))
  in
  check_div Floor 7 2 3;
  check_div Floor (-7) 2 (-4);
  check_div Ceiling 7 2 4;
  check_div Ceiling (-7) 2 (-3);
  check_div Truncate (-7) 2 (-3);
  check_div Round 7 2 4 (* ties to even: 3.5 -> 4 *);
  check_div Round 5 2 2 (* 2.5 -> 2 *)

let test_cpu_float () =
  let open Isa in
  let f = Float36.encode_single in
  let cpu =
    run_program
      [
        Mov (Reg 0, Imm (f 1.5));
        Mov (Reg 1, Imm (f 2.25));
        Bin (FADD, S, Reg rta, Reg 0, Reg 1);
        Bin (FMULT, S, Reg rtb, Reg 0, Reg 1);
        Un (FSQRT, S, Reg 2, Reg 1);
        Un (FSIN, S, Reg 3, Imm (f 0.25)) (* sin of a quarter cycle = 1 *);
      ]
  in
  check_float "fadd" 3.75 (Float36.decode_single (Cpu.get_reg cpu Isa.rta));
  check_float "fmult" 3.375 (Float36.decode_single (Cpu.get_reg cpu Isa.rtb));
  check_float "fsqrt" 1.5 (Float36.decode_single (Cpu.get_reg cpu 2));
  Alcotest.(check (float 1e-6)) "fsin cycles" 1.0 (Float36.decode_single (Cpu.get_reg cpu 3))

let test_cpu_jumps () =
  let open Isa in
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "START";
          Instr (Mov (Reg 0, Imm 0));
          Instr (Mov (Reg 1, Imm 10));
          Label "LOOP";
          Instr (Jmp (GEQ, Reg 0, Reg 1, L "OUT"));
          Instr (Bin (ADD, S, Reg 0, Reg 0, Imm 1));
          Instr (Jmpa (L "LOOP"));
          Label "OUT";
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "START");
  check_int "loop counted to 10" 10 (Cpu.get_reg cpu 0)

let test_cpu_memory_operands () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let base = Mem.static_base mem + 100 in
  Mem.write mem base 111;
  Mem.write mem (base + 1) 222;
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "GO";
          Instr (Mov (Reg 5, Imm base));
          Instr (Mov (Reg 0, Ind (5, 0)));
          Instr (Mov (Reg 1, Ind (5, 1)));
          (* deref through a tagged pointer in a register *)
          Instr (Mov (Reg 7, Imm (Word.make_ptr ~tag:(Tags.to_int Tags.Single_flonum) ~addr:base)));
          Instr (Mov (Reg 2, Defreg (7, 1)));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_int "ind 0" 111 (Cpu.get_reg cpu 0);
  check_int "ind 1" 222 (Cpu.get_reg cpu 1);
  check_int "defreg deref" 222 (Cpu.get_reg cpu 2)

let test_cpu_push_pop () =
  let open Isa in
  let cpu =
    run_program [ Push (Imm 5); Push (Imm 6); Pop (Reg 0); Pop (Reg 1) ]
  in
  check_int "pop order" 6 (Cpu.get_reg cpu 0);
  check_int "pop order 2" 5 (Cpu.get_reg cpu 1);
  Alcotest.(check bool) "stack high water" true (cpu.Cpu.stats.Cpu.stack_high >= 2)

let test_cpu_movp_and_tags () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let base = Mem.static_base mem + 50 in
  Mem.write mem base 777;
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "GO";
          Instr (Mov (Reg 5, Imm base));
          Instr (Movp (Tags.Single_flonum, Reg 0, Ind (5, 0)));
          Instr (Gettag (Reg 1, Reg 0));
          Instr (Getaddr (Reg 2, Reg 0));
          Instr (Mov (Reg 3, Defreg (0, 0)));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_int "tag" (Tags.to_int Tags.Single_flonum) (Cpu.get_reg cpu 1);
  check_int "addr" base (Cpu.get_reg cpu 2);
  check_int "deref" 777 (Cpu.get_reg cpu 3)

(* Calls -------------------------------------------------------------------- *)

(* Build a callable function word: a one-word code object whose payload is
   the raw entry address. *)
let make_fobj cpu entry =
  let a = Mem.alloc_static cpu.Cpu.mem 1 in
  Mem.write cpu.Cpu.mem a entry;
  Word.make_ptr ~tag:(Tags.to_int Tags.Code) ~addr:a


let test_cpu_call_ret () =
  let open Isa in
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          (* double(x) = x + x, args are raw ints for this test *)
          Label "DOUBLE";
          Instr (Mov (Reg a, Ind (fp, -5))) (* arg 1 of a 1-arg frame: FP-5-1+1 *);
          Instr (Bin (ADD, S, Reg a, Reg a, Reg a));
          Instr Ret;
        ]
  in
  let entry = Cpu.label_addr image "DOUBLE" in
  let fobj = make_fobj cpu entry in
  let result = Cpu.call_function cpu ~fobj ~args:[ 21 ] in
  check_int "double(21)" 42 result;
  (* stack fully popped *)
  check_int "sp restored" (Mem.stack_base cpu.Cpu.mem) (Cpu.get_reg cpu sp)

let test_cpu_tail_call_constant_stack () =
  let open Isa in
  (* countdown(n) = if n = 0 then 0 else countdown(n-1), via TCALL *)
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "COUNTDOWN";
          Instr (Mov (Reg 0, Ind (fp, -5)));
          Instr (Jmpz (EQ, Reg 0, L "BASE"));
          Instr (Bin (SUB, S, Reg 0, Reg 0, Imm 1));
          Instr (Push (Reg 0));
          Instr (Tcall (Reg 9, 1));
          Label "BASE";
          Instr (Mov (Reg a, Imm 0));
          Instr Ret;
        ]
  in
  let entry = Cpu.label_addr image "COUNTDOWN" in
  let fobj = make_fobj cpu entry in
  Cpu.set_reg cpu 9 fobj;
  let result = Cpu.call_function cpu ~fobj ~args:[ 10000 ] in
  check_int "countdown result" 0 result;
  Alcotest.(check bool) "stack stayed O(1)" true (cpu.Cpu.stats.Cpu.stack_high < 32);
  check_int "10000 tail calls" 10000 cpu.Cpu.stats.Cpu.tcalls

let test_cpu_call_closure () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let image =
    Cpu.load cpu
      Asm.
        [
          (* return the env word *)
          Label "GETENV";
          Instr (Mov (Reg a, Reg env));
          Instr Ret;
        ]
  in
  let entry = Cpu.label_addr image "GETENV" in
  (* Build a closure object in static space: [code-word, env-word]. *)
  let code_word = make_fobj cpu entry in
  let caddr = Mem.alloc_static mem 2 in
  Mem.write mem caddr code_word;
  Mem.write mem (caddr + 1) 424242;
  let fobj = Word.make_ptr ~tag:(Tags.to_int Tags.Closure) ~addr:caddr in
  let result = Cpu.call_function cpu ~fobj ~args:[] in
  check_int "closure env loaded" 424242 result

let test_cpu_stats_movs () =
  let open Isa in
  let cpu = run_program [ Mov (Reg 0, Imm 1); Mov (Reg 1, Imm 2); Nop ] in
  check_int "mov count" 2 cpu.Cpu.stats.Cpu.movs;
  Alcotest.(check bool) "cycles counted" true (cpu.Cpu.stats.Cpu.cycles > 0)

let test_cpu_vector () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let va = Mem.alloc_static mem 3 and vb = Mem.alloc_static mem 3 in
  List.iteri (fun i f -> Mem.write mem (va + i) (Float36.encode_single f)) [ 1.0; 2.0; 3.0 ];
  List.iteri (fun i f -> Mem.write mem (vb + i) (Float36.encode_single f)) [ 4.0; 5.0; 6.0 ];
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "GO";
          Instr (Vdot (Reg 0, Imm va, Imm vb, Imm 3));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_float "dot product" 32.0 (Float36.decode_single (Cpu.get_reg cpu 0))

(* Additional instruction coverage ---------------------------------------- *)

let test_cpu_datum_and_settag () =
  let open Isa in
  let fx n = Word.make_ptr ~tag:(Tags.to_int Tags.Fixnum) ~addr:(n land Word.addr_mask) in
  let cpu =
    run_program
      [
        Mov (Reg 0, Imm (fx (-42)));
        Un (DATUM, S, Reg 1, Reg 0) (* untag: sign-extended -42 *);
        Mov (Reg 2, Imm (Word.of_int 99));
        Settag (Tags.Fixnum, Reg 2) (* retag raw 99 as a fixnum *);
      ]
  in
  check_int "datum sign-extends" (-42) (Word.to_signed (Cpu.get_reg cpu 1));
  check_int "settag tag" (Tags.to_int Tags.Fixnum) (Word.tag_of (Cpu.get_reg cpu 2));
  check_int "settag datum" 99 (Word.datum_signed (Cpu.get_reg cpu 2))

let test_cpu_fix_float_conversions () =
  let open Isa in
  let f = Float36.encode_single in
  let cpu =
    run_program
      [
        Un (FLOAT, S, Reg 0, Imm (Word.of_int 7));
        Un (FIX Floor, S, Reg 1, Imm (f 2.9));
        Un (FIX Ceiling, S, Reg 2, Imm (f 2.1));
        Un (FIX Truncate, S, Reg 3, Imm (f (-2.9)));
        Un (FIX Round, S, Reg 5, Imm (f 2.5));
      ]
  in
  check_float "float" 7.0 (Float36.decode_single (Cpu.get_reg cpu 0));
  check_int "fix floor" 2 (Word.to_signed (Cpu.get_reg cpu 1));
  check_int "fix ceiling" 3 (Word.to_signed (Cpu.get_reg cpu 2));
  check_int "fix truncate" (-2) (Word.to_signed (Cpu.get_reg cpu 3));
  check_int "fix round ties-even" 2 (Word.to_signed (Cpu.get_reg cpu 5))

let test_cpu_double_width () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let a = Mem.alloc_static mem 2 and b = Mem.alloc_static mem 2 and z = Mem.alloc_static mem 2 in
  let wr addr f =
    let hi, lo = Float36.encode_double f in
    Mem.write mem addr hi;
    Mem.write mem (addr + 1) lo
  in
  wr a 3.141592653589793;
  wr b 2.718281828459045;
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "GO";
          Instr (Mov (Reg 10, Imm a));
          Instr (Mov (Reg 11, Imm b));
          Instr (Mov (Reg 12, Imm z));
          Instr (Bin (FMULT, D, Reg rta, Ind (10, 0), Ind (11, 0)));
          Instr (Mov (Ind (12, 0), Reg rta));
          Instr (Mov (Ind (12, 1), Reg (rta + 1)));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  Alcotest.(check (float 1e-12)) "double multiply"
    (3.141592653589793 *. 2.718281828459045)
    (Float36.decode_double (Mem.read mem z, Mem.read mem (z + 1)))

let test_cpu_mabs_and_jmptag () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let cell = Mem.alloc_static mem 1 in
  Mem.write mem cell (Word.make_ptr ~tag:(Tags.to_int Tags.Symbol) ~addr:77);
  let image =
    Cpu.load cpu
      Asm.
        [
          Label "GO";
          Instr (Mov (Reg 0, Mabs cell));
          Instr (Jmptag (EQ, Reg 0, Tags.Symbol, L "YES"));
          Instr (Mov (Reg 1, Imm 0));
          Instr Halt;
          Label "YES";
          Instr (Mov (Reg 1, Imm 1));
          Instr Halt;
        ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  check_int "mabs read + tag dispatch" 1 (Cpu.get_reg cpu 1);
  (* Mabs is also writable *)
  let image2 =
    Cpu.load cpu Asm.[ Label "W"; Instr (Mov (Mabs cell, Imm 123)); Instr Halt ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image2 "W");
  check_int "mabs write" 123 (Mem.read mem cell)

let test_cpu_vadd () =
  let open Isa in
  let cpu = Cpu.create () in
  let mem = cpu.Cpu.mem in
  let va = Mem.alloc_static mem 4 and vb = Mem.alloc_static mem 4 and vz = Mem.alloc_static mem 4 in
  List.iteri (fun i f -> Mem.write mem (va + i) (Float36.encode_single f)) [ 1.; 2.; 3.; 4. ];
  List.iteri (fun i f -> Mem.write mem (vb + i) (Float36.encode_single f)) [ 10.; 20.; 30.; 40. ];
  let image =
    Cpu.load cpu
      Asm.[ Label "GO"; Instr (Vadd (Imm vz, Imm va, Imm vb, Imm 4)); Instr Halt ]
  in
  Cpu.run cpu ~at:(Cpu.label_addr image "GO");
  List.iteri
    (fun i expect ->
      check_float (Printf.sprintf "vadd[%d]" i) expect
        (Float36.decode_single (Mem.read mem (vz + i))))
    [ 11.; 22.; 33.; 44. ]

let test_cpu_stack_overflow_fault () =
  let open Isa in
  let cpu = Cpu.create () in
  let image =
    Cpu.load cpu
      Asm.[ Label "GO"; Label "LOOP"; Instr (Push (Imm 1)); Instr (Jmpa (L "LOOP")) ]
  in
  match Cpu.run cpu ~at:(Cpu.label_addr image "GO") with
  | exception Cpu.Trap { kind; message; _ } ->
      Alcotest.(check bool) "overflow kind" true (kind = Cpu.Control_stack_overflow);
      Alcotest.(check bool) "overflow reported" true
        (string_contains message "stack overflow")
  | () -> Alcotest.fail "expected stack overflow fault"

(* Trap parity: each machine fault traps with the same kind, pc and
   message — and leaves the same statistics — whether or not the
   observer (profile and shadow call stack) runs. *)
let trap_of ~observe ?fuel ?deadline prog =
  let cpu = Cpu.create () in
  let image = Cpu.load cpu prog in
  if observe then begin
    Cpu.enable_profile cpu;
    Cpu.enable_callgraph cpu
  end;
  cpu.Cpu.deadline <- deadline;
  match Cpu.run ?fuel cpu ~at:(Cpu.label_addr image "GO") with
  | () -> Alcotest.fail "expected a trap"
  | exception Cpu.Trap { kind; pc; message; _ } ->
      let s = cpu.Cpu.stats in
      ( (Cpu.trap_kind_name kind, pc, message),
        [ s.Cpu.cycles; s.Cpu.instructions; s.Cpu.movs; s.Cpu.mem_traffic; s.Cpu.calls;
          s.Cpu.tcalls; s.Cpu.svcs; s.Cpu.stack_high; s.Cpu.bind_high ] )

let test_trap_parity () =
  let open Isa in
  let loop = Asm.[ Label "GO"; Instr (Jmpa (L "GO")) ] in
  List.iter
    (fun (what, expected, run) ->
      let plain, plain_stats = run ~observe:false in
      let observed, observed_stats = run ~observe:true in
      Alcotest.(check (triple string int string)) (what ^ ": unobserved") expected plain;
      Alcotest.(check (triple string int string)) (what ^ ": observed") expected observed;
      Alcotest.(check (list int)) (what ^ ": stats") plain_stats observed_stats)
    [
      ( "wild JMPI",
        ("bad-address", 99999, "pc out of code range"),
        trap_of Asm.[ Label "GO"; Instr (Mov (Reg 1, Imm 99999)); Instr (Jmpi (Reg 1)) ] );
      ( "memory read out of range",
        ("bad-address", 2, "memory read out of range: 50000000"),
        trap_of
          Asm.[ Label "GO"; Instr (Mov (Reg 1, Imm 7)); Instr (Mov (Reg 2, Mabs 50_000_000)) ] );
      ( "control-stack overflow",
        ("control-stack-overflow", 1, "control stack overflow"),
        trap_of Asm.[ Label "GO"; Instr (Push (Imm 1)); Instr (Jmpa (L "GO")) ] );
      ("fuel exhaustion", ("fuel-exhausted", 1, "fuel exhausted after 1000 cycles"), trap_of ~fuel:1000 loop);
      ( "deadline expiry",
        ("deadline-expired", 1, "watchdog cycle deadline expired"),
        trap_of ~deadline:500 loop );
    ]

let test_instruction_metrics () =
  let open Isa in
  (* sizes: 1-3 words; complex operands cost extension words *)
  Alcotest.(check int) "reg-reg mov is 1 word" 1 (words (Mov (Reg 0, Reg 1)));
  Alcotest.(check bool) "big immediate takes a word" true
    (words (Mov (Reg 0, Imm 100000)) >= 2);
  Alcotest.(check bool) "indexed operands cost more" true
    (words (Bin (FADD, S, Reg rta, Idx { base = 1; disp = 0; index = 2; shift = 0 },
                 Idx { base = 3; disp = 0; index = 4; shift = 0 }))
     = 3);
  Alcotest.(check bool) "fsin slower than fadd" true
    (base_cycles (Un (FSIN, S, Reg 0, Reg 0)) > base_cycles (Bin (FADD, S, Reg 0, Reg 0, Reg 1)));
  Alcotest.(check bool) "div slower than mult" true
    (base_cycles (Bin (DIV Floor, S, Reg 0, Reg 0, Reg 1))
     > base_cycles (Bin (MULT, S, Reg 0, Reg 0, Reg 1)))

let test_asm_listing_format () =
  let open Isa in
  let prog =
    Asm.
      [
        Label "L1";
        Comment "a comment";
        Instr (Bin (FADD, S, Reg rta, Defind (fp, -96, 0), Defind (fp, -100, 0)));
        Instr (Movp (Tags.Single_flonum, Reg 20, Ind (tp, 1)));
      ]
  in
  let text = Asm.listing prog in
  Alcotest.(check bool) "paper-style FADD" true
    (string_contains text "((FADD S) RTA (REF (FP -96) 0) (REF (FP -100) 0))");
  Alcotest.(check bool) "paper-style MOVP" true
    (string_contains text "((MOVP *:DTP-SINGLE-FLONUM) A (TP 1))");
  Alcotest.(check bool) "comment rendered" true (string_contains text ";a comment")

let () =
  Alcotest.run "machine"
    [
      ( "word",
        [
          Alcotest.test_case "wraparound" `Quick test_word_wrap;
          Alcotest.test_case "tags" `Quick test_word_tags;
          Alcotest.test_case "shift" `Quick test_word_shift;
          QCheck_alcotest.to_alcotest prop_word_roundtrip;
        ] );
      ( "float36",
        [
          Alcotest.test_case "exact values" `Quick test_float36_exact;
          Alcotest.test_case "rounding" `Quick test_float36_rounding;
          Alcotest.test_case "specials" `Quick test_float36_specials;
          Alcotest.test_case "double" `Quick test_float36_double;
          QCheck_alcotest.to_alcotest prop_float36_monotone;
          QCheck_alcotest.to_alcotest prop_float36_relative_error;
        ] );
      ( "asm",
        [
          Alcotest.test_case "labels" `Quick test_asm_labels;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "2.5-address discipline" `Quick test_asm_validates_25_address;
          Alcotest.test_case "data blocks" `Quick test_asm_data_blocks;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "arithmetic" `Quick test_cpu_arith;
          Alcotest.test_case "division roundings" `Quick test_cpu_div_roundings;
          Alcotest.test_case "floating point" `Quick test_cpu_float;
          Alcotest.test_case "jumps" `Quick test_cpu_jumps;
          Alcotest.test_case "memory operands" `Quick test_cpu_memory_operands;
          Alcotest.test_case "push/pop" `Quick test_cpu_push_pop;
          Alcotest.test_case "movp and tags" `Quick test_cpu_movp_and_tags;
          Alcotest.test_case "call/ret" `Quick test_cpu_call_ret;
          Alcotest.test_case "tail call constant stack" `Quick test_cpu_tail_call_constant_stack;
          Alcotest.test_case "closure call" `Quick test_cpu_call_closure;
          Alcotest.test_case "stats" `Quick test_cpu_stats_movs;
          Alcotest.test_case "vector dot" `Quick test_cpu_vector;
          Alcotest.test_case "datum and settag" `Quick test_cpu_datum_and_settag;
          Alcotest.test_case "fix/float conversions" `Quick test_cpu_fix_float_conversions;
          Alcotest.test_case "double width" `Quick test_cpu_double_width;
          Alcotest.test_case "mabs and jmptag" `Quick test_cpu_mabs_and_jmptag;
          Alcotest.test_case "vadd" `Quick test_cpu_vadd;
          Alcotest.test_case "trap parity" `Quick test_trap_parity;
          Alcotest.test_case "stack overflow fault" `Quick test_cpu_stack_overflow_fault;
          Alcotest.test_case "instruction metrics" `Quick test_instruction_metrics;
          Alcotest.test_case "listing format" `Quick test_asm_listing_format;
        ] );
    ]