(* VM semantics: per-instruction behaviour, trace contents, faults. *)

module I = Risc.Insn
module P = Asm.Program
module R = Risc.Reg

let run_items ?fuel ?(data = []) items =
  let prog =
    { P.procs = [ { P.name = "main"; body = items } ]; data; entry = "main" }
  in
  Vm.Exec.run ?fuel ~mem_words:4096 (P.resolve prog)

let run_insns ?fuel ?data insns =
  run_items ?fuel ?data (List.map (fun i -> P.Ins i) insns)

let rv_of outcome =
  match outcome.Vm.Exec.status with
  | Vm.Exec.Halted v -> v
  | Out_of_fuel -> Alcotest.fail "out of fuel"
  | Fault f ->
    Alcotest.fail
      (Format.asprintf "fault: %a" Pipeline_error.pp_fault f)

let check_rv name expected insns =
  Alcotest.(check int) name expected (rv_of (run_insns insns))

let test_arith () =
  check_rv "li+add" 12
    [ I.Li (2, 5); I.Alui (I.Add, 2, 2, 7); I.Halt ];
  check_rv "mul/div chain" 6
    [ I.Li (8, 20); I.Li (9, 3); I.Alu (I.Div, 2, 8, 9); I.Halt ];
  check_rv "slt" 1 [ I.Li (8, -5); I.Alui (I.Slt, 2, 8, 0); I.Halt ]

let test_memory () =
  check_rv "store/load roundtrip" 99
    [ I.Li (8, 99); I.Sw (8, R.zero, 100); I.Lw (2, R.zero, 100); I.Halt ];
  check_rv "indexed addressing" 7
    [ I.Li (8, 50); I.Li (9, 7); I.Sw (9, 8, 3); I.Lw (2, 8, 3); I.Halt ]

let test_float () =
  let outcome =
    run_insns
      [ I.Fli (1, 2.5); I.Fli (2, 4.0); I.Falu (I.Fmul, 3, 1, 2);
        I.F2i (2, 3); I.Halt ]
  in
  Alcotest.(check int) "fp multiply" 10 (rv_of outcome)

let test_float_mem () =
  let outcome =
    run_insns
      [ I.Fli (1, 1.5); I.Fsw (1, R.zero, 64); I.Flw (2, R.zero, 64);
        I.Fli (3, 2.0); I.Falu (I.Fadd, 4, 2, 3); I.F2i (2, 4); I.Halt ]
  in
  Alcotest.(check int) "float memory" 3 (rv_of outcome)

let test_branches () =
  let taken =
    run_items
      [ P.Ins (I.Li (8, 5)); P.Ins (I.Bi (I.Gt, 8, 0, "yes"));
        P.Ins (I.Li (2, 0)); P.Label "yes"; P.Ins (I.Li (2, 1));
        P.Ins I.Halt ]
  in
  Alcotest.(check int) "taken branch skips" 1 (rv_of taken);
  let fallthrough =
    run_items
      [ P.Ins (I.Li (8, -5)); P.Ins (I.Bi (I.Gt, 8, 0, "skip"));
        P.Ins (I.Li (2, 42)); P.Label "skip"; P.Ins I.Halt ]
  in
  Alcotest.(check int) "fallthrough" 42 (rv_of fallthrough)

let test_call_ret () =
  let prog =
    { P.procs =
        [ { P.name = "main";
            body =
              [ P.Ins (I.Jal "double_it"); P.Ins I.Halt ] };
          { P.name = "double_it";
            body =
              [ P.Ins (I.Li (8, 21)); P.Ins (I.Alu (I.Add, 2, 8, 8));
                P.Ins (I.Jr R.ra) ] } ];
      data = [];
      entry = "main" }
  in
  let outcome = Vm.Exec.run ~mem_words:4096 (P.resolve prog) in
  Alcotest.(check int) "call/return" 42 (rv_of outcome)

let test_jump_table () =
  let outcome =
    run_items
      [ P.Ins (I.Li (8, 1));
        P.Ins (I.Jtab (8, [| "case0"; "case1" |]));
        P.Label "case0"; P.Ins (I.Li (2, 111)); P.Ins I.Halt;
        P.Label "case1"; P.Ins (I.Li (2, 222)); P.Ins I.Halt ]
  in
  Alcotest.(check int) "jtab selects" 222 (rv_of outcome)

let test_trace_contents () =
  let outcome =
    run_items
      [ P.Ins (I.Li (8, 9)); P.Ins (I.Sw (8, R.zero, 70));
        P.Ins (I.Lw (9, R.zero, 70)); P.Ins (I.Bi (I.Eq, 9, 9, "over"));
        P.Ins (I.Li (2, 0)); P.Label "over"; P.Ins I.Halt ]
  in
  let t = outcome.trace in
  Alcotest.(check int) "trace length" 5 (Vm.Trace.length t);
  Alcotest.(check int) "store addr" 70 (Vm.Trace.addr t 1);
  Alcotest.(check int) "load addr" 70 (Vm.Trace.addr t 2);
  Alcotest.(check bool) "branch taken" true (Vm.Trace.taken t 3);
  Alcotest.(check int) "plain aux" (-1) (Vm.Trace.aux t 0);
  (* pc 4 (the skipped li) must not appear in the trace *)
  let pcs = List.init (Vm.Trace.length t) (Vm.Trace.pc t) in
  Alcotest.(check (list int)) "trace pcs" [ 0; 1; 2; 3; 5 ] pcs

let test_movn () =
  check_rv "movn taken" 9
    [ I.Li (2, 1); I.Li (8, 9); I.Li (9, 1); I.Movn (2, 8, 9); I.Halt ];
  check_rv "movn not taken" 1
    [ I.Li (2, 1); I.Li (8, 9); I.Li (9, 0); I.Movn (2, 8, 9); I.Halt ]

let test_r0_immutable () =
  check_rv "write to r0 discarded" 0
    [ I.Li (0, 55); I.Alui (I.Add, 2, 0, 0); I.Halt ]

let test_fault_div0 () =
  match (run_insns [ I.Li (8, 1); I.Alui (I.Div, 2, 8, 0); I.Halt ]).status with
  | Vm.Exec.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

let test_fault_bad_address () =
  match (run_insns [ I.Li (8, -1); I.Lw (2, 8, 0); I.Halt ]).status with
  | Vm.Exec.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

let test_fault_jtab_range () =
  match
    (run_items
       [ P.Ins (I.Li (8, 5)); P.Ins (I.Jtab (8, [| "lbl" |]));
         P.Label "lbl"; P.Ins I.Halt ])
      .status
  with
  | Vm.Exec.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

let test_out_of_fuel () =
  let outcome =
    run_items ~fuel:10 [ P.Label "spin"; P.Ins (I.J "spin") ]
  in
  (match outcome.status with
  | Vm.Exec.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected out of fuel");
  Alcotest.(check int) "fuel bounds steps" 10 outcome.steps

let test_data_segment () =
  let outcome =
    run_insns
      ~data:[ (32, [| P.Int_cell 5; P.Int_cell 6 |]) ]
      [ I.Lw (8, R.zero, 32); I.Lw (9, R.zero, 33); I.Alu (I.Add, 2, 8, 9);
        I.Halt ]
  in
  Alcotest.(check int) "initialized data" 11 (rv_of outcome)

let test_float_data_segment () =
  let outcome =
    run_insns
      ~data:[ (40, [| P.Float_cell 2.25 |]) ]
      [ I.Flw (1, R.zero, 40); I.Fli (2, 4.0); I.Falu (I.Fmul, 3, 1, 2);
        I.F2i (2, 3); I.Halt ]
  in
  Alcotest.(check int) "initialized float data" 9 (rv_of outcome)

let test_determinism () =
  let w = Workloads.Registry.find "eqntott" in
  let flat = Workloads.Registry.compile w in
  let o1 = Vm.Exec.run ~fuel:50_000 flat in
  let o2 = Vm.Exec.run ~fuel:50_000 flat in
  Alcotest.(check int) "same steps" o1.steps o2.steps;
  let same = ref true in
  for i = 0 to Vm.Trace.length o1.trace - 1 do
    if
      Vm.Trace.pc o1.trace i <> Vm.Trace.pc o2.trace i
      || Vm.Trace.aux o1.trace i <> Vm.Trace.aux o2.trace i
    then same := false
  done;
  Alcotest.(check bool) "identical traces" true !same

let test_no_record () =
  let outcome =
    run_insns ~fuel:100
      [ I.Li (2, 1); I.Halt ]
  in
  ignore outcome;
  let w = Workloads.Registry.find "awk" in
  let flat = Workloads.Registry.compile w in
  let o = Vm.Exec.run ~fuel:10_000 ~record:false flat in
  Alcotest.(check int) "no trace recorded" 0 (Vm.Trace.length o.trace);
  Alcotest.(check bool) "no chunk allocated" true
    (Obj.reachable_words (Obj.repr o.trace) < Vm.Trace.chunk_size)

(* --- paged memory against a dense reference ------------------------- *)

type mem_op =
  | Store_int of int * int
  | Store_float of int * float
  | Load_int of int
  | Load_float of int

type loaded = Int_val of int | Float_val of float

(* Four pages, the last one partial, so the boundary addresses sit on
   the first page's last word, the second page's first word and the
   partial page's last word. *)
let paged_words = (3 * Stdx.Mem_table.page_words) + 5

let gen_mem_ops =
  let open QCheck.Gen in
  let addr =
    frequency
      [ (1, oneofl [ 0; 4095; 4096; paged_words - 1 ]);
        (1, int_bound (paged_words - 1)) ]
  in
  let op =
    oneof
      [ map2 (fun a v -> Store_int (a, v)) addr small_signed_int;
        map2
          (fun a v -> Store_float (a, float_of_int v +. 0.5))
          addr small_signed_int;
        map (fun a -> Load_int a) addr;
        map (fun a -> Load_float a) addr ]
  in
  list_size (1 -- 40) op

(* Every op becomes straight-line code through r8 (address), r9/f1
   (stored values) and r10/f2 (loaded values).  The boundary words are
   loaded in both spaces before the first store, while every page is
   untouched, and again at the end. *)
let mem_program ops =
  let boundary =
    List.concat_map
      (fun a -> [ Load_int a; Load_float a ])
      [ 0; 4095; 4096; paged_words - 1 ]
  in
  let ops = boundary @ ops @ boundary in
  let insns =
    List.concat_map
      (function
        | Store_int (a, v) -> [ I.Li (8, a); I.Li (9, v); I.Sw (9, 8, 0) ]
        | Store_float (a, x) -> [ I.Li (8, a); I.Fli (1, x); I.Fsw (1, 8, 0) ]
        | Load_int a -> [ I.Li (8, a); I.Lw (10, 8, 0) ]
        | Load_float a -> [ I.Li (8, a); I.Flw (2, 8, 0) ])
      ops
  in
  (ops, insns @ [ I.Halt ])

let prop_paged_memory =
  QCheck.Test.make ~name:"paged memory == dense arrays" ~count:200
    (QCheck.make gen_mem_ops) (fun ops ->
      let ops, insns = mem_program ops in
      let ref_i = Array.make paged_words 0 in
      let ref_f = Array.make paged_words 0. in
      let expected =
        List.filter_map
          (function
            | Store_int (a, v) -> ref_i.(a) <- v; None
            | Store_float (a, x) -> ref_f.(a) <- x; None
            | Load_int a -> Some (Int_val ref_i.(a))
            | Load_float a -> Some (Float_val ref_f.(a)))
          ops
      in
      let flat =
        P.resolve
          { P.procs =
              [ { P.name = "main"; body = List.map (fun i -> P.Ins i) insns } ];
            data = []; entry = "main" }
      in
      let loaded = ref [] in
      let int_space_ok = ref false in
      let observe ~pc ~step:_ ~regs ~fregs ~mem =
        match flat.P.code.(pc) with
        | I.Lw _ -> loaded := Int_val regs.(10) :: !loaded
        | I.Flw _ -> loaded := Float_val fregs.(2) :: !loaded
        | I.Halt ->
          int_space_ok :=
            Stdx.Mem_table.words mem = paged_words
            && Seq.for_all
                 (fun (a, v) -> Stdx.Mem_table.get mem a = v)
                 (Array.to_seqi ref_i)
        | _ -> ()
      in
      let o = Vm.Exec.run ~mem_words:paged_words ~observe flat in
      o.status = Vm.Exec.Halted 0
      && List.rev !loaded = expected
      && !int_space_ok)

(* --- chunked trace ------------------------------------------------- *)

let entry_aux i = (7 * i) - 3

let filled n =
  let t = Vm.Trace.create () in
  for i = 0 to n - 1 do
    Vm.Trace.push t ~pc:i ~aux:(entry_aux i)
  done;
  t

let check_entries name n t =
  Alcotest.(check int) (name ^ " length") n (Vm.Trace.length t);
  let k = ref 0 in
  Vm.Trace.iter
    (fun ~pc ~aux ->
      if pc <> !k || aux <> entry_aux !k then
        Alcotest.failf "%s: entry %d is (%d, %d)" name !k pc aux;
      incr k)
    t;
  Alcotest.(check int) (name ^ " iter count") n !k

let test_trace_chunks () =
  let c = Vm.Trace.chunk_size in
  List.iter
    (fun n ->
      let name = Printf.sprintf "n=%d" n in
      let t = filled n in
      check_entries name n t;
      for i = 0 to n - 1 do
        if Vm.Trace.pc t i <> i || Vm.Trace.aux t i <> entry_aux i then
          Alcotest.failf "%s: random access to entry %d" name i
      done;
      List.iter
        (fun i ->
          Alcotest.check_raises (Printf.sprintf "%s pc %d" name i)
            (Invalid_argument "Trace.pc: index out of bounds") (fun () ->
              ignore (Vm.Trace.pc t i));
          Alcotest.check_raises (Printf.sprintf "%s aux %d" name i)
            (Invalid_argument "Trace.aux: index out of bounds") (fun () ->
              ignore (Vm.Trace.aux t i)))
        [ -1; n ];
      let copy = Vm.Trace.create () in
      Vm.Trace.feed t (Vm.Trace.buffer_sink copy);
      check_entries (name ^ " fed copy") n copy;
      (* strides that divide the chunk size (1, c/4, c) and that do not *)
      List.iter
        (fun steps ->
          let segs = Vm.Trace.segments ~steps t in
          Alcotest.(check int)
            (Printf.sprintf "%s steps=%d count" name steps)
            ((n + steps - 1) / steps) (Array.length segs);
          Array.iteri
            (fun k (s : Vm.Trace.seg) ->
              if
                s.seg_index <> k
                || s.seg_base <> k * steps
                || s.seg_len <> min steps (n - s.seg_base)
              then Alcotest.failf "%s steps=%d: segment %d shape" name steps k;
              for i = 0 to s.seg_len - 1 do
                let e = s.seg_base + i in
                if s.seg_pcs.(i) <> e || s.seg_auxs.(i) <> entry_aux e then
                  Alcotest.failf "%s steps=%d: entry %d" name steps e
              done)
            segs)
        [ 1; 1000; c / 4; c; c + 1 ])
    [ 0; 1; c - 1; c; c + 1; (3 * c) + 7 ]

let suite =
  [ Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "memory" `Quick test_memory;
    Alcotest.test_case "floating point" `Quick test_float;
    Alcotest.test_case "float memory" `Quick test_float_mem;
    Alcotest.test_case "branches" `Quick test_branches;
    Alcotest.test_case "call/return" `Quick test_call_ret;
    Alcotest.test_case "jump table" `Quick test_jump_table;
    Alcotest.test_case "trace contents" `Quick test_trace_contents;
    Alcotest.test_case "movn" `Quick test_movn;
    Alcotest.test_case "r0 immutable" `Quick test_r0_immutable;
    Alcotest.test_case "fault: div by zero" `Quick test_fault_div0;
    Alcotest.test_case "fault: bad address" `Quick test_fault_bad_address;
    Alcotest.test_case "fault: jtab range" `Quick test_fault_jtab_range;
    Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
    Alcotest.test_case "data segment" `Quick test_data_segment;
    Alcotest.test_case "float data segment" `Quick test_float_data_segment;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "record off" `Quick test_no_record;
    QCheck_alcotest.to_alcotest prop_paged_memory;
    Alcotest.test_case "chunked trace" `Quick test_trace_chunks ]
