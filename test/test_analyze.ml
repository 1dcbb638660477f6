(* Golden tests of the limit analyzer on synthetic programs whose
   schedules are computed by hand for every machine model. *)

module K = Risc.Insn

(* Build a synthetic Program_info directly; every instruction is its
   own basic block unless [block_of] says otherwise. *)
let mk_info ?(uses = [||]) ?(defs = [||]) ?(mem = [||]) ?(sp_adjust = [||])
    ?(overhead = [||]) ?(block_of = [||]) ?(rdf = [||]) kinds =
  let n = Array.length kinds in
  let default a v = if Array.length a = n then a else Array.make n v in
  let block_of =
    if Array.length block_of = n then block_of else Array.init n (fun i -> i)
  in
  let n_blocks = Array.fold_left max 0 block_of + 1 in
  let block_start = Array.make n_blocks max_int in
  Array.iteri
    (fun pc b -> if pc < block_start.(b) then block_start.(b) <- pc)
    block_of;
  let rdf = if Array.length rdf = n_blocks then rdf else Array.make n_blocks [||] in
  Ilp.Program_info.make ~kind:kinds ~uses:(default uses [||])
    ~defs:(default defs [||])
    ~mem:(default mem Ilp.Program_info.No_mem)
    ~sp_adjust:(default sp_adjust false)
    ~loop_overhead:(default overhead false)
    ~lat:(Array.make n Ilp.Program_info.Lat_int)
    ~block_of ~block_start ~n_blocks ~rdf

let mk_trace entries =
  let t = Vm.Trace.create () in
  List.iter (fun (pc, aux) -> Vm.Trace.push t ~pc ~aux) entries;
  t

(* A predictor scripted per static pc: [wrong] lists pcs always
   mispredicted. *)
let scripted_predictor wrong =
  { Predict.Predictor.name = "scripted";
    predict =
      (fun ~pc ~taken -> if List.mem pc wrong then not taken else taken);
    stateful = false }

let run ?(machine = Ilp.Machine.oracle) ?(wrong = []) ?(unroll = true)
    ?(inline = true) info trace =
  let cfg =
    Ilp.Analyze.config ~inline ~unroll ~collect_segments:true ~mem_words:64
      machine (scripted_predictor wrong)
  in
  Ilp.Analyze.run cfg info trace

let check_cycles name expected result =
  Alcotest.(check int) name expected result.Ilp.Analyze.cycles

(* --- pure data dependence --- *)

let test_serial_chain () =
  (* r1 <- ...; r2 <- f(r1); r3 <- f(r2): three cycles everywhere. *)
  let info =
    mk_info
      ~uses:[| [||]; [| 1 |]; [| 2 |] |]
      ~defs:[| [| 1 |]; [| 2 |]; [| 3 |] |]
      [| K.Plain; K.Plain; K.Plain |]
  in
  let trace = mk_trace [ (0, -1); (1, -1); (2, -1) ] in
  List.iter
    (fun m ->
      let r = run ~machine:m info trace in
      check_cycles ("chain " ^ m.Ilp.Machine.name) 3 r;
      Alcotest.(check int) "counted" 3 r.counted)
    Ilp.Machine.all_paper

let test_independent () =
  let info =
    mk_info
      ~defs:[| [| 1 |]; [| 2 |]; [| 3 |] |]
      [| K.Plain; K.Plain; K.Plain |]
  in
  let trace = mk_trace [ (0, -1); (1, -1); (2, -1) ] in
  List.iter
    (fun m -> check_cycles ("indep " ^ m.Ilp.Machine.name) 1
        (run ~machine:m info trace))
    Ilp.Machine.all_paper

let test_memory_dependence () =
  (* store to 7; load from 7; load from 8 (independent). *)
  let info =
    mk_info
      ~defs:[| [||]; [| 1 |]; [| 2 |] |]
      ~mem:[| Ilp.Program_info.Mem_store; Mem_load; Mem_load |]
      [| K.Plain; K.Plain; K.Plain |]
  in
  let trace = mk_trace [ (0, 7); (1, 7); (2, 8) ] in
  let r = run info trace in
  check_cycles "load waits for store" 2 r

let test_store_does_not_wait () =
  (* Anti/output dependence ignored: load-then-store to one address. *)
  let info =
    mk_info
      ~uses:[| [||]; [||]; [| 1 |] |]
      ~defs:[| [| 1 |]; [||]; [||] |]
      ~mem:[| Ilp.Program_info.Mem_load; Mem_store; Mem_store |]
      [| K.Plain; K.Plain; K.Plain |]
  in
  (* i0 loads addr 3; i1 stores addr 3 (no wait: anti-dep ignored);
     i2 stores addr 3 but uses r1 (defined by the load). *)
  let trace = mk_trace [ (0, 3); (1, 3); (2, 3) ] in
  let r = run info trace in
  check_cycles "stores unordered" 2 r

(* --- control: the six-instruction straight trace used below ---

   pc0 B1  (block 0, rdf [])
   pc1 P1  (block 1, rdf [])
   pc2 B2  (block 2, rdf [])
   pc3 P2  (block 3, rdf [])
   pc4 B3  (block 4, rdf [])
   pc5 P3  (block 5, rdf [])
   No data dependences, all control independent (RDF empty). *)

let branches_info () =
  mk_info
    [| K.Cond_branch; K.Plain; K.Cond_branch; K.Plain; K.Cond_branch;
       K.Plain |]

let branches_trace () =
  mk_trace [ (0, 1); (1, -1); (2, 1); (3, -1); (4, 1); (5, -1) ]

let test_base_serializes () =
  (* BASE: B1 t1; P1 waits B1: t2; B2 waits B1 (+flow): t2; P2 t3;
     B3 t3; P3 t4. *)
  let r = run ~machine:Ilp.Machine.base (branches_info ()) (branches_trace ()) in
  check_cycles "BASE" 4 r

let test_cd_orders_branches () =
  (* CD: plains are control independent (t1); branches execute in
     order: t1, t2, t3. *)
  let r = run ~machine:Ilp.Machine.cd (branches_info ()) (branches_trace ()) in
  check_cycles "CD" 3 r

let test_cd_mf_unordered () =
  let r =
    run ~machine:Ilp.Machine.cd_mf (branches_info ()) (branches_trace ())
  in
  check_cycles "CD-MF" 1 r

let test_sp_correct_prediction () =
  (* All predicted: nothing serializes. *)
  let r = run ~machine:Ilp.Machine.sp (branches_info ()) (branches_trace ()) in
  check_cycles "SP all predicted" 1 r;
  Alcotest.(check int) "no mispredicts" 0 r.mispredicts

let test_sp_misprediction_barrier () =
  (* B2 mispredicted: everything after waits for it. *)
  let r =
    run ~machine:Ilp.Machine.sp ~wrong:[ 2 ] (branches_info ())
      (branches_trace ())
  in
  (* B1 t1; P1 t1; B2 t1 (first misprediction, flow free); P2,B3,P3
     wait for t1 -> t2. *)
  check_cycles "SP one mispredict" 2 r;
  Alcotest.(check int) "one mispredict" 1 r.mispredicts

let test_sp_two_mispredicts_serialize () =
  let r =
    run ~machine:Ilp.Machine.sp ~wrong:[ 0; 2 ] (branches_info ())
      (branches_trace ())
  in
  (* B1 mispred t1; P1 t2; B2 mispred: waits both ctrl(1)+flow -> t2;
     P2, B3, P3 wait for t2 -> t3. *)
  check_cycles "SP two mispredicts" 3 r;
  Alcotest.(check int) "segments" 3 (Array.length r.segments)

let test_sp_cd_ignores_unrelated_mispredict () =
  (* With empty RDF nothing is control dependent on the mispredicted
     branch, so SP-CD runs at full speed. *)
  let r =
    run ~machine:Ilp.Machine.sp_cd ~wrong:[ 0; 2; 4 ] (branches_info ())
      (branches_trace ())
  in
  (* Plains: ctrl 0 -> t1.  Mispredicted branches serialize on the
     single flow: t1, t2, t3. *)
  check_cycles "SP-CD" 3 r

let test_sp_cd_mf_parallel_mispredicts () =
  let r =
    run ~machine:Ilp.Machine.sp_cd_mf ~wrong:[ 0; 2; 4 ] (branches_info ())
      (branches_trace ())
  in
  check_cycles "SP-CD-MF" 1 r

(* Decode sharing goes by predictor identity: two stateless predictors
   with one name but different predictions never share a decode, and
   the fan-out keeps their results apart. *)
let test_same_name_predictors () =
  let cfg p =
    Ilp.Analyze.config ~collect_segments:true ~mem_words:64 Ilp.Machine.sp p
  in
  let right = scripted_predictor [] and wrong = scripted_predictor [ 2 ] in
  let a = cfg right and b = cfg wrong in
  Alcotest.(check bool) "same name, different records" false
    (Ilp.Analyze.compatible [ a; b ]);
  Alcotest.(check bool) "one record" true
    (Ilp.Analyze.compatible [ a; cfg right ]);
  Alcotest.(check (list (list int))) "decode groups" [ [ 0; 2 ]; [ 1 ] ]
    (Ilp.Analyze.decode_groups [ a; b; cfg right ]);
  let info = branches_info () and trace = branches_trace () in
  let together = Ilp.Analyze.run_many [ a; b ] info trace in
  Alcotest.(check bool) "run_many = separate runs" true
    (together = [ Ilp.Analyze.run a info trace; Ilp.Analyze.run b info trace ]);
  Alcotest.(check (list int)) "mispredicts" [ 0; 1 ]
    (List.map (fun (r : Ilp.Analyze.result) -> r.mispredicts) together)

(* --- control dependence through RDF --- *)

(* pc0 branch (block 0); pc1 plain in block 1 with rdf [0];
   pc2 plain in block 2 with rdf [] (control independent). *)
let cd_info () =
  mk_info
    ~rdf:[| [||]; [| 0 |]; [||] |]
    [| K.Cond_branch; K.Plain; K.Plain |]

let test_cd_rdf_constraint () =
  let trace = mk_trace [ (0, 1); (1, -1); (2, -1) ] in
  let r = run ~machine:Ilp.Machine.cd (cd_info ()) trace in
  (* branch t1; dependent plain t2; independent plain t1. *)
  check_cycles "CD rdf" 2 r;
  let r = run ~machine:Ilp.Machine.oracle (cd_info ()) trace in
  check_cycles "oracle ignores control" 1 r

let test_sp_cd_mispredicted_ancestor () =
  let trace = mk_trace [ (0, 1); (1, -1); (2, -1) ] in
  (* Branch mispredicted: its dependent must wait under SP-CD; the
     control-independent instruction must not. *)
  let r = run ~machine:Ilp.Machine.sp_cd ~wrong:[ 0 ] (cd_info ()) trace in
  check_cycles "SP-CD rdf" 2 r;
  (* Correctly predicted: even the dependent goes at t1. *)
  let r = run ~machine:Ilp.Machine.sp_cd (cd_info ()) trace in
  check_cycles "SP-CD predicted" 1 r

(* --- most recent instance wins --- *)

let test_latest_instance () =
  (* Loop-shaped: branch block 0 executes twice; dependent block 1
     must wait for the most recent instance.  Trace:
       B(t1) P B(t?) P
     with a data chain forcing the second B to t2. *)
  let info =
    mk_info
      ~uses:[| [| 1 |]; [||]; [||] |]
      ~defs:[| [||]; [| 1 |]; [||] |]
      ~rdf:[| [||]; [||]; [| 0 |] |]
      ~block_of:[| 0; 1; 2 |]
      [| K.Cond_branch; K.Plain; K.Plain |]
  in
  (* trace: P(defs r1, t1), B(uses r1, t2), dependent P: waits the
     branch instance -> t3; then B again (r1 unchanged: still t2?  r1
     written once at t1, so second B = max(1+1, ...) -> t2), dependent
     P waits most recent instance -> t3. *)
  let trace =
    mk_trace [ (1, -1); (0, 1); (2, -1); (0, 1); (2, -1) ]
  in
  let r = run ~machine:Ilp.Machine.cd_mf info trace in
  check_cycles "latest instance" 3 r

(* --- interprocedural control dependence --- *)

let test_interproc_inheritance () =
  (* pc0: branch (block 0, rdf []); pc1: call (block 1, rdf [0]);
     pc2: callee plain (block 2, rdf []); pc3: ret (block 3).
     The callee instruction inherits the call site's control
     dependence on the branch. *)
  let info =
    mk_info
      ~rdf:[| [||]; [| 0 |]; [||]; [||] |]
      [| K.Cond_branch; K.Call; K.Plain; K.Ret |]
  in
  let trace = mk_trace [ (0, 1); (1, -1); (2, -1); (3, -1) ] in
  let r = run ~machine:Ilp.Machine.cd_mf info trace in
  (* branch t1; call removed; callee plain inherits ctrl 1 -> t2. *)
  check_cycles "inherited CD" 2 r;
  Alcotest.(check int) "call/ret not counted" 2 r.counted;
  (* Without the rdf on the call block there is no inheritance. *)
  let info2 =
    mk_info
      ~rdf:[| [||]; [||]; [||]; [||] |]
      [| K.Cond_branch; K.Call; K.Plain; K.Ret |]
  in
  let r2 = run ~machine:Ilp.Machine.cd_mf info2 trace in
  check_cycles "no inheritance" 1 r2

(* The per-block resolution cache must not outlive a change to its
   inputs.  A one-block loop: the branch that ends the block writes the
   block's own RDF candidate, so the next iteration must see it. *)
let test_self_loop_resolution () =
  let info =
    mk_info ~block_of:[| 0; 0 |] ~rdf:[| [| 0 |] |]
      [| K.Plain; K.Cond_branch |]
  in
  let trace =
    mk_trace [ (0, -1); (1, 1); (0, -1); (1, 1); (0, -1); (1, 0) ]
  in
  (* each iteration waits for the previous iteration's branch *)
  check_cycles "self loop" 3 (run ~machine:Ilp.Machine.cd_mf info trace)

(* A return restores the caller's context for a block the callee just
   resolved.  main calls f (f1), which branches and calls f (f2); f2
   branches, runs the shared continuation block (resolved with f2's
   context, inherited from f1's branch at t1: t2) and returns; f1 runs
   the same block with its own, empty context (t1), and main reads the
   register f1 wrote (t2).  Reusing f2's resolution would give f1's
   instruction t2 and main's t3. *)
let test_return_resolution () =
  let info =
    mk_info
      ~block_of:[| 0; 1; 2; 3; 4; 4 |]
      ~rdf:[| [||]; [||]; [||]; [| 2 |]; [||] |]
      ~uses:[| [||]; [| 5 |]; [||]; [||]; [||]; [||] |]
      ~defs:[| [||]; [||]; [||]; [||]; [| 5 |]; [||] |]
      [| K.Call; K.Plain; K.Cond_branch; K.Call; K.Plain; K.Ret |]
  in
  let trace =
    mk_trace
      [ (0, -1); (2, 1); (3, -1); (2, 0); (4, -1); (5, -1); (4, -1);
        (5, -1); (1, -1) ]
  in
  check_cycles "caller context after return" 2
    (run ~machine:Ilp.Machine.cd_mf info trace)

let test_inline_removes_sp_adjust () =
  let info =
    mk_info
      ~sp_adjust:[| true; false |]
      ~defs:[| [| 29 |]; [||] |]
      ~uses:[| [| 29 |]; [| 29 |] |]
      [| K.Plain; K.Plain |]
  in
  let trace = mk_trace [ (0, -1); (1, -1) ] in
  let r = run info trace in
  Alcotest.(check int) "sp adjust removed" 1 r.counted;
  check_cycles "consumer unaffected" 1 r;
  let r2 = run ~inline:false info trace in
  Alcotest.(check int) "kept without inlining" 2 r2.counted;
  check_cycles "dependence restored" 2 r2

(* --- perfect unrolling --- *)

let test_unroll_removes_overhead () =
  (* induction update chain: i0: r1 <- r1+1 (overhead); i1: uses r1. *)
  let info =
    mk_info
      ~uses:[| [| 1 |]; [| 1 |] |]
      ~defs:[| [| 1 |]; [||] |]
      ~overhead:[| true; false |]
      [| K.Plain; K.Plain |]
  in
  let trace = mk_trace [ (0, -1); (1, -1); (0, -1); (1, -1) ] in
  let r = run info trace in
  Alcotest.(check int) "updates removed" 2 r.counted;
  check_cycles "iterations decoupled" 1 r;
  let r2 = run ~unroll:false info trace in
  Alcotest.(check int) "kept" 4 r2.counted;
  check_cycles "chained" 3 r2

let test_unroll_branch_passthrough () =
  (* outer branch OB (block 0); removed loop branch LB (block 1,
     rdf [0]); body plain (block 2, rdf [1]).  The body must inherit
     the dependence on OB through the removed LB. *)
  let info =
    mk_info
      ~overhead:[| false; true; false |]
      ~rdf:[| [||]; [| 0 |]; [| 1 |] |]
      [| K.Cond_branch; K.Cond_branch; K.Plain |]
  in
  let trace = mk_trace [ (0, 1); (1, 1); (2, -1) ] in
  let r = run ~machine:Ilp.Machine.cd_mf info trace in
  (* OB t1; LB removed (passes through t1); body waits t1 -> t2. *)
  check_cycles "pass-through" 2 r;
  Alcotest.(check int) "LB not counted" 2 r.counted

(* --- computed jumps --- *)

let test_computed_jump_always_mispredicted () =
  let info =
    mk_info [| K.Computed_jump; K.Plain |]
  in
  let trace = mk_trace [ (0, -1); (1, -1) ] in
  let r = run ~machine:Ilp.Machine.sp info trace in
  check_cycles "jtab barriers SP" 2 r;
  Alcotest.(check int) "counts as mispredict" 1 r.mispredicts;
  let r = run ~machine:Ilp.Machine.oracle info trace in
  check_cycles "oracle unaffected" 1 r

(* --- extension knobs --- *)

let test_window () =
  (* chain of 4 (r1->r2->r3->r4), then r5 <- const, r6 <- f(r5).
     window 1: the const issues no earlier than the chain's end (its
     window predecessor), pushing its consumer past the chain. *)
  let info =
    mk_info
      ~uses:[| [||]; [| 1 |]; [| 2 |]; [| 3 |]; [||]; [| 5 |] |]
      ~defs:[| [| 1 |]; [| 2 |]; [| 3 |]; [| 4 |]; [| 5 |]; [| 6 |] |]
      [| K.Plain; K.Plain; K.Plain; K.Plain; K.Plain; K.Plain |]
  in
  let trace = mk_trace (List.init 6 (fun i -> (i, -1))) in
  let unlimited = run info trace in
  check_cycles "unlimited window" 4 unlimited;
  let windowed =
    run ~machine:(Ilp.Machine.with_window 1 Ilp.Machine.oracle) info trace
  in
  check_cycles "window 1" 5 windowed

let test_flows_k () =
  let info = branches_info () in
  let trace = branches_trace () in
  let with_flows k =
    run ~machine:(Ilp.Machine.with_flows (Some k) Ilp.Machine.cd) info trace
  in
  check_cycles "k=1" 3 (with_flows 1);
  check_cycles "k=2" 2 (with_flows 2);
  check_cycles "k=3" 1 (with_flows 3)

let test_latency () =
  let info =
    mk_info
      ~uses:[| [||]; [| 1 |] |]
      ~defs:[| [| 1 |]; [| 2 |] |]
      [| K.Plain; K.Plain |]
  in
  let trace = mk_trace [ (0, -1); (1, -1) ] in
  let m =
    Ilp.Machine.with_latencies (fun _ -> 3) Ilp.Machine.oracle
  in
  let r = run ~machine:m info trace in
  (* t0 = 1 completes 3; t1 = 4 completes 6. *)
  check_cycles "latency chain" 6 r;
  Alcotest.(check int) "seq cycles sum latencies" 6 r.seq_cycles;
  Alcotest.(check (float 1e-9)) "parallelism 1" 1. r.parallelism

(* --- segment statistics --- *)

let test_segments () =
  let r =
    run ~machine:Ilp.Machine.sp ~wrong:[ 2 ] (branches_info ())
      (branches_trace ())
  in
  (* One misprediction at the third counted instruction: first segment
     length 3 (P-B-B up to and including the mispredicted B2), final
     partial segment length 3. *)
  Alcotest.(check int) "two segments" 2 (Array.length r.segments);
  Alcotest.(check int) "first segment length" 3 r.segments.(0).length;
  Alcotest.(check int) "second segment length" 3 r.segments.(1).length

let test_distance_histogram () =
  let segments =
    [| { Ilp.Analyze.length = 3; cycles = 1 };
       { length = 3; cycles = 2 };
       { length = 7; cycles = 7 } |]
  in
  Alcotest.(check (list (pair int int)))
    "histogram" [ (3, 2); (7, 1) ]
    (Ilp.Stats.distance_histogram segments);
  let buckets = Ilp.Stats.parallelism_by_distance segments in
  Alcotest.(check int) "two buckets" 2 (List.length buckets);
  let b34 = List.find (fun (b : Ilp.Stats.bucket) -> b.lo = 3) buckets in
  Alcotest.(check int) "bucket count" 2 b34.count

let suite =
  [ Alcotest.test_case "serial chain" `Quick test_serial_chain;
    Alcotest.test_case "independent" `Quick test_independent;
    Alcotest.test_case "memory dependence" `Quick test_memory_dependence;
    Alcotest.test_case "stores unordered" `Quick test_store_does_not_wait;
    Alcotest.test_case "BASE serializes" `Quick test_base_serializes;
    Alcotest.test_case "CD orders branches" `Quick test_cd_orders_branches;
    Alcotest.test_case "CD-MF unordered" `Quick test_cd_mf_unordered;
    Alcotest.test_case "SP predicted" `Quick test_sp_correct_prediction;
    Alcotest.test_case "SP mispredict barrier" `Quick
      test_sp_misprediction_barrier;
    Alcotest.test_case "SP serial mispredicts" `Quick
      test_sp_two_mispredicts_serialize;
    Alcotest.test_case "SP-CD unrelated mispredict" `Quick
      test_sp_cd_ignores_unrelated_mispredict;
    Alcotest.test_case "SP-CD-MF parallel mispredicts" `Quick
      test_sp_cd_mf_parallel_mispredicts;
    Alcotest.test_case "CD rdf constraint" `Quick test_cd_rdf_constraint;
    Alcotest.test_case "SP-CD mispredicted ancestor" `Quick
      test_sp_cd_mispredicted_ancestor;
    Alcotest.test_case "latest instance" `Quick test_latest_instance;
    Alcotest.test_case "interproc inheritance" `Quick
      test_interproc_inheritance;
    Alcotest.test_case "inline removes sp adjust" `Quick
      test_inline_removes_sp_adjust;
    Alcotest.test_case "unroll removes overhead" `Quick
      test_unroll_removes_overhead;
    Alcotest.test_case "unroll branch pass-through" `Quick
      test_unroll_branch_passthrough;
    Alcotest.test_case "computed jumps" `Quick
      test_computed_jump_always_mispredicted;
    Alcotest.test_case "finite window" `Quick test_window;
    Alcotest.test_case "k flows" `Quick test_flows_k;
    Alcotest.test_case "latency" `Quick test_latency;
    Alcotest.test_case "segments" `Quick test_segments;
    Alcotest.test_case "distance histogram" `Quick test_distance_histogram;
    Alcotest.test_case "same-name predictors do not share a decode" `Quick
      test_same_name_predictors;
    Alcotest.test_case "self loop sees its own branch" `Quick
      test_self_loop_resolution;
    Alcotest.test_case "return restores the caller's resolution" `Quick
      test_return_resolution ]
