(* Intra-trace parallel analysis (DESIGN.md §15): the segmented
   decode/stitch path must be bit-identical to the sequential analyzer
   for every machine spec, every segment stride, every pool width and
   every trace shape — including truncated executions, step-budget
   cuts, invalid pcs and collected segments.  Plus the building blocks:
   trace segmentation coverage, pool futures, config compatibility and
   the deterministic telemetry the segmented path emits. *)

let pp_result fmt (r : Ilp.Analyze.result) =
  Format.fprintf fmt
    "{machine=%s; counted=%d; seq=%d; cycles=%d; par=%.6f; dyn=%d; mis=%d; \
     segs=%d; compl=%s}"
    r.machine r.counted r.seq_cycles r.cycles r.parallelism r.dyn_branches
    r.mispredicts
    (Array.length r.segments)
    (Pipeline_error.completeness_tag r.completeness)

let result_t = Alcotest.testable pp_result ( = )

(* ------------------------------------------------------------------ *)
(* Pool futures: async/await, exception boxing, helping. *)

let test_future_basic () =
  Stdx.Pool.with_pool ~jobs:2 (fun pool ->
      let futs =
        List.init 20 (fun i -> Stdx.Pool.async pool (fun () -> i * i))
      in
      let got = List.map (Stdx.Pool.await pool) futs in
      Alcotest.(check (list int))
        "futures resolve in submission order"
        (List.init 20 (fun i -> i * i))
        got)

let test_future_inline_jobs_one () =
  Stdx.Pool.with_pool ~jobs:1 (fun pool ->
      let fut = Stdx.Pool.async pool (fun () -> 42) in
      Alcotest.(check bool) "jobs=1 future completes at submit" true
        (Stdx.Pool.poll fut);
      Alcotest.(check int) "value" 42 (Stdx.Pool.await pool fut))

exception Boom of int

let test_future_exception () =
  Stdx.Pool.with_pool ~jobs:2 (fun pool ->
      let fut = Stdx.Pool.async pool (fun () -> raise (Boom 7)) in
      (match Stdx.Pool.await pool fut with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 7 -> ());
      (* boxed failure is stable: a second await re-raises too *)
      (match Stdx.Pool.await pool fut with
      | _ -> Alcotest.fail "expected Boom again"
      | exception Boom 7 -> ());
      (* and the pool is still usable *)
      let ok = Stdx.Pool.async pool (fun () -> 1) in
      Alcotest.(check int) "pool survives" 1 (Stdx.Pool.await pool ok))

let test_future_helping_narrow_pool () =
  (* A width-1 pool whose single submitted task awaits a later
     submission: only awaiter-helping can finish this without
     deadlock. *)
  Stdx.Pool.with_pool ~jobs:1 (fun pool ->
      let a = Stdx.Pool.async pool (fun () -> 10) in
      let b = Stdx.Pool.async pool (fun () -> Stdx.Pool.await pool a + 1) in
      Alcotest.(check int) "nested await" 11 (Stdx.Pool.await pool b))

(* ------------------------------------------------------------------ *)
(* Trace segmentation: exact coverage, in order, owned arrays. *)

let mk_trace n =
  let t = Vm.Trace.create () in
  for i = 0 to n - 1 do
    Vm.Trace.push t ~pc:(i * 3 mod 97) ~aux:(if i mod 5 = 0 then 1 else -1)
  done;
  t

let check_coverage ~steps n =
  let t = mk_trace n in
  let segs = Vm.Trace.segments ~steps t in
  let total = Array.fold_left (fun a s -> a + s.Vm.Trace.seg_len) 0 segs in
  Alcotest.(check int)
    (Printf.sprintf "coverage steps=%d n=%d" steps n)
    n total;
  Array.iteri
    (fun k (s : Vm.Trace.seg) ->
      Alcotest.(check int) "index" k s.seg_index;
      Alcotest.(check int) "base" (k * steps) s.seg_base;
      for i = 0 to s.seg_len - 1 do
        let j = s.seg_base + i in
        if s.seg_pcs.(i) <> Vm.Trace.pc t j
           || s.seg_auxs.(i) <> Vm.Trace.aux t j
        then Alcotest.failf "entry %d diverged from trace" j
      done)
    segs

let test_segments_cover () =
  check_coverage ~steps:1 13;
  check_coverage ~steps:5 13;
  check_coverage ~steps:13 13;
  check_coverage ~steps:1000 13;
  check_coverage ~steps:4 0

let test_segmenting_sink_matches_segments () =
  let n = 103 and steps = 10 in
  let t = mk_trace n in
  let emitted = ref [] in
  let sink =
    Vm.Trace.segmenting_sink ~steps ~emit:(fun s -> emitted := s :: !emitted)
  in
  Vm.Trace.feed t sink;
  let streamed = Array.of_list (List.rev !emitted) in
  let sliced = Vm.Trace.segments ~steps t in
  Alcotest.(check int) "same segment count" (Array.length sliced)
    (Array.length streamed);
  Array.iteri
    (fun k (a : Vm.Trace.seg) ->
      let b = streamed.(k) in
      Alcotest.(check int) "len" a.seg_len b.Vm.Trace.seg_len;
      for i = 0 to a.seg_len - 1 do
        if a.seg_pcs.(i) <> b.Vm.Trace.seg_pcs.(i)
           || a.seg_auxs.(i) <> b.Vm.Trace.seg_auxs.(i)
        then Alcotest.failf "segment %d entry %d diverged" k i
      done)
    sliced

(* ------------------------------------------------------------------ *)
(* Compatibility and stride selection. *)

let test_compatible () =
  let mk ?(inline = true) p =
    Ilp.Analyze.config ~inline Ilp.Machine.sp_cd_mf p
  in
  let perfect = Predict.Predictor.perfect in
  Alcotest.(check bool) "empty list" false (Ilp.Analyze.compatible []);
  Alcotest.(check bool) "same stateless" true
    (Ilp.Analyze.compatible [ mk perfect; mk perfect ]);
  Alcotest.(check bool) "stateful 2-bit" false
    (Ilp.Analyze.compatible [ mk (Predict.Predictor.two_bit ~n_static:8) ]);
  Alcotest.(check bool) "mixed inline" false
    (Ilp.Analyze.compatible [ mk perfect; mk ~inline:false perfect ]);
  Alcotest.(check bool) "mixed predictor names" false
    (Ilp.Analyze.compatible [ mk perfect; mk Predict.Predictor.always_taken ])

let test_auto_steps_bounds () =
  Alcotest.(check int) "floor" 16_384
    (Ilp.Segmented.auto_steps ~trace_len:1000 ~jobs:4);
  Alcotest.(check int) "ceiling" 262_144
    (Ilp.Segmented.auto_steps ~trace_len:100_000_000 ~jobs:2);
  Alcotest.(check int) "interior" 31_250
    (Ilp.Segmented.auto_steps ~trace_len:250_000 ~jobs:2);
  Alcotest.(check bool) "always >= 1" true
    (Ilp.Segmented.auto_steps ~trace_len:0 ~jobs:1 >= 1)

let prepared_flat =
  lazy
    (let p =
       Harness.prepare_source ~name:"flatsrc"
         "int main(void) { return 3; }"
     in
     p.Harness.flat)

let test_bad_args_raise () =
  let cfg = Ilp.Analyze.config Ilp.Machine.sp Predict.Predictor.perfect in
  let info = Ilp.Program_info.analyze_flat (Lazy.force prepared_flat) in
  (match Ilp.Segmented.run ~segment_steps:0 [ cfg ] info (mk_trace 3) with
  | _ -> Alcotest.fail "expected Invalid_argument for steps=0"
  | exception Invalid_argument _ -> ());
  match
    Ilp.Segmented.run ~segment_steps:4
      [ Ilp.Analyze.config Ilp.Machine.sp
          (Predict.Predictor.two_bit ~n_static:8) ]
      info (mk_trace 3)
  with
  | _ -> Alcotest.fail "expected Invalid_argument for stateful predictor"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Bit-identity: Segmented.run == Analyze.run_many on real compiled
   programs, across strides, pool widths and machine specs. *)

let sources =
  [ ( "branchy",
      {|int main(void) { int i; int s = 0;
         for (i = 0; i < 300; i = i + 1) {
           if (i % 3 == 0) s = s + i;
           else if (i % 7 == 0) s = s - 2;
         }
         return s; }|} );
    ( "memory",
      {|int a[64];
        int main(void) { int i; int s = 0;
         for (i = 0; i < 64; i = i + 1) a[i] = i * i;
         for (i = 1; i < 64; i = i + 1) a[i] = a[i] + a[i - 1];
         for (i = 0; i < 64; i = i + 8) s = s + a[i];
         return s; }|} );
    ( "calls",
      {|int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
        int main(void) { return fib(12); }|} ) ]

let prepared =
  List.map
    (fun (name, src) -> (name, lazy (Harness.prepare_source ~name src)))
    sources

let configs_for (p : Harness.prepared) ~collect ~step_budget =
  let predictor = Harness.profile_predictor p in
  List.map
    (fun m ->
      Ilp.Analyze.config ~collect_segments:collect ?step_budget m predictor)
    Ilp.Machine.all_paper

let check_identical ?pool ~segment_steps ~name (p : Harness.prepared)
    configs =
  let seq =
    Ilp.Analyze.run_many ~completeness:p.Harness.completeness configs
      p.Harness.info p.Harness.trace
  in
  let seg =
    Ilp.Segmented.run ?pool ~completeness:p.Harness.completeness
      ~segment_steps configs p.Harness.info p.Harness.trace
  in
  Alcotest.(check (list result_t))
    (Printf.sprintf "%s steps=%d" name segment_steps)
    seq seg.Ilp.Segmented.results;
  let expect_segments =
    (Vm.Trace.length p.Harness.trace + segment_steps - 1) / segment_steps
  in
  Alcotest.(check int)
    (name ^ " segment count")
    expect_segments seg.Ilp.Segmented.segments

let test_identical_strides () =
  List.iter
    (fun (name, lp) ->
      let p = Lazy.force lp in
      let configs = configs_for p ~collect:false ~step_budget:None in
      List.iter
        (fun segment_steps ->
          check_identical ~segment_steps ~name p configs)
        [ 1; 7; 64; Vm.Trace.length p.Harness.trace + 1 ])
    prepared

let test_identical_on_pool () =
  Stdx.Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun (name, lp) ->
          let p = Lazy.force lp in
          let configs = configs_for p ~collect:true ~step_budget:None in
          check_identical ~pool ~segment_steps:50 ~name p configs)
        prepared)

let test_identical_step_budget () =
  (* The budget cut must land on the same entry segmented or not, and
     the Truncated tag must carry through the stitchers. *)
  let _, lp = List.hd prepared in
  let p = Lazy.force lp in
  List.iter
    (fun budget ->
      let configs =
        configs_for p ~collect:false ~step_budget:(Some budget)
      in
      check_identical ~segment_steps:33 ~name:"budget" p configs)
    [ 1; 17; 400 ]

let test_identical_truncated_execution () =
  (* A fuel-capped execution: completeness is Truncated before analysis
     even starts; both paths must tag results identically. *)
  let p =
    Harness.prepare_source ~name:"spin" ~fuel:5_000
      "int main(void) { int i; int s = 0; for (i = 0; i < 1000000; i = i + 1) s = s + i; return s; }"
  in
  let configs = configs_for p ~collect:false ~step_budget:None in
  check_identical ~segment_steps:999 ~name:"truncated" p configs

let test_invalid_pc_parity () =
  (* A hand-built trace wandering outside the code segment: the
     sequential analyzer raises at the offending entry; the segmented
     path must defer its decode marker to the same apply step and raise
     the same exception. *)
  let p = Lazy.force (snd (List.hd prepared)) in
  let configs = configs_for p ~collect:false ~step_budget:None in
  let t = Vm.Trace.create () in
  Vm.Trace.push t ~pc:0 ~aux:(-1);
  Vm.Trace.push t ~pc:999_999 ~aux:(-1);
  Vm.Trace.push t ~pc:0 ~aux:(-1);
  let seq =
    match Ilp.Analyze.run_many configs p.Harness.info t with
    | _ -> "no-raise"
    | exception Invalid_argument m -> m
  in
  let seg =
    match Ilp.Segmented.run ~segment_steps:2 configs p.Harness.info t with
    | _ -> "no-raise"
    | exception Invalid_argument m -> m
  in
  Alcotest.(check string) "same Invalid_argument" seq seg;
  Alcotest.(check bool) "did raise" true (seq <> "no-raise");
  (* ...but a step budget that cuts before the bad entry means neither
     path ever applies it: no raise, identical truncated results.
     Budget 0 trips the guard on the very first entry, so the cut is
     guaranteed to land ahead of the invalid pc. *)
  let capped = configs_for p ~collect:false ~step_budget:(Some 0) in
  check_identical ~segment_steps:2 ~name:"cut before invalid"
    { p with trace = t } capped

(* ------------------------------------------------------------------ *)
(* Harness-level: heterogeneous spec lists (profile + perfect + the
   stateful 2-bit, which must fall back to a sequential group) through
   Run.on_prepared with segmentation on. *)

let test_harness_mixed_predictors () =
  let p = Lazy.force (snd (List.nth prepared 2)) in
  let specs =
    [ Harness.spec Ilp.Machine.sp_cd_mf;
      Harness.spec ~predictor:`Two_bit Ilp.Machine.sp_cd_mf;
      Harness.spec ~predictor:`Perfect Ilp.Machine.sp_cd;
      Harness.spec ~predictor:`Two_bit Ilp.Machine.sp;
      Harness.spec ~inline:false Ilp.Machine.cd ]
  in
  let seq = Harness.Run.on_prepared p specs in
  Stdx.Pool.with_pool ~jobs:3 (fun pool ->
      let seg =
        Harness.Run.on_prepared ~pool ~segmenting:(`Steps 40) ~jobs:3 p
          specs
      in
      Alcotest.(check (list result_t)) "mixed specs identical" seq seg)

let test_harness_auto_resolution () =
  let p = Lazy.force (snd (List.hd prepared)) in
  let specs = [ Harness.spec Ilp.Machine.sp_cd_mf ] in
  let seq = Harness.Run.on_prepared p specs in
  (* `Auto with jobs=1 degrades to the sequential path; with jobs>1 it
     picks a stride — results identical either way. *)
  let auto1 = Harness.Run.on_prepared ~segmenting:`Auto ~jobs:1 p specs in
  Stdx.Pool.with_pool ~jobs:2 (fun pool ->
      let auto2 =
        Harness.Run.on_prepared ~pool ~segmenting:`Auto ~jobs:2 p specs
      in
      Alcotest.(check (list result_t)) "auto jobs=1" seq auto1;
      Alcotest.(check (list result_t)) "auto jobs=2" seq auto2)

(* ------------------------------------------------------------------ *)
(* Telemetry: segment spans merge deterministically (same skeleton with
   and without a pool) and the segment counter/histogram register. *)

let test_obs_deterministic () =
  let skeleton_of run =
    let obs = Obs.Ctx.create () in
    run obs;
    (Obs.Span.skeleton (Obs.Ctx.spans obs), Obs.Ctx.snapshot obs)
  in
  let p = Lazy.force (snd (List.hd prepared)) in
  let configs = configs_for p ~collect:false ~step_budget:None in
  let run ?pool obs =
    ignore
      (Ilp.Segmented.run ?pool ~obs ~span_index_base:100 ~workload:"w"
         ~completeness:p.Harness.completeness ~segment_steps:60 configs
         p.Harness.info p.Harness.trace)
  in
  let sk_seq, snap_seq = skeleton_of (fun obs -> run obs) in
  let sk_par, _ =
    skeleton_of (fun obs ->
        Stdx.Pool.with_pool ~jobs:3 (fun pool -> run ~pool obs))
  in
  Alcotest.(check bool) "span skeleton scheduling-independent" true
    (sk_seq = sk_par);
  let segments_total =
    List.find_map
      (fun (s : Obs.Metrics.snap) ->
        match (s.name, s.value) with
        | "analyze_segments_total", Obs.Metrics.Counter n -> Some n
        | _ -> None)
      snap_seq
  in
  let expect =
    (Vm.Trace.length p.Harness.trace + 59) / 60
  in
  Alcotest.(check (option int)) "analyze_segments_total" (Some expect)
    segments_total;
  Alcotest.(check bool) "stitch-wait histogram registered" true
    (List.exists
       (fun (s : Obs.Metrics.snap) ->
         s.name = "analyze_segment_stitch_wait_ns")
       snap_seq)

let test_check_hook_propagates () =
  let p = Lazy.force (snd (List.hd prepared)) in
  let configs = configs_for p ~collect:false ~step_budget:None in
  let calls = ref 0 in
  let check () =
    incr calls;
    if !calls > 2 then failwith "deadline!"
  in
  match
    Ilp.Segmented.run ~check ~segment_steps:30 configs p.Harness.info
      p.Harness.trace
  with
  | _ -> Alcotest.fail "expected the check hook's exception"
  | exception Failure m -> Alcotest.(check string) "hook exn" "deadline!" m

(* ------------------------------------------------------------------ *)
(* qcheck: random stride x pool width x machine-lattice point, on all
   three compiled programs — segmented == sequential, bit for bit. *)

let prop_segmented_equals_sequential =
  QCheck.Test.make ~count:60
    ~name:"segmented == sequential (random stride/jobs/machine)"
    QCheck.(
      triple (int_range 1 5_000) (int_range 1 4)
        (int_bound 0x3FFFFFFF))
    (fun (segment_steps, jobs, mseed) ->
      let machine = Ilp.Machine.random mseed in
      List.for_all
        (fun (_, lp) ->
          let p = Lazy.force lp in
          let predictor = Harness.profile_predictor p in
          let configs =
            [ Ilp.Analyze.config machine predictor;
              Ilp.Analyze.config Ilp.Machine.sp_cd_mf predictor ]
          in
          let seq =
            Ilp.Analyze.run_many ~completeness:p.Harness.completeness
              configs p.Harness.info p.Harness.trace
          in
          let seg =
            if jobs = 1 then
              Ilp.Segmented.run ~completeness:p.Harness.completeness
                ~segment_steps configs p.Harness.info p.Harness.trace
            else
              Stdx.Pool.with_pool ~jobs (fun pool ->
                  Ilp.Segmented.run ~pool
                    ~completeness:p.Harness.completeness ~segment_steps
                    configs p.Harness.info p.Harness.trace)
          in
          seq = seg.Ilp.Segmented.results)
        prepared)

(* All ten registry workloads, truncated by a small fuel, through the
   harness segmented path on a pool — the acceptance sweep. *)
let test_all_workloads_identical () =
  let fuel = 30_000 in
  let specs = List.map Harness.spec Ilp.Machine.all_paper in
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let p = Harness.prepare ~fuel w in
      let seq = Harness.Run.on_prepared p specs in
      Stdx.Pool.with_pool ~jobs:4 (fun pool ->
          let seg =
            Harness.Run.on_prepared ~pool ~segmenting:(`Steps 4_096)
              ~jobs:4 p specs
          in
          Alcotest.(check (list result_t)) (w.name ^ ": segmented") seq seg))
    Workloads.Registry.all

let suite =
  [ Alcotest.test_case "pool futures resolve" `Quick test_future_basic;
    Alcotest.test_case "pool future inline at jobs=1" `Quick
      test_future_inline_jobs_one;
    Alcotest.test_case "pool future boxes exceptions" `Quick
      test_future_exception;
    Alcotest.test_case "await helps on a narrow pool" `Quick
      test_future_helping_narrow_pool;
    Alcotest.test_case "segments cover the trace exactly" `Quick
      test_segments_cover;
    Alcotest.test_case "segmenting sink == slicing" `Quick
      test_segmenting_sink_matches_segments;
    Alcotest.test_case "config compatibility" `Quick test_compatible;
    Alcotest.test_case "auto stride bounds" `Quick test_auto_steps_bounds;
    Alcotest.test_case "bad args raise" `Quick test_bad_args_raise;
    Alcotest.test_case "identical across strides" `Quick
      test_identical_strides;
    Alcotest.test_case "identical on a pool (collect_segments)" `Quick
      test_identical_on_pool;
    Alcotest.test_case "identical under step budgets" `Quick
      test_identical_step_budget;
    Alcotest.test_case "identical on truncated execution" `Quick
      test_identical_truncated_execution;
    Alcotest.test_case "invalid pc parity" `Quick test_invalid_pc_parity;
    Alcotest.test_case "harness: mixed predictors fall back" `Quick
      test_harness_mixed_predictors;
    Alcotest.test_case "harness: auto stride resolution" `Quick
      test_harness_auto_resolution;
    Alcotest.test_case "telemetry is scheduling-independent" `Quick
      test_obs_deterministic;
    Alcotest.test_case "check hook propagates" `Quick
      test_check_hook_propagates;
    QCheck_alcotest.to_alcotest prop_segmented_equals_sequential;
    Alcotest.test_case "all workloads: segmented == sequential" `Slow
      test_all_workloads_identical ]
