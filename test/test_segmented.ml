(* Intra-trace parallel analysis (DESIGN.md §15): the segment pipeline
   must be bit-identical to the sequential analyzer for every machine
   spec, every segment stride, every pool width and every trace shape —
   including truncated executions, step-budget cuts, invalid pcs and
   collected segments — and must never hold more than two segments;
   the harness pipelines exactly when handed a pool wider than one
   domain.  Plus the building blocks: trace segmentation coverage, pool
   futures, config compatibility and the deterministic telemetry the
   pipeline emits. *)

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

(* The pipeline holds two segments, so the auto stride is one trace
   chunk for every trace length and pool width. *)
let test_auto_steps_bounds () =
  List.iter
    (fun (trace_len, jobs) ->
      Alcotest.(check int)
        (Printf.sprintf "trace %d, jobs %d" trace_len jobs)
        Vm.Trace.chunk_size
        (Ilp.Segmented.auto_steps ~trace_len ~jobs))
    [ (0, 1); (1000, 4); (250_000, 2); (100_000_000, 2) ]

(* The stitch partition depends on the config count alone: contiguous
   sub-groups of at most four, as even as possible, covering every
   position once in order. *)
let test_subgroups () =
  let check n want =
    Alcotest.(check (list (list int)))
      (Printf.sprintf "%d configs" n)
      want (Ilp.Segmented.subgroups n)
  in
  check 1 [ [ 0 ] ];
  check 4 [ [ 0; 1; 2; 3 ] ];
  check 5 [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  check 7 [ [ 0; 1; 2 ]; [ 3; 4; 5; 6 ] ];
  check 9 [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7; 8 ] ];
  for n = 1 to 40 do
    let gs = Ilp.Segmented.subgroups n in
    Alcotest.(check (list int)) "covers in order" (List.init n Fun.id)
      (List.concat gs);
    Alcotest.(check bool) "at most four each" true
      (List.for_all (fun g -> g <> [] && List.length g <= 4) gs)
  done

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
  List.iter
    (fun steps ->
      match
        Ilp.Segmented.run ~segment_steps:steps [ cfg ] info (mk_trace 3)
      with
      | _ -> Alcotest.failf "expected Invalid_argument for steps=%d" steps
      | exception Invalid_argument _ -> ())
    [ 0; -3 ]

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

(* Each program prepared, with the trace its replay analyzes. *)
let prepared =
  List.map
    (fun (name, src) ->
      ( name,
        lazy
          (let p = Harness.prepare_source ~name src in
           (p, Recorded.trace p)) ))
    sources

let configs_for (p : Harness.prepared) ~collect ~step_budget =
  let predictor = Harness.profile_predictor p in
  List.map
    (fun m ->
      Ilp.Analyze.config ~collect_segments:collect ?step_budget m predictor)
    Ilp.Machine.all_paper

let check_identical ?pool ~segment_steps ~name
    ((p : Harness.prepared), trace) configs =
  let seq =
    Ilp.Analyze.run_many ~completeness:p.completeness configs p.info trace
  in
  let seg =
    Ilp.Segmented.run ?pool ~completeness:p.completeness ~segment_steps
      configs p.info trace
  in
  Alcotest.(check (list result_t))
    (Printf.sprintf "%s steps=%d" name segment_steps)
    seq seg.Ilp.Segmented.results;
  let expect_segments =
    (Vm.Trace.length trace + segment_steps - 1) / segment_steps
  in
  Alcotest.(check int)
    (name ^ " segment count")
    expect_segments seg.Ilp.Segmented.segments

let test_identical_strides () =
  List.iter
    (fun (name, lp) ->
      let ((p, trace) as pt) = Lazy.force lp in
      let configs = configs_for p ~collect:false ~step_budget:None in
      List.iter
        (fun segment_steps ->
          check_identical ~segment_steps ~name pt configs)
        [ 1; 7; 64; Vm.Trace.length trace + 1 ])
    prepared

let test_identical_on_pool () =
  Stdx.Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun (name, lp) ->
          let ((p, _) as pt) = Lazy.force lp in
          let configs = configs_for p ~collect:true ~step_budget:None in
          check_identical ~pool ~segment_steps:50 ~name pt configs)
        prepared)

let test_identical_step_budget () =
  (* The budget cut must land on the same entry segmented or not, and
     the Truncated tag must carry through the sub-group states. *)
  let _, lp = List.hd prepared in
  let ((p, _) as pt) = Lazy.force lp in
  List.iter
    (fun budget ->
      let configs =
        configs_for p ~collect:false ~step_budget:(Some budget)
      in
      check_identical ~segment_steps:33 ~name:"budget" pt configs)
    [ 1; 17; 400 ]

let test_identical_truncated_execution () =
  (* A fuel-capped execution: completeness is Truncated before analysis
     even starts; both paths must tag results identically. *)
  let p =
    Harness.prepare_source ~name:"spin" ~fuel:5_000
      "int main(void) { int i; int s = 0; for (i = 0; i < 1000000; i = i + 1) s = s + i; return s; }"
  in
  let configs = configs_for p ~collect:false ~step_budget:None in
  check_identical ~segment_steps:999 ~name:"truncated"
    (p, Recorded.trace p) configs

let test_invalid_pc_parity () =
  (* A hand-built trace wandering outside the code segment: the
     sequential analyzer raises at the offending entry; the pipeline
     must defer its decode marker to the same apply step and raise the
     same exception. *)
  let p, _ = Lazy.force (snd (List.hd prepared)) in
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
  let seg ?pool () =
    match
      Ilp.Segmented.run ?pool ~segment_steps:2 configs p.Harness.info t
    with
    | _ -> "no-raise"
    | exception Invalid_argument m -> m
  in
  Alcotest.(check string) "same Invalid_argument" seq (seg ());
  Alcotest.(check bool) "did raise" true (seq <> "no-raise");
  (* ...but a step budget that cuts before the bad entry means neither
     path ever applies it: no raise, identical truncated results.
     Budget 0 trips the guard on the very first entry, so the cut is
     guaranteed to land ahead of the invalid pc. *)
  let capped = configs_for p ~collect:false ~step_budget:(Some 0) in
  check_identical ~segment_steps:2 ~name:"cut before invalid" (p, t) capped;
  (* On a pool the raise happens in an apply task and reaches the
     producer when it retires the segment. *)
  Stdx.Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check string) "same Invalid_argument on a pool" seq
        (seg ~pool ());
      check_identical ~pool ~segment_steps:2
        ~name:"pooled cut before invalid" (p, t) capped)

(* ------------------------------------------------------------------ *)
(* Harness-level: the pool is the switch.  fib(15)'s trace (about 33k
   entries) crosses two segment boundaries at the one-chunk stride. *)

let long_calls =
  lazy
    (Harness.prepare_source ~name:"long-calls"
       {|int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
         int main(void) { return fib(15); }|})

(* The segments a call adds to the pipeline counter, with its result. *)
let counting_segments f =
  let g0 = Harness.Counters.segments () in
  let r = f () in
  (r, Harness.Counters.segments () - g0)

(* Heterogeneous spec lists (profile + perfect + the stateful 2-bit,
   whose groups the producer classifies in trace order and the pool
   applies like any other) through Run.on_prepared on a pool. *)
let test_harness_mixed_predictors () =
  let p = Lazy.force long_calls in
  let specs =
    [ Harness.spec Ilp.Machine.sp_cd_mf;
      Harness.spec ~predictor:`Two_bit Ilp.Machine.sp_cd_mf;
      Harness.spec ~predictor:`Perfect Ilp.Machine.sp_cd;
      Harness.spec ~predictor:`Two_bit Ilp.Machine.sp;
      Harness.spec ~inline:false Ilp.Machine.cd ]
  in
  let seq = Harness.Run.on_prepared p specs in
  Stdx.Pool.with_pool ~jobs:3 (fun pool ->
      let seg, n =
        counting_segments (fun () -> Harness.Run.on_prepared ~pool p specs)
      in
      Alcotest.(check (list result_t)) "mixed specs identical" seq seg;
      Alcotest.(check bool) (Printf.sprintf "%d segments > 1" n) true (n > 1))

(* On a pool the replay's stride is one chunk cut to the trace: a
   short trace is one segment, a longer one a segment per chunk. *)
let test_harness_auto_resolution () =
  let specs = [ Harness.spec Ilp.Machine.sp_cd_mf ] in
  Stdx.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (name, (p : Harness.prepared)) ->
          let seq = Harness.Run.on_prepared p specs in
          let seg, n =
            counting_segments (fun () ->
                Harness.Run.on_prepared ~pool p specs)
          in
          Alcotest.(check (list result_t)) (name ^ " identical") seq seg;
          Alcotest.(check int) (name ^ " segments")
            ((p.steps + Vm.Trace.chunk_size - 1) / Vm.Trace.chunk_size)
            n)
        (("long-calls", Lazy.force long_calls)
        :: List.map (fun (name, lp) -> (name, fst (Lazy.force lp))) prepared))

(* Run.on_prepared and Request.exec pipeline exactly when handed a
   pool wider than one domain, and return the same results every
   way. *)
let test_pool_is_the_switch () =
  let p = Lazy.force long_calls in
  let specs = List.map Harness.spec Ilp.Machine.all_paper in
  let w = Workloads.Registry.find "awk" in
  let request pool =
    match Harness.Request.exec ~fuel:40_000 ?pool ~specs w with
    | Ok r -> r.Harness.Request.r_results
    | Error e -> Alcotest.fail (Pipeline_error.to_string e)
  in
  List.iter
    (fun (what, run) ->
      let on jobs =
        Stdx.Pool.with_pool ~jobs (fun pool ->
            counting_segments (fun () -> run (Some pool)))
      in
      let plain, n0 = counting_segments (fun () -> run None) in
      let narrow, n1 = on 1 in
      let wide, n2 = on 2 in
      Alcotest.(check int) (what ^ ": no pool, no segments") 0 n0;
      Alcotest.(check int) (what ^ ": one-domain pool, no segments") 0 n1;
      Alcotest.(check bool) (what ^ ": two-domain pool pipelines") true
        (n2 > 1);
      Alcotest.(check (list result_t)) (what ^ ": one domain") plain narrow;
      Alcotest.(check (list result_t)) (what ^ ": two domains") plain wide)
    [ ("on_prepared", fun pool -> Harness.Run.on_prepared ?pool p specs);
      ("Request.exec", request) ]

(* ------------------------------------------------------------------ *)
(* Telemetry: segment spans merge deterministically (same skeleton with
   and without a pool), the outcome counts the hand-offs, and the stall
   histogram and live-segment gauge register. *)

let test_obs_deterministic () =
  let skeleton_of run =
    let obs = Obs.Ctx.create () in
    run obs;
    (Obs.Span.skeleton (Obs.Ctx.spans obs), Obs.Ctx.snapshot obs)
  in
  let p, trace = Lazy.force (snd (List.hd prepared)) in
  let configs = configs_for p ~collect:false ~step_budget:None in
  let segments = ref 0 in
  let run ?pool obs =
    segments :=
      (Ilp.Segmented.run ?pool ~obs ~span_index_base:100 ~workload:"w"
         ~completeness:p.completeness ~segment_steps:60 configs p.info trace)
        .segments
  in
  let sk_seq, snap_seq = skeleton_of (fun obs -> run obs) in
  let sk_par, _ =
    skeleton_of (fun obs ->
        Stdx.Pool.with_pool ~jobs:3 (fun pool -> run ~pool obs))
  in
  Alcotest.(check bool) "span skeleton scheduling-independent" true
    (sk_seq = sk_par);
  Alcotest.(check int) "segments"
    ((Vm.Trace.length trace + 59) / 60)
    !segments;
  Alcotest.(check bool) "stall histogram registered" true
    (List.exists
       (fun (s : Obs.Metrics.snap) -> s.name = "analyze_segment_stall_ns")
       snap_seq);
  (* Without a pool each segment applies inline before the next fills. *)
  Alcotest.(check bool) "one segment live at a time un-pooled" true
    (List.exists
       (fun (s : Obs.Metrics.snap) ->
         s.name = "analyze_segments_live_max"
         && s.value = Obs.Metrics.Gauge 1)
       snap_seq)

(* The pipeline's memory bound, pinned: gcc at its default fuel (1.38M
   entries) replayed through Run.exec with [`Auto] on two domains
   passes more segments than the bound, yet never has more than two
   live — one applying while the VM fills the next. *)
let test_two_segments_live () =
  let obs = Obs.Ctx.create ~registry:(Obs.Metrics.create ()) () in
  let cfg =
    Harness.Run.config ~jobs:2 ~segment_steps:`Auto ~obs
      (List.map Harness.spec Ilp.Machine.all_paper)
  in
  let outcome, n =
    counting_segments (fun () ->
        Harness.Run.exec cfg [ Workloads.Registry.find "gcc" ])
  in
  (match outcome with
  | Ok [ { Harness.Run.it_outcome = Ok _; _ } ] -> ()
  | _ -> Alcotest.fail "gcc replay failed");
  Alcotest.(check bool) (Printf.sprintf "%d segments > 2" n) true (n > 2);
  match
    List.find_map
      (fun (s : Obs.Metrics.snap) ->
        if s.name = "analyze_segments_live_max" then Some s.value else None)
      (Obs.Ctx.snapshot obs)
  with
  | Some (Obs.Metrics.Gauge n) ->
    Alcotest.(check int) "live segments high-water" 2 n
  | _ -> Alcotest.fail "analyze_segments_live_max missing"

(* The deadline hook's exception reaches the caller inline, and on a
   pool, where it may be raised in an apply task. *)
let test_check_hook_propagates () =
  let p, trace = Lazy.force (snd (List.hd prepared)) in
  let configs = configs_for p ~collect:false ~step_budget:None in
  let run ?pool () =
    let calls = Atomic.make 0 in
    let check () =
      if Atomic.fetch_and_add calls 1 >= 2 then failwith "deadline!"
    in
    match
      Ilp.Segmented.run ?pool ~check ~segment_steps:30 configs p.info trace
    with
    | _ -> Alcotest.fail "expected the check hook's exception"
    | exception Failure m -> Alcotest.(check string) "hook exn" "deadline!" m
  in
  run ();
  Stdx.Pool.with_pool ~jobs:2 (fun pool -> run ~pool ())

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
          let p, trace = Lazy.force lp in
          let predictor = Harness.profile_predictor p in
          let configs =
            [ Ilp.Analyze.config machine predictor;
              Ilp.Analyze.config Ilp.Machine.sp_cd_mf predictor ]
          in
          let seq =
            Ilp.Analyze.run_many ~completeness:p.completeness configs p.info
              trace
          in
          let seg =
            if jobs = 1 then
              Ilp.Segmented.run ~completeness:p.completeness ~segment_steps
                configs p.info trace
            else
              Stdx.Pool.with_pool ~jobs (fun pool ->
                  Ilp.Segmented.run ~pool ~completeness:p.completeness
                    ~segment_steps configs p.info trace)
          in
          seq = seg.Ilp.Segmented.results)
        prepared)

(* qcheck: 1–8 random lattice machines on one predictor, with random
   step budgets, segment collection on some and probes on all, analyzed
   as one lockstep group must equal each machine analyzed alone — the
   results and the probe registry alike — through run_many, sink_many
   and Segmented.run.  Equality with the singles is what shows a budget
   cut freezing only its own machine's counted, dyn_branches and
   mispredicts, which the group otherwise shares. *)
let group_programs =
  List.map
    (fun (name, src) ->
      lazy
        (let p = Harness.prepare_source ~train_values:true ~name src in
         (p, Recorded.trace p)))
    sources
  @ List.map
      (fun name ->
        lazy
          (let p =
             Harness.prepare ~fuel:40_000 ~train_values:true
               (Workloads.Registry.find name)
           in
           (p, Recorded.trace p)))
      [ "gcc"; "matrix300" ]

let prop_group_equals_singles =
  QCheck.Test.make ~count:40
    ~name:"one group == each machine alone (run_many/sink_many/segmented)"
    QCheck.(
      quad
        (list_of_size
           Gen.(int_range 1 8)
           (triple (int_bound 0x3FFFFFFF)
              (option (int_range 1 40_000))
              bool))
        (int_range 1 5_000) bool
        (int_bound (List.length group_programs - 1)))
    (fun (specs, segment_steps, pooled, prog) ->
      let p, trace = Lazy.force (List.nth group_programs prog) in
      let predictor = Harness.profile_predictor p in
      let value_table =
        Option.map Predict.Predictor.Value.table p.Harness.values
      in
      let completeness = p.completeness in
      (* Each analysis gets fresh configs whose probes share one fresh
         registry, returned with the results. *)
      let analyzed f =
        let reg = Obs.Metrics.create () in
        let configs =
          List.map
            (fun (seed, step_budget, collect_segments) ->
              let machine = Ilp.Machine.random seed in
              Ilp.Analyze.config ~collect_segments ?step_budget ?value_table
                ~probe:
                  (Obs.Probe.analyzer ~sample_every:64 reg
                     ~machine:machine.Ilp.Machine.name)
                machine predictor)
            specs
        in
        let results = f configs in
        (results, Obs.Metrics.snapshot reg)
      in
      let alone =
        analyzed
          (List.map (fun c -> Ilp.Analyze.run ~completeness c p.info trace))
      in
      let by_run_many =
        analyzed (fun cs -> Ilp.Analyze.run_many ~completeness cs p.info trace)
      in
      let by_sink =
        analyzed (fun cs ->
            let sink, finish = Ilp.Analyze.sink_many cs p.info in
            Vm.Trace.iter sink.Vm.Trace.on_entry trace;
            sink.on_close ();
            finish ~completeness ())
      in
      let segmented ?pool cs =
        (Ilp.Segmented.run ?pool ~completeness ~segment_steps cs p.info trace)
          .Ilp.Segmented.results
      in
      let by_segmented =
        analyzed (fun cs ->
            if pooled then
              Stdx.Pool.with_pool ~jobs:2 (fun pool -> segmented ~pool cs)
            else segmented cs)
      in
      alone = by_run_many && alone = by_sink && alone = by_segmented)

(* All ten registry workloads, truncated by a small fuel, through the
   harness segment pipeline on a pool — the acceptance sweep. *)
let test_all_workloads_identical () =
  let fuel = 30_000 in
  let specs = List.map Harness.spec Ilp.Machine.all_paper in
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let p = Harness.prepare ~fuel w in
      let seq = Harness.Run.on_prepared p specs in
      Stdx.Pool.with_pool ~jobs:4 (fun pool ->
          let seg, n =
            counting_segments (fun () ->
                Harness.Run.on_prepared ~pool p specs)
          in
          Alcotest.(check (list result_t)) (w.name ^ ": segmented") seq seg;
          Alcotest.(check int) (w.name ^ ": segments") 2 n))
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
    Alcotest.test_case "config compatibility" `Quick test_compatible;
    Alcotest.test_case "auto stride bounds" `Quick test_auto_steps_bounds;
    Alcotest.test_case "stitch sub-groups" `Quick test_subgroups;
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
    Alcotest.test_case "harness: the pool is the switch" `Quick
      test_pool_is_the_switch;
    Alcotest.test_case "telemetry is scheduling-independent" `Quick
      test_obs_deterministic;
    Alcotest.test_case "check hook propagates" `Quick
      test_check_hook_propagates;
    Alcotest.test_case "gcc pipeline: at most two segments live" `Quick
      test_two_segments_live;
    QCheck_alcotest.to_alcotest prop_segmented_equals_sequential;
    QCheck_alcotest.to_alcotest prop_group_equals_singles;
    Alcotest.test_case "all workloads: segmented == sequential" `Slow
      test_all_workloads_identical ]
