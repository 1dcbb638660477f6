(* The observability layer: registry semantics, histogram bucket
   edges, span nesting and merge determinism, exporter goldens, and
   the zero-interference property — enabling observability never
   changes a pipeline result. *)

module M = Obs.Metrics
module S = Obs.Span

(* --- registry ------------------------------------------------------ *)

let test_counter_basics () =
  let r = M.create () in
  let c = M.counter r ~help:"h" "x_total" in
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "value" 5 (M.counter_value c);
  (* registration is idempotent by name: same cell *)
  let c' = M.counter r "x_total" in
  M.incr c';
  Alcotest.(check int) "same cell" 6 (M.counter_value c);
  (* re-registering as a different kind is refused *)
  (match M.gauge r "x_total" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ());
  M.reset_counter c;
  Alcotest.(check int) "reset" 0 (M.counter_value c)

let test_gauge_max () =
  let r = M.create () in
  let g = M.gauge r "hw" in
  M.set_max g 5;
  M.set_max g 3;
  Alcotest.(check int) "max wins" 5 (M.gauge_value g);
  M.set_max g 7;
  Alcotest.(check int) "raised" 7 (M.gauge_value g)

let test_histogram_bucket_edges () =
  let r = M.create () in
  let h = M.histogram r ~buckets:[| 1; 2; 4; 8 |] "lat" in
  List.iter (M.observe h) [ 0; 1; 2; 3; 4; 5; 8; 9 ];
  match M.snapshot r with
  | [ { M.name = "lat"; value = M.Histogram { bounds; counts; sum }; _ } ] ->
    Alcotest.(check (array int)) "bounds" [| 1; 2; 4; 8 |] bounds;
    (* inclusive upper bounds: 0,1 | 2 | 3,4 | 5,8 | overflow 9 *)
    Alcotest.(check (array int)) "counts" [| 2; 1; 2; 2; 1 |] counts;
    Alcotest.(check int) "sum" 32 sum
  | _ -> Alcotest.fail "one histogram expected"

let test_snapshot_sorted () =
  let r = M.create () in
  M.incr (M.counter r "zz_total");
  M.incr (M.counter r "aa_total");
  M.set_max (M.gauge r "mm") 1;
  Alcotest.(check (list string)) "sorted by name"
    [ "aa_total"; "mm"; "zz_total" ]
    (List.map (fun (s : M.snap) -> s.name) (M.snapshot r))

(* --- spans --------------------------------------------------------- *)

let test_span_nesting () =
  let b = S.buffer () in
  let v =
    S.with_span b ~workload:"w" "outer" (fun () ->
        S.with_span b "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "value through" 42 v;
  let sk = Array.to_list (S.skeleton (S.spans b)) in
  Alcotest.(check bool) "open order, depths" true
    (sk = [ ("outer", "w", "", 0); ("inner", "", "", 1) ]);
  Array.iter
    (fun s -> Alcotest.(check bool) "closed" true (S.dur_ns s >= 0L))
    (S.spans b)

let test_span_exception_safety () =
  let b = S.buffer () in
  (match S.with_span b "boom" (fun () -> failwith "x") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  (* the span closed on the way out, and nesting state unwound *)
  let spans = S.spans b in
  Alcotest.(check int) "recorded" 1 (Array.length spans);
  Alcotest.(check bool) "closed" true (spans.(0).S.sp_stop_ns >= 0L);
  S.with_span b "after" (fun () -> ());
  Alcotest.(check int) "depth unwound" 0 (S.spans b).(1).S.sp_depth

let test_disabled_span_buffer () =
  Alcotest.(check bool) "inert" false (S.active S.disabled);
  Alcotest.(check int) "records nothing"
    (Array.length (S.spans S.disabled))
    (S.with_span S.disabled "x" (fun () ->
         Array.length (S.spans S.disabled)))

(* --- exporter goldens ---------------------------------------------- *)

let golden_spans =
  [| S.span ~workload:"awk" ~start_ns:0L ~stop_ns:1_500_000L "compile";
     S.span ~workload:"awk" ~machine:"SP" ~depth:1 ~start_ns:10L
       ~stop_ns:35L "analyze" |]

let golden_metrics =
  [ { M.name = "fault_planned_total{kind=\"bit-flip\"}"; help = "faults";
      value = M.Counter 2 };
    { M.name = "lat_ns"; help = "";
      value =
        M.Histogram { bounds = [| 1; 2 |]; counts = [| 2; 1; 1 |]; sum = 9 } }
  ]

let test_export_jsonl () =
  let buf = Buffer.create 256 in
  Obs.Export.jsonl buf ~spans:golden_spans ~metrics:golden_metrics;
  Alcotest.(check string) "jsonl"
    "{\"type\":\"span\",\"stage\":\"compile\",\"workload\":\"awk\",\
     \"machine\":\"\",\"depth\":0,\"start_ns\":0,\"dur_ns\":1500000}\n\
     {\"type\":\"span\",\"stage\":\"analyze\",\"workload\":\"awk\",\
     \"machine\":\"SP\",\"depth\":1,\"start_ns\":10,\"dur_ns\":25}\n\
     {\"type\":\"counter\",\"name\":\"fault_planned_total{kind=\\\"bit-flip\\\"}\",\
     \"value\":2}\n\
     {\"type\":\"histogram\",\"name\":\"lat_ns\",\"bounds\":[1,2],\
     \"counts\":[2,1,1],\"sum\":9}\n"
    (Buffer.contents buf)

let test_export_prometheus () =
  let buf = Buffer.create 256 in
  Obs.Export.prometheus buf golden_metrics;
  Alcotest.(check string) "prometheus"
    "# HELP fault_planned_total faults\n\
     # TYPE fault_planned_total counter\n\
     fault_planned_total{kind=\"bit-flip\"} 2\n\
     # TYPE lat_ns histogram\n\
     lat_ns_bucket{le=\"1\"} 2\n\
     lat_ns_bucket{le=\"2\"} 3\n\
     lat_ns_bucket{le=\"+Inf\"} 4\n\
     lat_ns_sum 9\n\
     lat_ns_count 4\n"
    (Buffer.contents buf)

let test_export_tree () =
  let buf = Buffer.create 256 in
  Obs.Export.tree buf ~metrics:golden_metrics golden_spans;
  let s = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "span line" true (contains "compile w=awk");
  Alcotest.(check bool) "duration" true (contains "1.500 ms");
  Alcotest.(check bool) "nested indent" true (contains "\n    analyze");
  Alcotest.(check bool) "counter line" true
    (contains "fault_planned_total{kind=\"bit-flip\"}");
  Alcotest.(check bool) "histogram summary" true (contains "count=4 sum=9")

(* --- pipeline integration ------------------------------------------ *)

let specs = [ Harness.spec Ilp.Machine.sp; Harness.spec Ilp.Machine.sp_cd_mf ]

let ws3 =
  List.filter
    (fun w ->
      List.mem w.Workloads.Registry.name [ "awk"; "eqntott"; "matrix300" ])
    Workloads.Registry.all

let run_obs ~jobs ws =
  let obs = Obs.Ctx.create ~registry:(M.create ()) () in
  match
    Harness.Run.exec (Harness.Run.config ~jobs ~fuel:40_000 ~obs specs) ws
  with
  | Ok items ->
    (items, S.skeleton (Obs.Ctx.spans obs), Obs.Ctx.snapshot obs)
  | Error e -> Alcotest.fail (Pipeline_error.to_string e)

let outcomes items =
  List.map
    (fun it ->
      match it.Harness.Run.it_outcome with
      | Ok rs ->
        List.map
          (fun (r : Ilp.Analyze.result) ->
            (r.machine, r.counted, r.cycles, r.mispredicts))
          rs
      | Error e -> Alcotest.fail (Pipeline_error.to_string e))
    items

let test_spans_per_stage () =
  let _, skel, _ = run_obs ~jobs:1 ws3 in
  (* exactly one compile, execute and analyze span per workload, at
     depth 0, in pipeline order *)
  let expected =
    List.concat_map
      (fun w ->
        let n = w.Workloads.Registry.name in
        [ ("compile", n, "", 0); ("execute", n, "", 0);
          ("analyze", n, "", 0) ])
      ws3
  in
  Alcotest.(check bool) "stage spans" true (Array.to_list skel = expected)

let test_parallel_determinism () =
  let i1, sk1, sn1 = run_obs ~jobs:1 ws3 in
  let i4, sk4, sn4 = run_obs ~jobs:4 ws3 in
  Alcotest.(check bool) "results identical" true (outcomes i1 = outcomes i4);
  Alcotest.(check bool) "span skeleton identical" true (sk1 = sk4);
  Alcotest.(check bool) "metric snapshot identical" true (sn1 = sn4)

let test_counters_in_global_registry () =
  Harness.Counters.reset ();
  let w = Workloads.Registry.find "awk" in
  let p = Harness.prepare ~fuel:30_000 w in
  let _ = Harness.Run.on_prepared p specs in
  let snap = M.snapshot M.global in
  let value name =
    match
      List.find_opt (fun (s : M.snap) -> s.name = name) snap
    with
    | Some { M.value = M.Counter v; _ } -> v
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "executions absorbed"
    (Harness.Counters.executions ())
    (value "pipeline_executions_total");
  Alcotest.(check int) "passes absorbed"
    (Harness.Counters.passes ())
    (value "pipeline_trace_passes_total");
  Alcotest.(check int) "entries absorbed"
    (Harness.Counters.entries ())
    (value "pipeline_trace_entries_total")

let test_jobs_validation () =
  let expect_invalid what = function
    | Ok _ -> Alcotest.fail (what ^ ": jobs=0 accepted")
    | Error (e : Pipeline_error.t) ->
      (match e.cause with
      | Pipeline_error.Invalid_request _ -> ()
      | _ -> Alcotest.fail (what ^ ": wrong cause"));
      Alcotest.(check int) (what ^ " exit code") 2 (Pipeline_error.exit_code e);
      Pipeline_error.to_string e
  in
  let a =
    expect_invalid "Run.exec"
      (Harness.Run.exec (Harness.Run.config ~jobs:0 specs) ws3)
  in
  let b =
    expect_invalid "Fuzz.run"
      (Harness.Fuzz.run ~fuel:10_000 ~jobs:0 ~seed:1 ~cases:1 ())
  in
  Alcotest.(check string) "same message across surfaces" a b

(* qcheck: observability is read-only — an enabled context never
   changes any analysis number, for arbitrary workload/fuel choices. *)
let prop_obs_zero_interference =
  QCheck.Test.make ~count:20 ~name:"enabled obs never changes results"
    (QCheck.pair (QCheck.int_range 0 9) (QCheck.int_range 2_000 30_000))
    (fun (wi, fuel) ->
      let w = List.nth Workloads.Registry.all wi in
      let run obs =
        match
          Harness.Run.exec (Harness.Run.config ~fuel ~obs specs) [ w ]
        with
        | Ok items -> outcomes items
        | Error _ -> []
      in
      run Obs.Ctx.disabled
      = run (Obs.Ctx.create ~registry:(M.create ()) ()))

let suite =
  [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "gauge high-water mark" `Quick test_gauge_max;
    Alcotest.test_case "histogram bucket edges" `Quick
      test_histogram_bucket_edges;
    Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick
      test_span_exception_safety;
    Alcotest.test_case "disabled buffer is inert" `Quick
      test_disabled_span_buffer;
    Alcotest.test_case "jsonl golden" `Quick test_export_jsonl;
    Alcotest.test_case "prometheus golden" `Quick test_export_prometheus;
    Alcotest.test_case "tree export" `Quick test_export_tree;
    Alcotest.test_case "one span per stage" `Quick test_spans_per_stage;
    Alcotest.test_case "jobs=4 == sequential" `Slow
      test_parallel_determinism;
    Alcotest.test_case "Counters live in the registry" `Quick
      test_counters_in_global_registry;
    Alcotest.test_case "jobs validated everywhere" `Quick
      test_jobs_validation;
    QCheck_alcotest.to_alcotest prop_obs_zero_interference ]
