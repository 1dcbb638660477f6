(* The streaming fan-out pipeline: advancing many machine states over
   one trace pass (Analyze.run_many), or over a live VM execution with
   no materialized trace (Harness.Run.exec with stream on), must be
   bit-identical to independent single-machine runs — and the harness
   must do exactly one execution and one analyzer pass per prepared
   workload. *)

let machines = Ilp.Machine.all_paper

(* Run one workload through the streaming pipeline, unwrapping the
   single item the unified entry point returns. *)
let run_stream ?fuel w specs =
  match
    Harness.Run.exec (Harness.Run.config ?fuel ~stream:true specs) [ w ]
  with
  | Ok [ { Harness.Run.it_outcome = Ok rs; _ } ] -> rs
  | Ok [ { Harness.Run.it_outcome = Error e; _ } ] ->
    Alcotest.fail (Pipeline_error.to_string e)
  | Ok _ -> Alcotest.fail "one workload, one item"
  | Error e -> Alcotest.fail (Pipeline_error.to_string e)

let pp_result fmt (r : Ilp.Analyze.result) =
  Format.fprintf fmt
    "{machine=%s; counted=%d; seq=%d; cycles=%d; par=%.6f; dyn=%d; mis=%d; \
     segs=%d}"
    r.machine r.counted r.seq_cycles r.cycles r.parallelism r.dyn_branches
    r.mispredicts (Array.length r.segments)

let equal_result (a : Ilp.Analyze.result) (b : Ilp.Analyze.result) =
  a.machine = b.machine && a.counted = b.counted
  && a.seq_cycles = b.seq_cycles && a.cycles = b.cycles
  && a.parallelism = b.parallelism && a.dyn_branches = b.dyn_branches
  && a.mispredicts = b.mispredicts && a.segments = b.segments

let result_t = Alcotest.testable pp_result equal_result

(* run_many vs seven independent runs, over one materialized trace. *)
let test_run_many_golden wname () =
  let w = Workloads.Registry.find wname in
  let p = Harness.prepare ~fuel:200_000 w in
  let predictor = Harness.profile_predictor p in
  let cfgs =
    List.map
      (fun m ->
        (* segments on, so the comparison also covers segment capture *)
        Ilp.Analyze.config ~collect_segments:true m predictor)
      machines
  in
  let together = Ilp.Analyze.run_many cfgs p.info p.trace in
  let separate = List.map (fun c -> Ilp.Analyze.run c p.info p.trace) cfgs in
  List.iter2
    (fun got want ->
      Alcotest.check result_t
        ("run_many = run: " ^ want.Ilp.Analyze.machine) want got)
    together separate

(* The Figure 2/3 worked example (a loop with a data-dependent if, then
   control-independent code), materialized vs fully streaming. *)
let figure2_source =
  {|
int a[6] = {1, 0, 1, 1, 0, 1};
int out;
int side;

int main(void) {
  int i;
  int x = 0;
  for (i = 0; i < 6; i = i + 1) {
    if (a[i]) x = x + 1;
    else side = side + 1;
  }
  out = 7;
  return x;
}
|}

let figure2_workload =
  { Workloads.Registry.name = "figure2"; description = "worked example";
    lang = "C"; numeric = false; source = figure2_source; fuel = 100_000;
    expected_result = None }

let streaming_matches w specs () =
  let materialized =
    Harness.Run.on_prepared (Harness.prepare w) specs
  in
  let streamed = run_stream w specs in
  List.iter2
    (fun want got ->
      Alcotest.check result_t
        ("streaming = materialized: " ^ want.Ilp.Analyze.machine) want got)
    materialized streamed

let test_streaming_figure2 () =
  let specs =
    List.map Harness.spec machines
    @ [ Harness.spec ~segments:true Ilp.Machine.sp ]
  in
  streaming_matches figure2_workload specs ()

let test_streaming_workload () =
  let w = { (Workloads.Registry.find "eqntott") with fuel = 150_000 } in
  streaming_matches w (List.map Harness.spec machines) ()

(* The acceptance criterion: a prepared workload costs one VM execution,
   and fanning out all seven machines costs one trace pass. *)
let test_counters () =
  Harness.Counters.reset ();
  let w = Workloads.Registry.find "gcc" in
  let p = Harness.prepare ~fuel:150_000 w in
  Alcotest.(check int) "one execution" 1 (Harness.Counters.executions ());
  let _ = Harness.Run.on_prepared p (List.map Harness.spec machines) in
  Alcotest.(check int) "still one execution" 1
    (Harness.Counters.executions ());
  Alcotest.(check int) "one pass for seven machines" 1
    (Harness.Counters.passes ());
  Alcotest.(check int) "every entry scanned once" (Vm.Trace.length p.trace)
    (Harness.Counters.entries ());
  Alcotest.(check int) "seven states advanced per entry"
    (7 * Vm.Trace.length p.trace)
    (Harness.Counters.state_entries ());
  Alcotest.(check int) "execution profiled every entry"
    (Vm.Trace.length p.trace)
    (Harness.Counters.profiled_entries ());
  Alcotest.(check int) "analyzed = profiled + state entries"
    (8 * Vm.Trace.length p.trace)
    (Harness.Counters.analyzed ());
  (* Table 2 statistics come from the execution-time profile: no extra
     execution, no extra pass. *)
  let _ = Harness.branch_stats p in
  let _ = Harness.profile_predictor p in
  Alcotest.(check int) "stats cost no pass" 1 (Harness.Counters.passes ());
  Harness.Counters.reset ()

(* Paper-shape invariant: relaxing control constraints never lowers
   parallelism.  BASE <= CD <= CD-MF <= ORACLE (control dependence
   track) and SP <= SP-CD <= SP-CD-MF <= ORACLE (speculation track). *)
let test_machine_ordering wname () =
  let w = Workloads.Registry.find wname in
  let p = Harness.prepare ~fuel:200_000 w in
  let results =
    Harness.Run.on_prepared p (List.map Harness.spec machines)
  in
  let par name =
    (List.find (fun (r : Ilp.Analyze.result) -> r.machine = name) results)
      .parallelism
  in
  let leq a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s <= %s (%.3f vs %.3f)" a b (par a) (par b))
      true
      (par a <= par b)
  in
  leq "BASE" "CD";
  leq "CD" "CD-MF";
  leq "CD-MF" "ORACLE";
  leq "SP" "SP-CD";
  leq "SP-CD" "SP-CD-MF";
  leq "SP-CD-MF" "ORACLE";
  leq "BASE" "SP"

(* The chunk-major fan-out against an entry-major reference written
   here: every state steps entry by entry, each entry classified by its
   own config's decoder.  Trace lengths straddle the chunk size; the
   configs mix decode groups (one profile, perfect and btfn record
   shared by several machines, a fresh 2-bit counter per config, an
   inline-off config) and step budgets that cut inside a chunk. *)
let gcc_flat =
  lazy (Workloads.Registry.compile (Workloads.Registry.find "gcc"))

(* Fresh 2-bit counters on every call: each analysis owns its own. *)
let mixed_configs flat (info : Ilp.Program_info.t) trace =
  let c = Vm.Trace.chunk_size in
  let profile =
    Predict.Predictor.profile ~n_static:info.n
      ~is_cond:(Ilp.Program_info.is_cond_branch info) trace
  in
  let btfn =
    Predict.Predictor.backward_taken
      ~is_backward:(Ilp.Program_info.branch_backward flat)
  in
  let perfect = Predict.Predictor.perfect in
  let two_bit () = Predict.Predictor.two_bit ~n_static:info.n in
  let cfg = Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words in
  Ilp.Machine.
    [ cfg sp_cd_mf profile;
      cfg ~step_budget:((c / 2) + 3) cd profile;
      cfg ~collect_segments:true sp profile;
      cfg ~inline:false base profile;
      cfg oracle perfect;
      cfg ~step_budget:(c + 1000) sp_cd perfect;
      cfg cd_mf btfn;
      cfg ~collect_segments:true sp (two_bit ());
      cfg ~step_budget:(c + 5) sp_cd_mf (two_bit ()) ]

let entry_major ~completeness configs info trace =
  let states =
    List.map
      (fun c -> (Ilp.Analyze.decoder c info, Ilp.Analyze.State.create c info))
      configs
  in
  Vm.Trace.iter
    (fun ~pc ~aux ->
      List.iter
        (fun (decode, st) ->
          Ilp.Analyze.State.step_bits st ~pc ~aux ~bits:(decode ~pc ~aux))
        states)
    trace;
  List.map (fun (_, st) -> Ilp.Analyze.State.finish ~completeness st) states

let check_same what want got =
  Alcotest.(check (list result_t)) what want got;
  Alcotest.(check bool) (what ^ ": completeness") true
    (List.map (fun (r : Ilp.Analyze.result) -> r.completeness) want
     = List.map (fun (r : Ilp.Analyze.result) -> r.completeness) got)

let budget_cut (r : Ilp.Analyze.result) =
  match r.completeness with
  | Pipeline_error.Truncated { f_kind = Step_budget; _ } -> true
  | _ -> false

let test_chunk_boundaries () =
  let flat = Lazy.force gcc_flat in
  let info = Ilp.Program_info.analyze_flat flat in
  let c = Vm.Trace.chunk_size in
  List.iter
    (fun n ->
      let o = Vm.Exec.run ~fuel:n flat in
      Alcotest.(check int) "trace length" n (Vm.Trace.length o.trace);
      let completeness = Vm.Exec.completeness_of o in
      let configs () = mixed_configs flat info o.trace in
      let want = entry_major ~completeness (configs ()) info o.trace in
      check_same
        (Printf.sprintf "run_many, %d entries" n)
        want
        (Ilp.Analyze.run_many ~completeness (configs ()) info o.trace);
      let sink, finish = Ilp.Analyze.sink_many (configs ()) info in
      let o' = Vm.Exec.run ~fuel:n ~record:false ~sink flat in
      check_same
        (Printf.sprintf "sink_many, %d entries" n)
        want
        (finish ~completeness:(Vm.Exec.completeness_of o') ());
      if n = (2 * c) + 7 then
        Alcotest.(check int) "every budget cut inside the trace" 3
          (List.length (List.filter budget_cut want)))
    [ 0; 1; c - 1; c; c + 1; (2 * c) + 7 ]

(* The per-entry step allocates nothing: seven paper machines over a
   200k-step trace stay under one minor-heap word per entry (the
   per-call state and buffers included). *)
let test_fanout_allocation () =
  let p = Harness.prepare ~fuel:200_000 (Workloads.Registry.find "gcc") in
  let predictor = Harness.profile_predictor p in
  let cfgs =
    List.map
      (fun m ->
        Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words m predictor)
      machines
  in
  let before = Gc.minor_words () in
  ignore (Ilp.Analyze.run_many cfgs p.info p.trace);
  let per_entry =
    (Gc.minor_words () -. before) /. float_of_int (Vm.Trace.length p.trace)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per entry < 1" per_entry)
    true (per_entry < 1.)

let suite =
  [ Alcotest.test_case "run_many golden: gcc" `Quick
      (test_run_many_golden "gcc");
    Alcotest.test_case "run_many golden: matrix300" `Quick
      (test_run_many_golden "matrix300");
    Alcotest.test_case "streaming figure2" `Quick test_streaming_figure2;
    Alcotest.test_case "streaming workload" `Quick test_streaming_workload;
    Alcotest.test_case "execution/pass counters" `Quick test_counters;
    Alcotest.test_case "machine ordering: gcc" `Quick
      (test_machine_ordering "gcc");
    Alcotest.test_case "machine ordering: matrix300" `Quick
      (test_machine_ordering "matrix300");
    Alcotest.test_case "chunk boundaries: run_many = sink_many = entry-major"
      `Quick test_chunk_boundaries;
    Alcotest.test_case "fan-out allocation under a word per entry" `Quick
      test_fanout_allocation ]
