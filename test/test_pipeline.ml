(* The fan-out pipeline: advancing many machine states over one trace
   pass (Analyze.run_many), or over a live VM replay with no
   materialized trace (Harness.Run.exec), must be bit-identical to
   independent single-machine runs — and the harness must do exactly
   one training execution, one replay and one analyzer pass per
   workload. *)

let machines = Ilp.Machine.all_paper

(* Run one workload through the unified entry point, unwrapping the
   single item it returns. *)
let run_exec ?fuel ?deadline_ms ~jobs w specs =
  match
    Harness.Run.exec
      (Harness.Run.config ?fuel ?deadline_ms ~jobs specs)
      [ w ]
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
  let trace = Recorded.trace p in
  let predictor = Harness.profile_predictor p in
  let cfgs =
    List.map
      (fun m ->
        (* segments on, so the comparison also covers segment capture *)
        Ilp.Analyze.config ~collect_segments:true m predictor)
      machines
  in
  let together = Ilp.Analyze.run_many cfgs p.info trace in
  let separate = List.map (fun c -> Ilp.Analyze.run c p.info trace) cfgs in
  List.iter2
    (fun got want ->
      Alcotest.check result_t
        ("run_many = run: " ^ want.Ilp.Analyze.machine) want got)
    together separate

(* The Figure 2/3 worked example (a loop with a data-dependent if, then
   control-independent code), materialized vs streamed from the
   replay. *)
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

(* Run.exec against a scan of a trace recorded with Vm.Exec.run, under a
   profile predictor trained on that trace. *)
let streaming_matches (w : Workloads.Registry.t) specs () =
  let flat = Workloads.Registry.compile w in
  let info = Ilp.Program_info.analyze_flat flat in
  let o = Vm.Exec.run ~fuel:w.fuel flat in
  let predictor =
    Predict.Predictor.profile ~n_static:info.n
      ~is_cond:(Ilp.Program_info.is_cond_branch info) o.trace
  in
  let configs =
    List.map
      (fun (s : Harness.spec) ->
        Ilp.Analyze.config ~collect_segments:s.s_segments
          ~mem_words:Vm.Exec.default_mem_words s.s_machine predictor)
      specs
  in
  let materialized =
    Ilp.Analyze.run_many ~completeness:(Vm.Exec.completeness_of o) configs
      info o.trace
  in
  let streamed = run_exec ~jobs:1 w specs in
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

(* The acceptance criterion: preparing a workload costs one (training)
   execution, and fanning out all seven machines costs one replay and
   one trace pass. *)
let test_counters () =
  Harness.Counters.reset ();
  let w = Workloads.Registry.find "gcc" in
  let p = Harness.prepare ~fuel:150_000 w in
  Alcotest.(check int) "one execution" 1 (Harness.Counters.executions ());
  Alcotest.(check int) "no pass yet" 0 (Harness.Counters.passes ());
  let _ = Harness.Run.on_prepared p (List.map Harness.spec machines) in
  Alcotest.(check int) "training + replay" 2
    (Harness.Counters.executions ());
  Alcotest.(check int) "one pass for seven machines" 1
    (Harness.Counters.passes ());
  Alcotest.(check int) "every entry scanned once" p.steps
    (Harness.Counters.entries ());
  Alcotest.(check int) "seven states advanced per entry" (7 * p.steps)
    (Harness.Counters.state_entries ());
  Alcotest.(check int) "training profiled every entry" p.steps
    (Harness.Counters.profiled_entries ());
  Alcotest.(check int) "analyzed = profiled + state entries" (8 * p.steps)
    (Harness.Counters.analyzed ());
  (* Table 2 statistics come from the execution-time profile: no extra
     execution, no extra pass. *)
  let _ = Harness.branch_stats p in
  let _ = Harness.profile_predictor p in
  Alcotest.(check int) "stats cost no execution" 2
    (Harness.Counters.executions ());
  Alcotest.(check int) "stats cost no pass" 1 (Harness.Counters.passes ());
  Harness.Counters.reset ()

(* A deadline changes nothing but the clock: with and without one, at
   jobs 1 and 2, a workload takes the same two executions and gives the
   same results. *)
let test_deadline_same_path () =
  let w = Workloads.Registry.find "eqntott" in
  let specs = List.map Harness.spec machines in
  let run ?deadline_ms jobs =
    Harness.Counters.reset ();
    let rs = run_exec ~fuel:100_000 ?deadline_ms ~jobs w specs in
    (rs, Harness.Counters.executions ())
  in
  let want, _ = run 1 in
  List.iter
    (fun (jobs, deadline_ms) ->
      let what =
        Printf.sprintf "jobs %d, deadline %s" jobs
          (match deadline_ms with
          | Some ms -> string_of_int ms ^ " ms"
          | None -> "none")
      in
      let got, executions = run ?deadline_ms jobs in
      Alcotest.(check (list result_t)) (what ^ ": results") want got;
      Alcotest.(check int) (what ^ ": executions") 2 executions)
    [ (1, None); (1, Some 600_000); (2, None); (2, Some 600_000) ];
  Harness.Counters.reset ()

(* Run.exec is one Request.exec per workload.  For the ten workloads at
   jobs 1, at jobs 2 and pipelined at jobs 2 (where Run.exec hands each
   replay its pool), the batch gives every workload the results of a
   direct Request.exec call — made with the workload's own span buffer
   and index, and the same pool — and the same Counters deltas and
   span skeleton as those calls. *)
let test_run_is_request () =
  let specs = List.map Harness.spec machines in
  let fuel = 20_000 and ws = Workloads.Registry.all in
  let counters () =
    Harness.Counters.
      [ executions (); passes (); entries (); state_entries ();
        profiled_entries (); segments () ]
  in
  let measured f =
    let obs = Obs.Ctx.create ~registry:(Obs.Metrics.create ()) () in
    let before = counters () in
    let results = f obs in
    ( results,
      List.map2 ( - ) (counters ()) before,
      Obs.Span.skeleton (Obs.Ctx.spans obs) )
  in
  let direct ?pool obs =
    List.mapi
      (fun i (w : Workloads.Registry.t) ->
        let span_buf = Obs.Ctx.task_buffer obs ~index:i ~label:w.name in
        match
          Harness.Request.exec ~obs ~span_buf ?pool ~task_index:i ~fuel
            ~specs w
        with
        | Ok r -> r.r_results
        | Error e -> Alcotest.fail (Pipeline_error.to_string e))
      ws
  in
  List.iter
    (fun (what, jobs, segment_steps) ->
      let got, got_counts, got_skel =
        measured (fun obs ->
            match
              Harness.Run.exec
                (Harness.Run.config ~jobs ~fuel ~obs ~segment_steps specs)
                ws
            with
            | Ok items ->
              List.map
                (fun (it : Harness.Run.item) ->
                  match it.it_outcome with
                  | Ok rs -> rs
                  | Error e -> Alcotest.fail (Pipeline_error.to_string e))
                items
            | Error e -> Alcotest.fail (Pipeline_error.to_string e))
      in
      let want, want_counts, want_skel =
        measured (fun obs ->
            if segment_steps = `Auto then
              Stdx.Pool.with_pool ~jobs (fun pool -> direct ~pool obs)
            else direct obs)
      in
      List.iter2
        (fun (w : Workloads.Registry.t) (want, got) ->
          Alcotest.(check (list result_t)) (what ^ ": " ^ w.name) want got)
        ws (List.combine want got);
      Alcotest.(check (list int)) (what ^ ": counters") want_counts got_counts;
      Alcotest.(check bool) (what ^ ": span skeleton") true
        (want_skel = got_skel))
    [ ("jobs 1", 1, `Off); ("jobs 2", 2, `Off); ("jobs 2 auto", 2, `Auto) ];
  Harness.Counters.reset ()

(* Pipelined, the workloads replay one after another, and each one's
   segment spans stay together in the merged trace, in workload order:
   the workload's index namespaces its segment span buffers. *)
let test_segment_spans_in_workload_order () =
  let obs = Obs.Ctx.create ~registry:(Obs.Metrics.create ()) () in
  let ws = List.map Workloads.Registry.find [ "awk"; "gcc" ] in
  (match
     Harness.Run.exec
       (Harness.Run.config ~jobs:2 ~fuel:60_000 ~obs ~segment_steps:`Auto
          (List.map Harness.spec machines))
       ws
   with
  | Ok items ->
    List.iter
      (fun (it : Harness.Run.item) ->
        match it.it_outcome with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Pipeline_error.to_string e))
      items
  | Error e -> Alcotest.fail (Pipeline_error.to_string e));
  let segment_workloads =
    List.filter_map
      (fun (sp : Obs.Span.span) ->
        if String.starts_with ~prefix:"segment-" sp.sp_stage then
          Some sp.sp_workload
        else None)
      (Array.to_list (Obs.Ctx.spans obs))
  in
  let rec runs = function
    | a :: (b :: _ as rest) when a = b -> runs rest
    | a :: rest -> a :: runs rest
    | [] -> []
  in
  Alcotest.(check bool) "both workloads segmented" true
    (List.length segment_workloads > 4);
  Alcotest.(check (list string)) "one run of segment spans per workload"
    [ "awk"; "gcc" ] (runs segment_workloads);
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
   own config's decoder.  Trace lengths straddle the chunk size and
   the serve daemon's quarter-chunk sink buffer; the
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
      List.iter
        (fun chunk ->
          let sink, finish = Ilp.Analyze.sink_many ~chunk (configs ()) info in
          let o' = Vm.Exec.run ~fuel:n ~record:false ~sink flat in
          check_same
            (Printf.sprintf "sink_many, %d entries, chunk %d" n chunk)
            want
            (finish ~completeness:(Vm.Exec.completeness_of o') ()))
        [ c; c / 4 ];
      if n = (2 * c) + 7 then
        Alcotest.(check int) "every budget cut inside the trace" 3
          (List.length (List.filter budget_cut want)))
    [ 0; 1; (c / 4) - 1; c / 4; (c / 4) + 1; c - 1; c; c + 1; (2 * c) + 7 ]

(* The per-entry step allocates nothing: seven paper machines over a
   200k-step trace stay under one minor-heap word per entry (the
   per-call state and buffers included). *)
let test_fanout_allocation () =
  let p = Harness.prepare ~fuel:200_000 (Workloads.Registry.find "gcc") in
  let trace = Recorded.trace p in
  let predictor = Harness.profile_predictor p in
  let cfgs =
    List.map
      (fun m ->
        Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words m predictor)
      machines
  in
  let before = Gc.minor_words () in
  ignore (Ilp.Analyze.run_many cfgs p.info trace);
  let per_entry =
    (Gc.minor_words () -. before) /. float_of_int (Vm.Trace.length trace)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per entry < 1" per_entry)
    true (per_entry < 1.)

(* A budget cut drops the machine from its optional passes: collecting
   segments on a machine cut after 1,000 instructions allocates about
   what the same group without segments does, while its partner runs on
   over the whole 200k-step trace and its mispredictions. *)
let test_cut_stops_segments () =
  let p = Harness.prepare ~fuel:200_000 (Workloads.Registry.find "gcc") in
  let trace = Recorded.trace p in
  let predictor = Harness.profile_predictor p in
  let words collect_segments =
    let cfg = Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words in
    let cfgs =
      [ cfg ~collect_segments ~step_budget:1_000 Ilp.Machine.sp predictor;
        cfg Ilp.Machine.sp_cd predictor ]
    in
    let before = Gc.allocated_bytes () in
    let r = Ilp.Analyze.run_many cfgs p.info trace in
    let after = Gc.allocated_bytes () in
    Alcotest.(check bool) "the partner mispredicts often" true
      ((List.nth r 1).Ilp.Analyze.mispredicts > 2_000);
    (after -. before) /. float_of_int (Sys.word_size / 8)
  in
  ignore (words false);  (* the first run pays one-time setup *)
  let plain = words false in
  let extra = words true -. plain in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for the cut machine's segments < 1024" extra)
    true (extra < 1024.)

let suite =
  [ Alcotest.test_case "run_many golden: gcc" `Quick
      (test_run_many_golden "gcc");
    Alcotest.test_case "run_many golden: matrix300" `Quick
      (test_run_many_golden "matrix300");
    Alcotest.test_case "streaming figure2" `Quick test_streaming_figure2;
    Alcotest.test_case "streaming workload" `Quick test_streaming_workload;
    Alcotest.test_case "execution/pass counters" `Quick test_counters;
    Alcotest.test_case "a deadline takes the same two executions" `Quick
      test_deadline_same_path;
    Alcotest.test_case "Run.exec is one Request.exec per workload" `Quick
      test_run_is_request;
    Alcotest.test_case "pipelined segment spans stay in workload order"
      `Quick test_segment_spans_in_workload_order;
    Alcotest.test_case "machine ordering: gcc" `Quick
      (test_machine_ordering "gcc");
    Alcotest.test_case "machine ordering: matrix300" `Quick
      (test_machine_ordering "matrix300");
    Alcotest.test_case "chunk boundaries: run_many = sink_many = entry-major"
      `Quick test_chunk_boundaries;
    Alcotest.test_case "fan-out allocation under a word per entry" `Quick
      test_fanout_allocation;
    Alcotest.test_case "a budget cut stops a machine's segments" `Quick
      test_cut_stops_segments ]
