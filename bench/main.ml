(* The paper renderer: regenerates every table and figure of the
   paper's evaluation, the ablations DESIGN.md calls out, and four
   gates.

     dune exec bench/main.exe                  # everything but the scaling gates
     dune exec bench/main.exe -- table3        # one experiment
     dune exec bench/main.exe -- --fuel 16000000 table3
     dune exec bench/main.exe -- --jobs 4      # domains for the prefill
     dune exec bench/main.exe -- --list        # available experiments
     dune exec bench/main.exe -- scaling       # 1/2/4-domain determinism gate

   Each experiment declares which (workload, analysis spec) results it
   needs.  [main] unions the needs of every selected experiment into
   one context record and then *prefills* the context's store: each
   workload is compiled and executed exactly once, with all requested
   machine models and ablation configs advanced together over a single
   pass of its trace (Harness.Run.on_prepared).  With --jobs > 1 the
   prefill fans whole workloads out over a domain pool (Stdx.Pool);
   results are merged back on the main domain in registry order, so
   the tables are bit-identical for every --jobs value.  The trace is
   dropped as soon as its workload's results are in, keeping the live
   heap small.  Experiments then render from the shared store.

   The gates (scaling, segment-scaling, static-vs-dynamic, serve-soak)
   return their violations.  [main] prints them after the report and
   exits 1 if any selected experiment returned one.  Timing the
   pipeline is perfbench's job (perfbench/README.md); the wall-time
   columns the gates print are for reading, not for comparison.

   Paper-vs-measured commentary lives in EXPERIMENTS.md. *)

(* Monotonic wall clock in seconds. *)
let now_s () = Int64.to_float (Obs.Span.now_ns ()) /. 1e9

let machines = Ilp.Machine.all_paper
let machine_names = List.map (fun (m : Ilp.Machine.t) -> m.name) machines

(* ------------------------------------------------------------------ *)
(* The context: the command line, what the selected experiments
   declared, and the store the prefill fills for them.  Built once in
   [main]; every experiment reads it, only the prefill writes it. *)

type ctx = {
  fuel : int option;  (* --fuel; None runs each workload's own *)
  jobs : int;
  segmenting : Harness.segmenting;  (* segment-scaling's stride policy *)
  needs : (string, Harness.spec list) Hashtbl.t;  (* workload -> specs *)
  want_rates : bool;  (* some experiment reads [rates] *)
  results : (string * string, Ilp.Analyze.result) Hashtbl.t;
      (* (workload, spec key) -> result *)
  stats : (string, Ilp.Stats.branch_stats) Hashtbl.t;
  rates : (string, float * float * float) Hashtbl.t;
      (* workload -> profile, btfn and 2-bit prediction rates *)
}

let dedup_specs specs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      let key = Harness.spec_key s in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    specs

(* Predictor accuracy has to be measured while the trace is still
   alive, so it runs inside the prefill, for the experiment that asks
   for it.  The analyses themselves still share the one fan-out pass
   (a fresh 2-bit counter table is created inside that pass's state,
   never shared with this measurement). *)
let predictor_rates (p : Harness.prepared) =
  let is_cond = Ilp.Program_info.is_cond_branch p.info in
  let rate pr = (Predict.Predictor.measure pr ~is_cond p.trace).rate in
  let btfn =
    Predict.Predictor.backward_taken
      ~is_backward:(Ilp.Program_info.branch_backward p.flat)
  in
  let twobit = Predict.Predictor.two_bit ~n_static:p.info.n in
  ((Harness.branch_stats p).rate, rate btfn, rate twobit)

(* The whole shared computation for one workload: one execution, the
   predictor rates if asked for, one fan-out pass over everything the
   selected experiments asked for.  Pure with respect to the context's
   stores: results come back as a value, so the caller (possibly
   merging a parallel batch) writes the Hashtbls on one domain only. *)
type prefilled = {
  pf_name : string;
  pf_stats : Ilp.Stats.branch_stats;
  pf_rates : (float * float * float) option;
  pf_results : (string * Ilp.Analyze.result) list;  (* spec key -> result *)
}

let prepare_workload ctx (w : Workloads.Registry.t) =
  let specs = Hashtbl.find ctx.needs w.name in
  let p =
    Harness.prepare ?fuel:ctx.fuel
      ~train_values:(Harness.specs_need_values specs) w
  in
  let rates = if ctx.want_rates then Some (predictor_rates p) else None in
  let results = Harness.Run.on_prepared p specs in
  { pf_name = w.name;
    pf_stats = Harness.branch_stats p;
    pf_rates = rates;
    pf_results =
      List.map2 (fun s r -> (Harness.spec_key s, r)) specs results }
  (* p goes out of scope here: the trace is freed *)

let merge_prefilled ctx pf =
  Hashtbl.replace ctx.stats pf.pf_name pf.pf_stats;
  Option.iter (Hashtbl.replace ctx.rates pf.pf_name) pf.pf_rates;
  List.iter
    (fun (key, r) -> Hashtbl.replace ctx.results (pf.pf_name, key) r)
    pf.pf_results

(* The parallel phase: every workload any selected experiment declared
   a need for, fanned out over a domain pool, merged in registry order.
   Because each task is the pipeline for one workload (own VM, own
   analysis states) and the merge is by index, the store contents are
   bit-identical to the sequential path for every jobs value. *)
let prefill ctx =
  let ws =
    List.filter
      (fun (w : Workloads.Registry.t) -> Hashtbl.mem ctx.needs w.name)
      Workloads.Registry.all
  in
  let filled =
    if ctx.jobs > 1 && List.length ws > 1 then
      Stdx.Pool.with_pool ~jobs:ctx.jobs (fun pool ->
          Stdx.Pool.map_list pool (prepare_workload ctx) ws)
    else List.map (prepare_workload ctx) ws
  in
  List.iter (merge_prefilled ctx) filled

(* Every result an experiment reads must be among its declared needs. *)
let get ctx w spec =
  Hashtbl.find ctx.results (w.Workloads.Registry.name, Harness.spec_key spec)

let fnum = Report.Table.fnum

let harmonic_of column rows =
  Stdx.Stats.harmonic_mean (List.map (fun r -> List.nth r column) rows)

(* Common spec sets. *)
let spec7 = List.map (fun m -> Harness.spec m) machines

let spec7_knob ~inline ~unroll =
  List.map (fun m -> Harness.spec ~inline ~unroll m) machines

let sp_segments_spec = Harness.spec ~segments:true Ilp.Machine.sp

let for_all specs = List.map (fun w -> (w, specs)) Workloads.Registry.all

let for_non_numeric specs =
  List.map (fun w -> (w, specs)) Workloads.Registry.non_numeric

(* ------------------------------------------------------------------ *)

let table1 _ctx =
  let rows =
    List.map
      (fun (w : Workloads.Registry.t) ->
        [ w.name; w.lang; w.description ])
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render ~title:"Table 1: Benchmark Programs"
       ~header:[ "Program"; "Language"; "Description" ]
       ~align:[ Left; Left; Left ] rows)

let table2 ctx =
  let rows =
    List.map
      (fun (w : Workloads.Registry.t) ->
        let bs = Hashtbl.find ctx.stats w.name in
        [ w.name;
          Printf.sprintf "%.2f" bs.rate;
          Printf.sprintf "%.1f" bs.instrs_between ])
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render ~title:"Table 2: Branch Statistics"
       ~header:
         [ "Program"; "Prediction Rate";
           "Dynamic Instructions Between Branches" ]
       ~align:[ Left; Right; Right ] rows)

let parallelism_row ?(inline = true) ?(unroll = true) ctx w =
  List.map
    (fun m ->
      (get ctx w (Harness.spec ~inline ~unroll m)).Ilp.Analyze.parallelism)
    machines

let table3 ctx =
  let non_numeric =
    List.map
      (fun w -> (w.Workloads.Registry.name, parallelism_row ctx w))
      Workloads.Registry.non_numeric
  in
  let numeric =
    List.map
      (fun w -> (w.Workloads.Registry.name, parallelism_row ctx w))
      Workloads.Registry.numeric
  in
  let hmean =
    List.mapi (fun i _ -> harmonic_of i (List.map snd non_numeric)) machines
  in
  let render_row (name, pars) = name :: List.map fnum pars in
  let rows =
    List.map render_row non_numeric
    @ [ "Harmonic Mean" :: List.map fnum hmean ]
    @ [ [ "-" ] ]
    @ List.map render_row numeric
  in
  print_string
    (Report.Table.render
       ~title:"Table 3: Parallelism for each Machine Model"
       ~header:("Program" :: machine_names)
       ~align:(Left :: List.map (fun _ -> Report.Table.Right) machines)
       rows)

let table4 ctx =
  let rows =
    List.map
      (fun w ->
        let with_unroll = parallelism_row ~unroll:true ctx w in
        let without = parallelism_row ~unroll:false ctx w in
        let pct =
          List.map2
            (fun a b -> Printf.sprintf "%+.0f" (100. *. (a -. b) /. b))
            with_unroll without
        in
        w.Workloads.Registry.name :: pct)
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render
       ~title:
         "Table 4: Percent Change in Parallelism due to Perfect Loop \
          Unrolling"
       ~header:("Program" :: machine_names)
       ~align:(Left :: List.map (fun _ -> Report.Table.Right) machines)
       rows)

(* Figure 2/3: the worked example.  A reconstruction of the paper's
   flow graph: a loop containing a data-dependent conditional, followed
   by control-independent code.  We print the per-machine schedule of a
   short trace, the analogue of Figure 3. *)
let figure3_source =
  {|
int a[6] = {1, 0, 1, 1, 0, 1};
int out;
int side;

int main(void) {
  int i;
  int x = 0;
  for (i = 0; i < 6; i = i + 1) {
    if (a[i]) x = x + 1;     // node 3: the predicted side
    else side = side + 1;    // node 4: taken on mispredictions
  }
  out = 7;                   // nodes 6,7: control independent of loop
  return x;
}
|}

let figure3 ctx =
  let p =
    Harness.prepare_source ?fuel:ctx.fuel ~name:"figure2" figure3_source
  in
  Format.printf
    "Figure 3 (reconstruction): schedules of the Figure-2-style loop@.";
  Format.printf
    "(loop with a data-dependent if, then control-independent code)@.@.";
  let results = Harness.Run.on_prepared p spec7 in
  let rows =
    List.map
      (fun (r : Ilp.Analyze.result) ->
        [ r.machine; string_of_int r.counted;
          string_of_int r.cycles; fnum r.parallelism ])
      results
  in
  print_string
    (Report.Table.render ~header:[ "Machine"; "Instrs"; "Cycles"; "Par" ]
       ~align:[ Left; Right; Right; Right ] rows)

let figure4 ctx =
  let rows =
    List.map
      (fun w ->
        let get m = (get ctx w (Harness.spec m)).Ilp.Analyze.parallelism in
        ( w.Workloads.Registry.name,
          [ get Ilp.Machine.base; get Ilp.Machine.cd;
            get Ilp.Machine.cd_mf ] ))
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Chart.grouped_bars
       ~title:"Figure 4: Parallelism with Control Dependence Analysis"
       ~group_names:[ "BASE"; "CD"; "CD-MF" ]
       rows)

let figure5 ctx =
  let rows =
    List.map
      (fun w ->
        let get m = (get ctx w (Harness.spec m)).Ilp.Analyze.parallelism in
        ( w.Workloads.Registry.name,
          [ get Ilp.Machine.base; get Ilp.Machine.sp;
            get Ilp.Machine.sp_cd; get Ilp.Machine.sp_cd_mf ] ))
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Chart.grouped_bars
       ~title:"Figure 5: Parallelism with Speculative Execution"
       ~group_names:[ "BASE"; "SP"; "SP-CD"; "SP-CD-MF" ]
       rows)

let sp_segments ctx w = (get ctx w sp_segments_spec).Ilp.Analyze.segments

let figure6 ctx =
  let curves =
    List.map
      (fun w -> Ilp.Stats.cumulative_distances (sp_segments ctx w))
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Chart.cdf
       ~title:
         "Figure 6: Cumulative Distribution of Misprediction Distances \
          (one curve per non-numeric program)"
       ~x_label:"misprediction distance"
       curves);
  let all = List.concat_map (fun w ->
      Array.to_list (sp_segments ctx w)) Workloads.Registry.non_numeric
  in
  let under n =
    let total = List.length all in
    let c = List.length
        (List.filter (fun (s : Ilp.Analyze.segment) -> s.length <= n) all)
    in
    100. *. float_of_int c /. float_of_int total
  in
  Format.printf
    "@.%.1f%% of mispredictions occur within a distance of 100 \
     instructions@.(paper: over 80%%); %.1f%% within 1000.@."
    (under 100) (under 1000)

let figure7 ctx =
  let all =
    Array.concat
      (List.map (sp_segments ctx) Workloads.Registry.non_numeric)
  in
  let buckets = Ilp.Stats.parallelism_by_distance all in
  let rows =
    List.map
      (fun (b : Ilp.Stats.bucket) ->
        ( Printf.sprintf "%5d-%-5d %7d segs" b.lo b.hi b.count,
          b.mean_parallelism ))
      buckets
  in
  print_string
    (Report.Chart.bars
       ~title:
         "Figure 7: Parallelism vs Misprediction Distance (all non-numeric \
          programs combined; harmonic mean per bucket)"
       rows)

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper (DESIGN.md §7). *)

let window_sizes = [ 32; 128; 512; 2048 ]

let ablation_window_specs =
  List.map
    (fun wsz -> Harness.spec (Ilp.Machine.with_window wsz Ilp.Machine.sp_cd_mf))
    window_sizes
  @ [ Harness.spec Ilp.Machine.sp_cd_mf ]

let ablation_window ctx =
  let rows =
    List.map
      (fun w ->
        w.Workloads.Registry.name
        :: List.map
             (fun s -> fnum (get ctx w s).Ilp.Analyze.parallelism)
             ablation_window_specs)
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Table.render
       ~title:"Ablation: SP-CD-MF under a finite scheduling window"
       ~header:
         ("Program"
         :: (List.map (fun w -> Printf.sprintf "w=%d" w) window_sizes
            @ [ "unlimited" ]))
       ~align:(Left :: List.map (fun _ -> Report.Table.Right)
                 (window_sizes @ [ 0 ]))
       rows)

let flow_counts = [ 1; 2; 4; 8 ]

let ablation_flows_specs =
  List.map
    (fun k ->
      Harness.spec (Ilp.Machine.with_flows (Some k) Ilp.Machine.sp_cd))
    flow_counts
  @ [ Harness.spec Ilp.Machine.sp_cd_mf ]

let ablation_flows ctx =
  let rows =
    List.map
      (fun w ->
        w.Workloads.Registry.name
        :: List.map
             (fun s -> fnum (get ctx w s).Ilp.Analyze.parallelism)
             ablation_flows_specs)
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Table.render
       ~title:
         "Ablation: k flows of control between SP-CD (k=1) and SP-CD-MF"
       ~header:
         ("Program"
         :: (List.map (fun k -> Printf.sprintf "k=%d" k) flow_counts
            @ [ "unbounded" ]))
       ~align:(Left :: List.map (fun _ -> Report.Table.Right)
                 (flow_counts @ [ 0 ]))
       rows)

let ablation_latency_specs =
  List.map Harness.spec
    [ Ilp.Machine.sp_cd_mf;
      Ilp.Machine.with_latency Ilp.Machine.Realistic Ilp.Machine.sp_cd_mf;
      Ilp.Machine.oracle;
      Ilp.Machine.with_latency Ilp.Machine.Realistic Ilp.Machine.oracle ]

let ablation_latency ctx =
  let rows =
    List.map
      (fun w ->
        w.Workloads.Registry.name
        :: List.map
             (fun s -> fnum (get ctx w s).Ilp.Analyze.parallelism)
             ablation_latency_specs)
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render
       ~title:"Ablation: unit vs realistic operation latencies"
       ~header:
         [ "Program"; "SP-CD-MF"; "SP-CD-MF/lat"; "ORACLE"; "ORACLE/lat" ]
       ~align:[ Left; Right; Right; Right; Right ]
       rows)

(* Lattice sweep: compose the three post-paper constraint dimensions —
   finite scheduling window, finite fetch rate, value prediction — onto
   SP-CD-MF, one machine per corner of the {window 256, unlimited} x
   {fetch 4, unlimited} x {vp off, on} cube.  Each row label is the
   machine's canonical spec, i.e. exactly what `ilp-limits run -m`
   accepts.  The vp corners are what pulls [train_values] through the
   prefill: their workloads' one execution also trains the last-value
   profile. *)
let lattice_machines =
  List.concat_map
    (fun window ->
      List.concat_map
        (fun fetch ->
          List.map
            (fun vp ->
              Ilp.Machine.sp_cd_mf
              |> (match window with
                 | Some n -> Ilp.Machine.with_window n
                 | None -> Fun.id)
              |> Ilp.Machine.with_fetch fetch
              |> Ilp.Machine.with_value_predict vp)
            [ false; true ])
        [ Some 4; None ])
    [ Some 256; None ]

let lattice_specs = List.map Harness.spec lattice_machines

let lattice_sweep ctx =
  let ws = Workloads.Registry.non_numeric in
  let rows =
    List.map2
      (fun (m : Ilp.Machine.t) s ->
        let pars =
          List.map (fun w -> (get ctx w s).Ilp.Analyze.parallelism) ws
        in
        m.name :: (List.map fnum pars @ [ fnum (Stdx.Stats.harmonic_mean pars) ]))
      lattice_machines lattice_specs
  in
  print_string
    (Report.Table.render
       ~title:
         "Lattice sweep: SP-CD-MF under composed window / fetch / \
          value-prediction constraints (non-numeric programs)"
       ~header:
         ("Machine"
         :: (List.map (fun w -> w.Workloads.Registry.name) ws @ [ "hmean" ]))
       ~align:
         (Left :: List.map (fun _ -> Report.Table.Right) (ws @ [ List.hd ws ]))
       rows)

let predictor_specs =
  [ Harness.spec Ilp.Machine.sp;
    Harness.spec ~predictor:`Btfn Ilp.Machine.sp;
    Harness.spec ~predictor:`Two_bit Ilp.Machine.sp ]

let ablation_predictors ctx =
  let rows =
    List.map
      (fun w ->
        let profile_rate, btfn_rate, twobit_rate =
          Hashtbl.find ctx.rates w.Workloads.Registry.name
        in
        let pars =
          List.map
            (fun s -> fnum (get ctx w s).Ilp.Analyze.parallelism)
            predictor_specs
        in
        [ w.Workloads.Registry.name;
          Printf.sprintf "%.1f" profile_rate;
          Printf.sprintf "%.1f" btfn_rate;
          Printf.sprintf "%.1f" twobit_rate ]
        @ pars)
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render
       ~title:
         "Ablation: branch predictors (accuracy %, and SP parallelism)"
       ~header:
         [ "Program"; "profile"; "btfn"; "2-bit"; "SP/profile"; "SP/btfn";
           "SP/2-bit" ]
       ~align:[ Left; Right; Right; Right; Right; Right; Right ]
       rows)

let ablation_inline ctx =
  let rows =
    List.map
      (fun w ->
        let with_i = parallelism_row ~inline:true ctx w in
        let without = parallelism_row ~inline:false ctx w in
        let pct =
          List.map2
            (fun a b -> Printf.sprintf "%+.0f" (100. *. (a -. b) /. b))
            with_i without
        in
        w.Workloads.Registry.name :: pct)
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render
       ~title:
         "Ablation: percent change in parallelism due to perfect inlining"
       ~header:("Program" :: machine_names)
       ~align:(Left :: List.map (fun _ -> Report.Table.Right) machines)
       rows)

(* The guarded ablation recompiles every program with if-conversion, a
   different binary, so the if-converted side cannot share the store's
   execution; the unguarded side can and does. *)
let ablation_guarded ctx =
  let summarize (r : Ilp.Analyze.result) =
    let mean_dist =
      if Array.length r.segments = 0 then 0.
      else float_of_int r.counted /. float_of_int (Array.length r.segments)
    in
    (r.parallelism, r.mispredicts, mean_dist)
  in
  let rows =
    List.map
      (fun w ->
        let par0, mp0, d0 = summarize (get ctx w sp_segments_spec) in
        let par1, mp1, d1 =
          let p =
            Harness.prepare ?fuel:ctx.fuel
              ~options:{ Codegen.Compile.if_convert = true } w
          in
          match Harness.Run.on_prepared p [ sp_segments_spec ] with
          | [ r ] -> summarize r
          | _ -> assert false
        in
        [ w.Workloads.Registry.name;
          fnum par0; string_of_int mp0; Printf.sprintf "%.1f" d0;
          fnum par1; string_of_int mp1; Printf.sprintf "%.1f" d1 ])
      Workloads.Registry.non_numeric
  in
  print_string
    (Report.Table.render
       ~title:
         "Ablation: guarded instructions (if-conversion to movn), SP \
          machine.  Guarding removes branches, so mispredictions drop \
          and the mean distance between them grows (paper \u{00a7}6)."
       ~header:
         [ "Program"; "SP"; "mispredicts"; "mean dist"; "SP/guarded";
           "mispredicts"; "mean dist" ]
       ~align:[ Left; Right; Right; Right; Right; Right; Right ]
       rows)

(* ------------------------------------------------------------------ *)
(* Gates.  Each returns its violations, one message per failed check;
   an empty list passes. *)

(* The messages whose condition holds. *)
let failing checks =
  List.filter_map (fun (bad, msg) -> if bad then Some msg else None) checks

(* Run [cfg] over [ws] with the pipeline counters watched: the
   outcomes, the wall time, the (entries, state entries, executions)
   deltas, and the segments decoded. *)
let counted_exec cfg ws =
  let e0 = Harness.Counters.entries () in
  let s0 = Harness.Counters.state_entries () in
  let x0 = Harness.Counters.executions () in
  let g0 = Harness.Counters.segments () in
  let t0 = now_s () in
  let rs =
    match Harness.Run.exec cfg ws with
    | Ok items -> List.map (fun it -> it.Harness.Run.it_outcome) items
    | Error _ -> assert false (* jobs >= 1 by construction *)
  in
  let wall = now_s () -. t0 in
  ( rs,
    wall,
    ( Harness.Counters.entries () - e0,
      Harness.Counters.state_entries () - s0,
      Harness.Counters.executions () - x0 ),
    Harness.Counters.segments () - g0 )

(* Scaling: the whole Table-3 pipeline (all ten workloads, all seven
   machines, streaming) at 1, 2 and 4 domains.  This is the bench-side
   determinism gate: every parallel run must reproduce the sequential
   run bit-for-bit — results, completeness tags, and the Counters
   totals.  Kept out of the default experiment set because it
   re-executes every workload per point (deliberately: the point is to
   run the pipeline, not to share the store). *)
let scaling ctx =
  let ws = Workloads.Registry.all in
  let run jobs =
    counted_exec (Harness.Run.config ~jobs ?fuel:ctx.fuel ~stream:true spec7) ws
  in
  let seq, seq_wall, seq_counts, _ = run 1 in
  let points =
    (1, seq_wall, true)
    :: List.map
         (fun jobs ->
           let par, wall, counts, _ = run jobs in
           (* Structural equality covers every field: parallelism
              numbers, counted/cycles, segments, completeness tags,
              typed errors. *)
           (jobs, wall, par = seq && counts = seq_counts))
         [ 2; 4 ]
  in
  let rows =
    List.map
      (fun (jobs, wall, identical) ->
        [ string_of_int jobs;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.2fx" (seq_wall /. wall);
          (if identical then "yes" else "NO") ])
      points
  in
  print_string
    (Report.Table.render
       ~title:
         (Printf.sprintf
            "Scaling: full streaming pipeline, %d workloads x %d machines \
             (%d domains available)"
            (List.length ws) (List.length machines)
            (Stdx.Pool.recommended_jobs ()))
       ~header:[ "jobs"; "wall s"; "speedup vs seq"; "identical" ]
       ~align:[ Right; Right; Right; Left ] rows);
  List.filter_map
    (fun (jobs, _, identical) ->
      if identical then None
      else Some (Printf.sprintf "--jobs %d diverged from the sequential run" jobs))
    points

(* Segment-scaling: intra-trace parallelism on ONE workload.  The
   `scaling` gate parallelizes across workloads, which a
   single-workload run cannot use; this one shards gcc's trace into
   segments (DESIGN.md §15) and runs the same seven-machine sweep at
   1, 2 and 4 domains (and --jobs).  Every segmented point must
   reproduce the un-segmented sequential run bit-for-bit — results,
   completeness tags, counter deltas — and every point with more than
   one domain must really have segmented.  Wall times are honest: on a
   machine without idle cores the speedup column will show < 1 (the
   decode/stitch split adds work); the column exists to be read, not
   to flatter. *)
let segment_scaling ctx =
  let w = Workloads.Registry.find "gcc" in
  let run ~jobs ~segmenting =
    counted_exec
      (Harness.Run.config ~jobs ?fuel:ctx.fuel ~stream:true
         ~segment_steps:segmenting spec7)
      [ w ]
  in
  (* The reference: the ordinary un-segmented sequential pipeline. *)
  let seq, seq_wall, seq_counts, _ = run ~jobs:1 ~segmenting:`Off in
  let points =
    List.map
      (fun jobs ->
        let par, wall, counts, segs = run ~jobs ~segmenting:ctx.segmenting in
        (* Structural equality covers every result field; the counter
           tuple (entries, state entries, executions) excludes the
           segment counter, which only the segmented runs advance. *)
        (jobs, segs, wall, par = seq && counts = seq_counts))
      (List.sort_uniq compare [ 1; 2; 4; ctx.jobs ])
  in
  let rows =
    List.map
      (fun (jobs, segs, wall, identical) ->
        [ string_of_int jobs;
          string_of_int segs;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.2fx" (seq_wall /. wall);
          (if identical then "yes" else "NO") ])
      points
  in
  print_string
    (Report.Table.render
       ~title:
         (Printf.sprintf
            "Segment scaling: gcc x %d machines, intra-trace sharding \
             (seq baseline %.3f s, %d domains available)"
            (List.length machines) seq_wall
            (Stdx.Pool.recommended_jobs ()))
       ~header:[ "jobs"; "segments"; "wall s"; "speedup vs seq"; "identical" ]
       ~align:[ Right; Right; Right; Right; Left ] rows);
  List.concat_map
    (fun (jobs, segs, _, identical) ->
      failing
        [ ( not identical,
            Printf.sprintf
              "--jobs %d segmented run diverged from the sequential run" jobs
          );
          ( jobs > 1 && ctx.segmenting <> `Off && segs = 0,
            Printf.sprintf "--jobs %d decoded no segments" jobs ) ])
    points

(* Static vs dynamic: the static estimator (`Cfg.Estimate` compiled by
   `Ilp.Static_bound`, no execution) must dominate the measured
   parallelism for every workload x paper machine.  This is the
   bench-side soundness gate for the whole static layer: every cell
   where measured > bound is a violation. *)
let static_vs_dynamic ctx =
  let rows =
    List.map
      (fun (w : Workloads.Registry.t) ->
        let est =
          match Harness.estimate ~machines w with
          | Ok e -> e
          | Error e -> failwith (Pipeline_error.to_string e)
        in
        let cells =
          List.map2
            (fun spec (b : Ilp.Static_bound.t) ->
              let par = (get ctx w spec).Ilp.Analyze.parallelism in
              let measured = fnum par
              and bound = Ilp.Static_bound.value_to_string b.bound in
              if par <= b.bound +. 1e-9 then
                (Printf.sprintf "%s / %s" measured bound, None)
              else
                ( Printf.sprintf "%s > %s !" measured bound,
                  Some
                    (Printf.sprintf "%s %s: measured %s exceeds static bound %s"
                       w.name b.spec measured bound) ))
            spec7 est.Harness.e_bounds
        in
        (w.name :: List.map fst cells, List.filter_map snd cells))
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render
       ~title:
         "Static vs dynamic: measured parallelism / static bound (sound \
          iff measured <= bound; `unbounded` = no static limit)"
       ~header:("Program" :: machine_names)
       ~align:(Left :: List.map (fun _ -> Report.Table.Right) machines)
       (List.map fst rows));
  List.concat_map snd rows

(* Serve soak: an in-process `ilp-limits serve` daemon under sustained
   mixed load — healthy analyses (several workloads, cache hits and
   misses), injected faults, millisecond deadlines, quota violations,
   unknown names — fired from concurrent client threads through the
   retrying client, with a small queue so backpressure actually sheds.
   The robustness gate: every request draws exactly one well-typed
   response, no client ever sees an I/O failure or malformed reply, the
   sampled queue depth never exceeds the configured bound, and the
   server drains cleanly at the end. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let soak_stat json name =
  match Option.bind (Serve.Jsonx.member name json) Serve.Jsonx.to_int with
  | Some v -> v
  | None -> 0

let serve_soak ctx =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ilp-soak-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let jobs = max 2 ctx.jobs in
  (* 12 client threads against a queue of 4: more outstanding work than
     the queue and pool can hold, so the shed path genuinely fires and
     the retrying client has to absorb it. *)
  let queue_limit = 4 in
  let cfg =
    Serve.Server.config ~jobs ~queue_limit ~cache_capacity:16
      ~max_fuel:10_000_000 ~retry_after_ms:5
      ~registry:(Obs.Metrics.create ()) ~socket_path ()
  in
  match Serve.Server.start cfg with
  | Error e -> [ "server failed to start: " ^ e ]
  | Ok server ->
    let t0 = now_s () in
    let addr = Serve.Client.Unix_sock socket_path in
    let n_threads = 12 and per_thread = 45 in
    let total = n_threads * per_thread in
    let ok = Atomic.make 0
    and typed = Atomic.make 0
    and malformed = Atomic.make 0
    and io_failed = Atomic.make 0
    and retries = Atomic.make 0 in
    let lat_mutex = Mutex.create () in
    let latencies = ref [] in
    let healthy =
      [| "eqntott"; "awk"; "ccom"; "latex"; "irsim"; "espresso" |]
    in
    (* Request r's shape is a pure function of r, so the soak replays
       exactly; r mod 10 picks the mix (6 healthy : 1 injected :
       1 deadline : 1 over-quota : 1 unknown). *)
    let payload_of r =
      let open Serve.Protocol in
      match r mod 10 with
      | 6 ->
        analyze ~workload:"awk" ~machines:[ "sp-cd-mf" ] ~fuel:200_000
          ~inject:("bit-flip", r) ()
      | 7 ->
        analyze ~workload:"gcc" ~machines:[ "sp-cd-mf" ] ~fuel:400_000
          ~deadline_ms:1 ()
      | 8 -> analyze ~workload:"eqntott" ~fuel:10_000_001 ()
      | 9 -> analyze ~workload:"no-such-program" ()
      | k ->
        analyze
          ~workload:healthy.((r / 10 + k) mod Array.length healthy)
          ~machines:[ "sp-cd-mf" ] ~fuel:200_000 ()
    in
    let worker tid () =
      for i = 0 to per_thread - 1 do
        let r = (tid * per_thread) + i in
        let a = payload_of r in
        let make_payload ~id = Serve.Protocol.analyze_request ~id a in
        let q0 = now_s () in
        match
          Serve.Client.call_retry ~attempts:8 ~base_ms:5 ~seed:r addr
            ~make_payload
        with
        | Error _ -> Atomic.incr io_failed
        | Ok { o_response; o_attempts } ->
          ignore (Atomic.fetch_and_add retries (o_attempts - 1));
          if o_response.Serve.Protocol.r_ok then begin
            Atomic.incr ok;
            if r mod 10 < 6 then begin
              let ms = (now_s () -. q0) *. 1000. in
              Mutex.lock lat_mutex;
              latencies := ms :: !latencies;
              Mutex.unlock lat_mutex
            end
          end
          else if o_response.Serve.Protocol.r_error_cause <> None then
            Atomic.incr typed
          else Atomic.incr malformed
      done
    in
    (* A sampler thread scrapes stats while the load runs: the highest
       queue depth it ever sees is the bounded-backpressure witness. *)
    let soak_done = Atomic.make false in
    let max_depth = Atomic.make 0 in
    let rec raise_to a v =
      let cur = Atomic.get a in
      if v > cur && not (Atomic.compare_and_set a cur v) then raise_to a v
    in
    let sampler () =
      while not (Atomic.get soak_done) do
        (match Serve.Client.connect addr with
        | Error _ -> ()
        | Ok conn ->
          (match Serve.Client.call conn (Serve.Protocol.stats_request ~id:1)
           with
          | Ok json -> raise_to max_depth (soak_stat json "queue_depth")
          | Error _ -> ());
          Serve.Client.close conn);
        Unix.sleepf 0.004
      done
    in
    let sampler_t = Thread.create sampler () in
    let workers = List.init n_threads (fun tid -> Thread.create (worker tid) ()) in
    List.iter Thread.join workers;
    Atomic.set soak_done true;
    Thread.join sampler_t;
    (* Final scrape before the server goes away. *)
    let shed, cache_hits, cache_misses, requests =
      match Serve.Client.connect addr with
      | Error _ -> (0, 0, 0, 0)
      | Ok conn ->
        let r =
          match
            Serve.Client.call conn (Serve.Protocol.stats_request ~id:1)
          with
          | Ok json ->
            ( soak_stat json "shed",
              soak_stat json "cache_hits",
              soak_stat json "cache_misses",
              soak_stat json "requests" )
          | Error _ -> (0, 0, 0, 0)
        in
        Serve.Client.close conn;
        r
    in
    Serve.Server.stop server;
    let wall = now_s () -. t0 in
    let lats = Array.of_list !latencies in
    Array.sort compare lats;
    let ok = Atomic.get ok and typed = Atomic.get typed in
    let max_depth = Atomic.get max_depth in
    print_string
      (Report.Table.render
         ~title:
           (Printf.sprintf
              "Serve soak: %d mixed requests, %d client threads, jobs=%d, \
               queue limit %d (server saw %d requests incl. stats scrapes)"
              total n_threads jobs queue_limit requests)
         ~header:[ "measure"; "value" ]
         ~align:[ Left; Right ]
         [ [ "ok responses"; string_of_int ok ];
           [ "typed errors"; string_of_int typed ];
           [ "shed at the queue"; string_of_int shed ];
           [ "client retries"; string_of_int (Atomic.get retries) ];
           [ "healthy p50"; Printf.sprintf "%.1f ms" (percentile lats 0.50) ];
           [ "healthy p99"; Printf.sprintf "%.1f ms" (percentile lats 0.99) ];
           [ "max queue depth seen"; string_of_int max_depth ];
           [ "cache hits / misses";
             Printf.sprintf "%d / %d" cache_hits cache_misses ];
           [ "wall"; Printf.sprintf "%.2f s" wall ] ]);
    let io_failed = Atomic.get io_failed
    and malformed = Atomic.get malformed in
    failing
      [ (io_failed > 0, Printf.sprintf "%d client I/O failures" io_failed);
        ( malformed > 0,
          Printf.sprintf "%d untyped error responses" malformed );
        ( ok + typed <> total,
          Printf.sprintf "%d of %d requests unanswered"
            (total - ok - typed) total );
        ( max_depth > queue_limit,
          Printf.sprintf "queue depth %d exceeded limit %d" max_depth
            queue_limit ) ]

(* ------------------------------------------------------------------ *)
(* Experiment registry: each entry declares the (workload, spec)
   results it reads, so [main] can compute the union before any
   workload is prepared. *)

type experiment = {
  name : string;
  needs : (Workloads.Registry.t * Harness.spec list) list;
  rates : bool;  (* reads the predictor rates the prefill measures *)
  run : ctx -> string list;  (* the violations; [] passes *)
}

let gate ?(needs = []) name run = { name; needs; rates = false; run }

let render ?(needs = []) ?(rates = false) name f =
  { name; needs; rates; run = (fun ctx -> f ctx; []) }

let experiments =
  [ render "table1" table1;
    render "table2" ~needs:(for_all []) table2;
    render "table3" ~needs:(for_all spec7) table3;
    render "table4"
      ~needs:
        (for_all
           (spec7_knob ~inline:true ~unroll:true
           @ spec7_knob ~inline:true ~unroll:false))
      table4;
    render "figure3" figure3;
    render "figure4"
      ~needs:
        (for_non_numeric
           (List.map Harness.spec
              [ Ilp.Machine.base; Ilp.Machine.cd; Ilp.Machine.cd_mf ]))
      figure4;
    render "figure5"
      ~needs:
        (for_non_numeric
           (List.map Harness.spec
              [ Ilp.Machine.base; Ilp.Machine.sp; Ilp.Machine.sp_cd;
                Ilp.Machine.sp_cd_mf ]))
      figure5;
    render "figure6" ~needs:(for_non_numeric [ sp_segments_spec ]) figure6;
    render "figure7" ~needs:(for_non_numeric [ sp_segments_spec ]) figure7;
    render "ablation-window"
      ~needs:(for_non_numeric ablation_window_specs)
      ablation_window;
    render "ablation-flows"
      ~needs:(for_non_numeric ablation_flows_specs)
      ablation_flows;
    render "ablation-latency"
      ~needs:(for_all ablation_latency_specs)
      ablation_latency;
    render "lattice-sweep" ~needs:(for_non_numeric lattice_specs)
      lattice_sweep;
    render "ablation-predictors" ~rates:true
      ~needs:(for_all predictor_specs)
      ablation_predictors;
    render "ablation-inline"
      ~needs:
        (for_all
           (spec7_knob ~inline:true ~unroll:true
           @ spec7_knob ~inline:false ~unroll:true))
      ablation_inline;
    render "ablation-guarded"
      ~needs:(for_non_numeric [ sp_segments_spec ])
      ablation_guarded;
    gate "static-vs-dynamic" ~needs:(for_all spec7) static_vs_dynamic;
    gate "serve-soak" serve_soak;
    gate "scaling" scaling;
    gate "segment-scaling" segment_scaling ]

(* The scaling gates re-execute workloads per point, so they only run
   when asked for by name. *)
let default_experiments =
  List.filter
    (fun e ->
      e.name <> "scaling" && e.name <> "segment-scaling")
    experiments

(* ------------------------------------------------------------------ *)
(* Driver: one context, one prefill, every experiment, exit status. *)

let context ~fuel ~jobs ~segmenting selected =
  let needs = Hashtbl.create 16 in
  List.iter
    (fun e ->
      List.iter
        (fun ((w : Workloads.Registry.t), specs) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt needs w.name) in
          Hashtbl.replace needs w.name (prev @ specs))
        e.needs)
    selected;
  Hashtbl.filter_map_inplace (fun _ specs -> Some (dedup_specs specs)) needs;
  { fuel; jobs; segmenting; needs;
    want_rates = List.exists (fun e -> e.rates) selected;
    results = Hashtbl.create 256;
    stats = Hashtbl.create 16;
    rates = Hashtbl.create 16 }

let usage () =
  prerr_endline
    "usage: main.exe [--fuel N] [--jobs N] [--segment-steps N|auto] \
     [--list] [experiment ...]\n\
     With no experiment names, runs everything except `scaling` and \
     `segment-scaling`.";
  exit 1

(* The bench's --jobs and --segment-steps take the CLI's parsers, so a
   bad value is the same typed error with the same exit code. *)
let or_exit = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("bench: " ^ Pipeline_error.to_string e);
    exit (Pipeline_error.exit_code e)

let () =
  let fuel = ref None and jobs = ref None in
  let segmenting : Harness.segmenting ref = ref `Auto in
  let rec parse names = function
    | [] -> List.rev names
    | "--list" :: _ ->
      List.iter (fun e -> print_endline e.name) experiments;
      exit 0
    | "--fuel" :: n :: rest ->
      (match int_of_string_opt n with
      | Some f when f > 0 -> fuel := Some f
      | _ -> usage ());
      parse names rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j -> jobs := Some (or_exit (Cli.Parallel.validate_jobs j))
      | None -> usage ());
      parse names rest
    | "--segment-steps" :: s :: rest ->
      segmenting := or_exit (Cli.Parallel.segmenting_of_flag (Some s));
      parse names rest
    | ("--fuel" | "--jobs" | "--segment-steps") :: [] -> usage ()
    | name :: rest -> parse (name :: names) rest
  in
  let names = parse [] (List.tl (Array.to_list Sys.argv)) in
  let with_banner e =
    { e with
      run =
        (fun ctx ->
          Format.printf "@.### %s ###@.@." e.name;
          e.run ctx) }
  in
  let selected =
    match names with
    | [] -> List.map with_banner default_experiments
    | names ->
      List.map
        (fun name ->
          match List.find_opt (fun e -> e.name = name) experiments with
          | Some e -> e
          | None ->
            prerr_endline ("unknown experiment: " ^ name);
            exit 1)
        names
  in
  let ctx =
    context ~fuel:!fuel ~jobs:(Cli.Parallel.resolve_jobs !jobs)
      ~segmenting:!segmenting selected
  in
  prefill ctx;
  let violations =
    List.concat_map
      (fun e -> List.map (fun v -> (e.name, v)) (e.run ctx))
      selected
  in
  (* A blank line ends the report; gate violations follow it. *)
  Format.printf "@.";
  List.iter
    (fun (name, v) -> Format.printf "GATE VIOLATION (%s): %s@." name v)
    violations;
  if violations <> [] then exit 1
