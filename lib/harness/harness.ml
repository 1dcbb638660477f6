module Counters = struct
  (* The pipeline counters are ordinary Obs.Metrics counters in the
     global registry: atomic adds commute, so the parallel path reports
     exactly the totals the sequential path does — and one registry
     snapshot covers these alongside every probe metric. *)
  let n_executions =
    Obs.Metrics.counter Obs.Metrics.global
      ~help:"VM executions run by the pipeline" "pipeline_executions_total"

  let n_passes =
    Obs.Metrics.counter Obs.Metrics.global
      ~help:"trace consumptions by the analyzer" "pipeline_trace_passes_total"

  let n_entries =
    Obs.Metrics.counter Obs.Metrics.global
      ~help:"trace entries scanned, summed over passes"
      "pipeline_trace_entries_total"

  let n_state_entries =
    Obs.Metrics.counter Obs.Metrics.global
      ~help:"trace entries times analysis states advanced"
      "pipeline_state_entries_total"

  let n_profiled_entries =
    Obs.Metrics.counter Obs.Metrics.global
      ~help:"trace entries consumed by sink-trained profile passes"
      "pipeline_profiled_entries_total"

  let n_segments =
    Obs.Metrics.counter Obs.Metrics.global
      ~help:"trace segments decoded by segmented analysis"
      "pipeline_segments_total"

  let executions () = Obs.Metrics.counter_value n_executions
  let passes () = Obs.Metrics.counter_value n_passes
  let entries () = Obs.Metrics.counter_value n_entries
  let state_entries () = Obs.Metrics.counter_value n_state_entries
  let profiled_entries () = Obs.Metrics.counter_value n_profiled_entries
  let segments () = Obs.Metrics.counter_value n_segments

  let record_execution ?(profiled = 0) () =
    Obs.Metrics.incr n_executions;
    Obs.Metrics.add n_profiled_entries profiled

  let record_pass ~entries ~states =
    Obs.Metrics.incr n_passes;
    Obs.Metrics.add n_entries entries;
    Obs.Metrics.add n_state_entries (entries * states)

  let record_segments n = Obs.Metrics.add n_segments n

  (* Total instruction-analysis events: every entry consumed by a
     sink-trained profile plus every (entry, analysis state) pair
     scanned by the trace analyzers, i.e. [profiled_entries] plus
     [state_entries]. *)
  let analyzed () = profiled_entries () + state_entries ()

  let reset () =
    List.iter Obs.Metrics.reset_counter
      [ n_executions; n_passes; n_entries; n_state_entries;
        n_profiled_entries; n_segments ]
end

let ( let* ) = Result.bind

let validate_jobs j =
  if j < 1 then
    Error
      (Pipeline_error.v Execute
         (Invalid_request (Printf.sprintf "jobs must be at least 1 (got %d)" j)))
  else Ok j

type prepared = {
  workload : Workloads.Registry.t;
  flat : Asm.Program.flat;
  info : Ilp.Program_info.t;
  trace : Vm.Trace.t;
  steps : int;
  status : Vm.Exec.status;
  completeness : Pipeline_error.completeness;
  halted : int option;
  profile : Predict.Predictor.Profile.builder;
  values : Predict.Predictor.Value.builder option;
}

(* Compose two optional VM observe hooks (first, then second). *)
let chain_observe a b =
  match (a, b) with
  | None, o | o, None -> o
  | Some f, Some g ->
    Some
      (fun ~pc ~step ~regs ~fregs ~mem ->
        f ~pc ~step ~regs ~fregs ~mem;
        g ~pc ~step ~regs ~fregs ~mem)

let deadline_observe = function
  | None -> None
  | Some d -> Some (Obs.Deadline.observe d)

(* The deadline barrier: [Obs.Deadline.Expired] raised anywhere inside
   [f] (the observe hook mid-execution, a [check] at a stage boundary)
   degrades to the typed error instead of escaping — sits {e inside}
   the [Pipeline_error.guard], so expiry is never misfiled as
   [Internal]. *)
let deadline_guard ?workload stage f =
  try f () with
  | Obs.Deadline.Expired { budget_ms; elapsed_ms } ->
    Error
      (Pipeline_error.v ?workload stage
         (Deadline_exceeded { budget_ms; elapsed_ms }))

let profile_builder info =
  Predict.Predictor.Profile.builder ~n_static:info.Ilp.Program_info.n
    ~is_cond:(Ilp.Program_info.is_cond_branch info)

let value_builder info =
  Predict.Predictor.Value.builder ~n_static:info.Ilp.Program_info.n
    ~defs:info.Ilp.Program_info.defs

(* A faulting or fuel-capped execution is a first-class outcome: the
   trace prefix is kept and analyzed, and every downstream result
   carries the truncation tag.  Nothing on this path raises. *)
let prepare_flat ?mem_words ?(probe = Obs.Probe.vm_disabled)
    ?(span_buf = Obs.Span.disabled) ?(train_values = false) ?deadline
    ~fuel w flat =
  let name = w.Workloads.Registry.name in
  let info = Ilp.Program_info.analyze_flat flat in
  let profile = profile_builder info in
  (* Value training is opt-in: the observe hook runs per retired
     instruction, so only runs whose specs actually use value
     prediction pay for it. *)
  let values = if train_values then Some (value_builder info) else None in
  let observe =
    chain_observe
      (Option.map Predict.Predictor.Value.observe values)
      (deadline_observe deadline)
  in
  (* The one VM execution: the branch profile accumulates through a sink
     (and the value profile through the observe hook) while the trace is
     recorded, so the trained predictors cost no extra trace pass. *)
  let outcome =
    Obs.Span.with_span span_buf ~workload:name "execute" (fun () ->
        Vm.Exec.run ?mem_words ~fuel ~probe ?observe
          ~sink:(Predict.Predictor.Profile.sink profile) flat)
  in
  Counters.record_execution ~profiled:outcome.steps ();
  let halted =
    match outcome.status with
    | Vm.Exec.Halted v -> Some v
    | Out_of_fuel | Fault _ -> None
  in
  { workload = w; flat; info; trace = outcome.trace;
    steps = outcome.steps; status = outcome.status;
    completeness = Vm.Exec.completeness_of outcome; halted; profile;
    values }

let prepare ?options ?mem_words ?fuel ?(obs = Obs.Ctx.disabled)
    ?(span_buf = Obs.Span.disabled) ?train_values w =
  let name = w.Workloads.Registry.name in
  let fuel =
    match fuel with Some f -> f | None -> w.Workloads.Registry.fuel
  in
  let flat =
    Obs.Span.with_span span_buf ~workload:name "compile" (fun () ->
        Workloads.Registry.compile ?options w)
  in
  prepare_flat ?mem_words ~probe:(Obs.Ctx.vm_probe obs) ~span_buf
    ?train_values ~fuel w flat

let validated_mem_words ~workload = function
  | None -> Ok None
  | Some n ->
    let* n = Vm.Exec.validate_mem_words ~workload n in
    Ok (Some n)

let prepare_result ?options ?mem_words ?fuel ?(obs = Obs.Ctx.disabled)
    ?(span_buf = Obs.Span.disabled) ?train_values ?deadline w =
  let name = w.Workloads.Registry.name in
  let fuel =
    match fuel with Some f -> f | None -> w.Workloads.Registry.fuel
  in
  let* mem_words = validated_mem_words ~workload:name mem_words in
  let* flat =
    Obs.Span.with_span span_buf ~workload:name "compile" (fun () ->
        Workloads.Registry.compile_result ?options w)
  in
  Pipeline_error.guard ~workload:name Execute (fun () ->
      deadline_guard ~workload:name Execute (fun () ->
          Option.iter Obs.Deadline.check deadline;
          Ok
            (prepare_flat ?mem_words ~probe:(Obs.Ctx.vm_probe obs) ~span_buf
               ?train_values ?deadline ~fuel w flat)))

let prepare_source ?(fuel = 10_000_000) ?train_values ~name source =
  let w =
    { Workloads.Registry.name; description = "ad hoc source"; lang = "C";
      numeric = false; source; fuel; expected_result = None }
  in
  prepare ?train_values w

let profile_predictor p = Predict.Predictor.Profile.predictor p.profile

type predictor_kind =
  [ `Profile | `Perfect | `Btfn | `Two_bit
  | `Custom of Predict.Predictor.t ]

type spec = {
  s_machine : Ilp.Machine.t;
  s_inline : bool;
  s_unroll : bool;
  s_segments : bool;
  s_predictor : predictor_kind;
  s_step_budget : int option;
}

let spec ?(inline = true) ?(unroll = true) ?(segments = false)
    ?(predictor = `Profile) ?step_budget machine =
  { s_machine = machine; s_inline = inline; s_unroll = unroll;
    s_segments = segments; s_predictor = predictor;
    s_step_budget = step_budget }

let spec_key s =
  let pred =
    match s.s_predictor with
    | `Profile -> "profile"
    | `Perfect -> "perfect"
    | `Btfn -> "btfn"
    | `Two_bit -> "2bit"
    | `Custom p -> "custom:" ^ p.Predict.Predictor.name
  in
  Printf.sprintf "%s|i%c|u%c|s%c|b%s|%s" s.s_machine.Ilp.Machine.name
    (if s.s_inline then '1' else '0')
    (if s.s_unroll then '1' else '0')
    (if s.s_segments then '1' else '0')
    (match s.s_step_budget with None -> "-" | Some b -> string_of_int b)
    pred

(* One predictor record per kind for one program: configs share a
   decode only when their predictor is physically the same record
   ([Ilp.Analyze.compatible]), so the seven paper specs must all get the
   one profile predictor. *)
let predictor_of_kind ~flat ~info ~profile =
  let profile = lazy (Predict.Predictor.Profile.predictor profile) in
  let btfn =
    lazy
      (Predict.Predictor.backward_taken
         ~is_backward:(Ilp.Program_info.branch_backward flat))
  in
  function
  | `Profile -> Lazy.force profile
  | `Perfect -> Predict.Predictor.perfect
  | `Btfn -> Lazy.force btfn
  | `Two_bit ->
      (* stateful: a fresh counter table per spec, never shared *)
      Predict.Predictor.two_bit ~n_static:info.Ilp.Program_info.n
  | `Custom p -> p

(* Whether any spec's machine needs value-prediction training.  Used by
   drivers to decide up front if the profiling execution should pay for
   the observe hook. *)
let specs_need_values specs =
  List.exists (fun s -> s.s_machine.Ilp.Machine.value_predict) specs

let configs_of_specs ?(obs = Obs.Ctx.disabled) ?value_table ~flat ~info
    ~profile specs =
  let predictor = predictor_of_kind ~flat ~info ~profile in
  List.map
    (fun s ->
      let value_table =
        if s.s_machine.Ilp.Machine.value_predict then value_table else None
      in
      Ilp.Analyze.config ~inline:s.s_inline ~unroll:s.s_unroll
        ~collect_segments:s.s_segments ~mem_words:Vm.Exec.default_mem_words
        ?step_budget:s.s_step_budget ?value_table
        ~probe:
          (Obs.Ctx.analyzer_probe obs ~machine:s.s_machine.Ilp.Machine.name)
        s.s_machine (predictor s.s_predictor))
    specs

(* ------------------------------------------------------------------ *)
(* Intra-trace segmentation (DESIGN.md §15): how a run decides whether
   to shard one workload's trace across domains. *)

type segmenting = [ `Off | `Auto | `Steps of int ]

let resolve_segment_steps ~trace_len ~jobs = function
  | `Off -> None
  | `Steps n -> Some (max 1 n)
  | `Auto ->
    (* Auto only engages when there are domains to feed; an explicit
       stride is honored even sequentially (the deterministic
       reference path tests and the fuzzer exercise). *)
    if jobs <= 1 then None
    else Some (Ilp.Segmented.auto_steps ~trace_len ~jobs)

(* Once-per-process stderr warning for the --jobs dead-weight edge:
   more domains than parallelizable tasks, and no segmentation to
   soak up the extras. *)
let jobs_warned = Atomic.make false

let warn_dead_jobs ~jobs ~tasks =
  if not (Atomic.exchange jobs_warned true) then
    Printf.eprintf
      "warning: --jobs %d exceeds the %d parallelizable task(s); extra \
       domains stay idle (use --segment-steps to parallelize within a \
       trace)\n%!"
      jobs tasks

(* The segmented analysis fan-out over one stream of trace entries:
   configs are partitioned into decode groups
   ([Ilp.Analyze.decode_groups], positions remembered), each group gets
   a segmented sink — or the plain [sink_many] for a stateful predictor's
   group of one — and the stream is teed into all of them.  [finish]
   stitches every group and scatters results back into config order, so
   callers see exactly the [run_many] contract.  Works identically over
   a live VM execution (streaming) or a materialized trace
   ([Vm.Trace.feed]). *)
let segmented_sinks ?pool ?(obs = Obs.Ctx.disabled)
    ?(span_index_base = 0) ?(workload = "") ?check ~segment_steps configs
    info =
  let cfg_arr = Array.of_list configs in
  (* Per group: result positions, its sink, and a finish yielding
     (results in group order, segments decoded). *)
  let members =
    List.mapi
      (fun g positions ->
        let cfgs = List.map (fun i -> cfg_arr.(i)) positions in
        if Ilp.Analyze.compatible cfgs then
          let sink, finish =
            Ilp.Segmented.sink ?pool ~obs
              ~span_index_base:(span_index_base + (g * 10_000_000))
              ~workload ?check ~segment_steps cfgs info
          in
          ( positions,
            sink,
            fun ?completeness () ->
              let o = finish ?completeness () in
              (o.Ilp.Segmented.results, o.Ilp.Segmented.segments) )
        else
          (* Not decode-sharable (stateful predictor): this config's
             state advances directly on the stream, exactly the
             sequential path. *)
          let sink, finish = Ilp.Analyze.sink_many cfgs info in
          ( positions,
            sink,
            fun ?completeness () -> (finish ?completeness (), 0) ))
      (Ilp.Analyze.decode_groups configs)
  in
  let sink =
    match members with
    | [ (_, s, _) ] -> s
    | _ ->
      List.fold_left
        (fun acc (_, s, _) -> Vm.Trace.tee acc s)
        Vm.Trace.null_sink members
  in
  let finish ?completeness () =
    let out = Array.make (Array.length cfg_arr) None in
    let total_segments = ref 0 in
    List.iter
      (fun (positions, _, fin) ->
        let results, segs = fin ?completeness () in
        total_segments := !total_segments + segs;
        List.iter2 (fun i r -> out.(i) <- Some r) positions results)
      members;
    Counters.record_segments !total_segments;
    Array.to_list (Array.map Option.get out)
  in
  (sink, finish)

module Run = struct
  type config = {
    specs : spec list;
    jobs : int;
    fuel : int option;
    step_budget : int option;
    mem_words : int option;
    options : Codegen.Compile.options option;
    stream : bool;
    deadline_ms : int option;
    obs : Obs.Ctx.t;
    segment_steps : segmenting;
  }

  let config ?(jobs = 1) ?fuel ?step_budget ?mem_words ?options
      ?(stream = false) ?deadline_ms ?(obs = Obs.Ctx.disabled)
      ?(segment_steps = `Off) specs =
    { specs; jobs; fuel; step_budget; mem_words; options; stream;
      deadline_ms; obs; segment_steps }

  type item = {
    it_workload : Workloads.Registry.t;
    it_outcome : (Ilp.Analyze.result list, Pipeline_error.t) result;
  }

  let on_prepared ?(obs = Obs.Ctx.disabled) ?(span_buf = Obs.Span.disabled)
      ?pool ?(segmenting = `Off) ?(jobs = 1) ?(task_index = 0) p specs =
    let name = p.workload.Workloads.Registry.name in
    Obs.Span.with_span span_buf ~workload:name "analyze" (fun () ->
        (* One table shared by every vp spec; None when the preparation
           ran without [train_values] (vp then degrades to a no-op). *)
        let value_table =
          if specs_need_values specs then
            Option.map Predict.Predictor.Value.table p.values
          else None
        in
        let configs =
          configs_of_specs ~obs ?value_table ~flat:p.flat ~info:p.info
            ~profile:p.profile specs
        in
        Counters.record_pass ~entries:(Vm.Trace.length p.trace)
          ~states:(List.length specs);
        match
          resolve_segment_steps ~trace_len:(Vm.Trace.length p.trace) ~jobs
            segmenting
        with
        | None ->
          Ilp.Analyze.run_many ~completeness:p.completeness configs p.info
            p.trace
        | Some segment_steps ->
          let sink, finish =
            segmented_sinks ?pool ~obs
              ~span_index_base:((task_index + 1) * 100_000_000)
              ~workload:name ~segment_steps configs p.info
          in
          Vm.Trace.feed p.trace sink;
          finish ~completeness:p.completeness ())

  (* Returns the per-spec results plus how the analyzed execution
     ended — the serve reply needs steps and status, the table paths
     only the results. *)
  let stream_flat_full ?mem_words ?deadline ?pool ?(segmenting = `Off)
      ?(jobs = 1) ?(task_index = 0) ~obs ~span_buf ~fuel w flat specs =
    let name = w.Workloads.Registry.name in
    let info = Ilp.Program_info.analyze_flat flat in
    let profile = profile_builder info in
    let values =
      if specs_need_values specs then Some (value_builder info) else None
    in
    let observe =
      chain_observe
        (Option.map Predict.Predictor.Value.observe values)
        (deadline_observe deadline)
    in
    let probe = Obs.Ctx.vm_probe obs in
    (* Execution 1 trains the profile (and, for vp specs, value)
       predictor; execution 2 streams into every analysis state.
       Nothing is materialized in between.  A deadline rides the
       observe hook of both executions — and because analysis happens
       {e inside} execution 2's retirement path, the wall-clock guard
       covers the analyzer too, which a materialized scan would not.
       The last partial chunk is analyzed at close, after the last
       observe call, so the clock is checked once more after [finish]. *)
    let o1 =
      Obs.Span.with_span span_buf ~workload:name "execute" (fun () ->
          Vm.Exec.run ?mem_words ~fuel ~record:false ~probe ?observe
            ~sink:(Predict.Predictor.Profile.sink profile) flat)
    in
    Counters.record_execution ~profiled:o1.steps ();
    Option.iter Obs.Deadline.check deadline;
    Obs.Span.with_span span_buf ~workload:name "analyze" (fun () ->
        let value_table =
          Option.map Predict.Predictor.Value.table values
        in
        let configs =
          configs_of_specs ~obs ?value_table ~flat ~info ~profile specs
        in
        (* The profiling execution retired exactly the entries the
           analysis execution will (same program, fuel, memory), so
           [o1.steps] is the exact trace length for auto-sizing. *)
        let sink, finish =
          match
            resolve_segment_steps ~trace_len:o1.steps ~jobs segmenting
          with
          | None ->
            let sink, fin = Ilp.Analyze.sink_many configs info in
            (sink, fun ?completeness () -> fin ?completeness ())
          | Some segment_steps ->
            let check () = Option.iter Obs.Deadline.check deadline in
            segmented_sinks ?pool ~obs
              ~span_index_base:((task_index + 1) * 100_000_000)
              ~workload:name ~check ~segment_steps configs info
        in
        let o2 =
          Vm.Exec.run ?mem_words ~fuel ~record:false ~probe
            ?observe:(deadline_observe deadline) ~sink flat
        in
        Counters.record_execution ();
        Counters.record_pass ~entries:o2.steps ~states:(List.length specs);
        let results = finish ~completeness:(Vm.Exec.completeness_of o2) () in
        Option.iter Obs.Deadline.check deadline;
        (results, o2.steps, o2.status))

  let stream_flat ?mem_words ?deadline ?pool ?segmenting ?jobs ?task_index
      ~obs ~span_buf ~fuel w flat specs =
    let results, _, _ =
      stream_flat_full ?mem_words ?deadline ?pool ?segmenting ?jobs
        ?task_index ~obs ~span_buf ~fuel w flat specs
    in
    results

  let stream_result ?options ?mem_words ?fuel ?deadline ?pool ?segmenting
      ?jobs ?task_index ~obs ~span_buf w specs =
    let name = w.Workloads.Registry.name in
    let fuel =
      match fuel with Some f -> f | None -> w.Workloads.Registry.fuel
    in
    let* mem_words = validated_mem_words ~workload:name mem_words in
    let* flat =
      Obs.Span.with_span span_buf ~workload:name "compile" (fun () ->
          Workloads.Registry.compile_result ?options w)
    in
    Pipeline_error.guard ~workload:name Execute (fun () ->
        deadline_guard ~workload:name Execute (fun () ->
            Option.iter Obs.Deadline.check deadline;
            Ok
              (stream_flat ?mem_words ?deadline ?pool ?segmenting ?jobs
                 ?task_index ~obs ~span_buf ~fuel w flat specs)))

  (* Parallel fan-out: each workload's whole pipeline — compile,
     execute, analyze every spec — is one pool task with its own VM
     state and span buffer; nothing is shared between tasks but the
     atomic metrics.  Results come back in workload order and span
     buffers merge by task index, so the output — results, counter
     totals, span skeleton — is bit-identical to the sequential run,
     whatever the scheduling.  The guard wrapper upholds the pipeline
     invariant across the domain boundary: an exception a task leaks
     becomes that workload's typed [Internal] error instead of escaping
     the pool. *)
  let exec cfg ws =
    let* jobs = validate_jobs cfg.jobs in
    let specs =
      (* a spec without its own budget inherits the run's *)
      List.map
        (fun s ->
          match (s.s_step_budget, cfg.step_budget) with
          | None, (Some _ as b) -> { s with s_step_budget = b }
          | _ -> s)
        cfg.specs
    in
    let task ?pool (i, w) =
      let name = w.Workloads.Registry.name in
      let buf = Obs.Ctx.task_buffer cfg.obs ~index:i ~label:name in
      (* Each workload gets the full wall-clock budget, armed when its
         own pipeline starts.  A deadline forces the streaming path:
         analysis then happens inside the observed execution, so the
         guard covers it — a materialized scan would run unclocked. *)
      let deadline =
        Option.map (fun budget_ms -> Obs.Deadline.start ~budget_ms)
          cfg.deadline_ms
      in
      let outcome =
        Pipeline_error.guard ~workload:name Execute (fun () ->
            if cfg.stream || deadline <> None then
              stream_result ?options:cfg.options ?mem_words:cfg.mem_words
                ?fuel:cfg.fuel ?deadline ?pool
                ~segmenting:cfg.segment_steps ~jobs ~task_index:i
                ~obs:cfg.obs ~span_buf:buf w specs
            else
              let* p =
                prepare_result ?options:cfg.options
                  ?mem_words:cfg.mem_words ?fuel:cfg.fuel ~obs:cfg.obs
                  ~span_buf:buf
                  ~train_values:(specs_need_values specs) w
              in
              Ok
                (on_prepared ~obs:cfg.obs ~span_buf:buf ?pool
                   ~segmenting:cfg.segment_steps ~jobs ~task_index:i p
                   specs))
      in
      { it_workload = w; it_outcome = outcome }
    in
    let indexed = List.mapi (fun i w -> (i, w)) ws in
    let seg_on = cfg.segment_steps <> `Off in
    let n_tasks = List.length indexed in
    if (not seg_on) && n_tasks > 0 && jobs > n_tasks then
      warn_dead_jobs ~jobs ~tasks:n_tasks;
    match indexed with
    | [] -> Ok []
    | _ when jobs = 1 || ((not seg_on) && n_tasks = 1) ->
      Ok (List.map (fun iw -> task iw) indexed)
    | _ when not seg_on ->
      Ok
        (Stdx.Pool.with_pool ~jobs (fun pool ->
             Stdx.Pool.map_list pool (fun iw -> task iw) indexed))
    | _ ->
      (* Segmentation wants the pool inside every task (decode +
         stitch fan-out), including the single-workload case — the
         whole point of intra-trace sharding.  Nested submissions are
         safe: the pool's submitters and awaiters help drain the
         queue. *)
      Ok
        (Stdx.Pool.with_pool ~jobs (fun pool ->
             Stdx.Pool.map_list pool (fun iw -> task ~pool iw) indexed))
end

(* ------------------------------------------------------------------ *)
(* Request-shaped entry point: one workload, per-request quotas, an
   optional precompiled program (cache hit) and an optional seeded
   fault — the unit of work the serve daemon executes.  Always streams,
   so a wall-clock deadline covers execution {e and} analysis. *)

module Request = struct
  type reply = {
    r_flat : Asm.Program.flat;
    r_results : Ilp.Analyze.result list;
    r_steps : int;
    r_status : Vm.Exec.status;
  }

  (* The seeded-fault variant of the request body: single execution,
     btfn prediction (no training pass), analysis streamed through the
     injector's wrapped sink, deadline chained onto the injector's own
     observe hook. *)
  let exec_injected ~obs ~deadline ~mem_words ~fuel ~machine ~seed ~kind
      flat =
    let metrics =
      if Obs.Ctx.enabled obs then Some (Obs.Ctx.metrics obs) else None
    in
    let app = Fault.Injector.plan ?metrics ~seed ~fuel kind flat in
    let dflat = app.Fault.Injector.flat in
    let info = Ilp.Program_info.analyze_flat dflat in
    let predictor =
      Predict.Predictor.backward_taken
        ~is_backward:(Ilp.Program_info.branch_backward dflat)
    in
    let cfg =
      Ilp.Analyze.config
        ~mem_words:
          (Option.value mem_words ~default:Vm.Exec.default_mem_words)
        machine predictor
    in
    let sink, finish = Ilp.Analyze.sink_many [ cfg ] info in
    let sink = app.Fault.Injector.wrap_sink sink in
    let observe =
      chain_observe app.Fault.Injector.observe (deadline_observe deadline)
    in
    let outcome =
      Vm.Exec.run ?mem_words ~fuel:app.Fault.Injector.fuel ~record:false
        ~sink ~probe:(Obs.Ctx.vm_probe obs) ?observe dflat
    in
    Counters.record_execution ();
    let analyzed_entries =
      match !(app.Fault.Injector.cut) with
      | Some f -> f.Pipeline_error.f_step
      | None -> outcome.steps
    in
    Counters.record_pass ~entries:analyzed_entries ~states:1;
    let completeness =
      match !(app.Fault.Injector.cut) with
      | Some f -> Pipeline_error.Truncated f
      | None -> Vm.Exec.completeness_of outcome
    in
    { r_flat = flat;
      r_results = finish ~completeness ();
      r_steps = outcome.steps;
      r_status = outcome.status }

  let exec ?(obs = Obs.Ctx.disabled) ?(span_buf = Obs.Span.disabled) ?flat
      ?fuel ?step_budget ?mem_words ?deadline_ms ?inject ?pool
      ?(segment_steps = `Off) ~specs w =
    let jobs =
      match pool with Some p -> Stdx.Pool.jobs p | None -> 1
    in
    let name = w.Workloads.Registry.name in
    let fuel =
      match fuel with Some f -> f | None -> w.Workloads.Registry.fuel
    in
    let specs =
      (* a spec without its own budget inherits the request's *)
      List.map
        (fun s ->
          match (s.s_step_budget, step_budget) with
          | None, (Some _ as b) -> { s with s_step_budget = b }
          | _ -> s)
        specs
    in
    let* mem_words = validated_mem_words ~workload:name mem_words in
    (* The clock starts before compilation: a cache miss spends budget
       compiling, a hit keeps it all for execution. *)
    let deadline =
      Option.map (fun budget_ms -> Obs.Deadline.start ~budget_ms)
        deadline_ms
    in
    let* flat =
      match flat with
      | Some f -> Ok f
      | None ->
        Obs.Span.with_span span_buf ~workload:name "compile" (fun () ->
            Workloads.Registry.compile_result w)
    in
    Pipeline_error.guard ~workload:name Execute (fun () ->
        deadline_guard ~workload:name Execute (fun () ->
            Option.iter Obs.Deadline.check deadline;
            match inject with
            | Some (kind, seed) ->
              let machine =
                match specs with
                | s :: _ -> s.s_machine
                | [] -> Ilp.Machine.sp_cd_mf
              in
              Ok
                (exec_injected ~obs ~deadline ~mem_words ~fuel ~machine
                   ~seed ~kind flat)
            | None ->
              let r_results, r_steps, r_status =
                Run.stream_flat_full ?mem_words ?deadline ?pool
                  ~segmenting:segment_steps ~jobs ~obs ~span_buf ~fuel w
                  flat specs
              in
              Ok { r_flat = flat; r_results; r_steps; r_status }))
end

type check_result = {
  c_workload : string;
  c_engine : Cfg.Engine.report;
  c_status : Vm.Exec.status option;
  c_dyn_entries : int;
  c_dyn_total : int;
  c_dyn_violations : Cfg.Verify.Dynamic.violation list;
}

let check ?options ?config ?(obs = Obs.Ctx.disabled) ?fuel
    ?(dynamic = false) w =
  let flat = Workloads.Registry.compile ?options w in
  let a = Cfg.Analysis.analyze flat in
  let engine =
    Cfg.Engine.run ~obs ?config ~workload:w.Workloads.Registry.name
      Cfg.Verify.passes a
  in
  if dynamic then begin
    let fuel =
      match fuel with Some f -> f | None -> w.Workloads.Registry.fuel
    in
    let d = Cfg.Verify.Dynamic.create a in
    let outcome =
      Vm.Exec.run ~fuel ~record:false
        ~sink:(Cfg.Verify.Dynamic.sink d)
        ~observe:(Cfg.Verify.Dynamic.observe d) flat
    in
    Counters.record_execution ();
    { c_workload = w.Workloads.Registry.name;
      c_engine = engine;
      c_status = Some outcome.status;
      c_dyn_entries = Cfg.Verify.Dynamic.entries d;
      c_dyn_total = Cfg.Verify.Dynamic.n_violations d;
      c_dyn_violations = Cfg.Verify.Dynamic.violations d }
  end
  else
    { c_workload = w.Workloads.Registry.name;
      c_engine = engine;
      c_status = None;
      c_dyn_entries = 0;
      c_dyn_total = 0;
      c_dyn_violations = [] }

type estimated = {
  e_workload : string;
  e_est : Cfg.Estimate.t;
  e_info : Ilp.Program_info.t;
  e_bounds : Ilp.Static_bound.t list;
}

let estimate_flat ?inline ?unroll ~machines ~workload flat =
  Pipeline_error.guard ~workload Analyze (fun () ->
      let a = Cfg.Analysis.analyze flat in
      let info = Ilp.Program_info.of_flat flat a in
      let est = Cfg.Estimate.compute ?inline ?unroll a in
      Ok
        { e_workload = workload;
          e_est = est;
          e_info = info;
          e_bounds =
            List.map (fun m -> Ilp.Static_bound.compile est info m) machines })

let estimate ?options ?inline ?unroll ~machines w =
  let name = w.Workloads.Registry.name in
  let* flat = Workloads.Registry.compile_result ?options w in
  estimate_flat ?inline ?unroll ~machines ~workload:name flat

let branch_stats p =
  let dyn = Predict.Predictor.Profile.dyn_branches p.profile in
  let correct = Predict.Predictor.Profile.correct p.profile in
  let len = p.steps in
  { Ilp.Stats.dyn_branches = dyn;
    trace_len = len;
    rate =
      (if dyn = 0 then 100.
       else 100. *. float_of_int correct /. float_of_int dyn);
    instrs_between =
      (if dyn = 0 then float_of_int len
       else float_of_int len /. float_of_int dyn) }

(* ------------------------------------------------------------------ *)
(* Fault injection: run one deterministically perturbed pipeline. *)

type injected = {
  i_workload : string;
  i_kind : Fault.Injector.kind;
  i_seed : int;
  i_description : string;
  i_status : Vm.Exec.status;
  i_steps : int;
  i_result : Ilp.Analyze.result;
}

let inject ?fuel ?(obs = Obs.Ctx.disabled)
    ?(machine = Ilp.Machine.sp_cd_mf) ~seed ~kind w =
  let fuel =
    match fuel with Some f -> f | None -> w.Workloads.Registry.fuel
  in
  match Workloads.Registry.compile_result w with
  | Error e -> Error e
  | Ok flat ->
    let metrics =
      if Obs.Ctx.enabled obs then Some (Obs.Ctx.metrics obs) else None
    in
    let app = Fault.Injector.plan ?metrics ~seed ~fuel kind flat in
    (* The fault barrier: a corrupted program may break static analysis
       in ways no enumerated error covers; anything escaping becomes a
       typed Internal error rather than an exception. *)
    Pipeline_error.guard ~workload:w.Workloads.Registry.name Analyze
      (fun () ->
        let flat = app.Fault.Injector.flat in
        let info = Ilp.Program_info.analyze_flat flat in
        (* btfn needs no training execution, keeping injection to a
           single deterministic run *)
        let predictor =
          Predict.Predictor.backward_taken
            ~is_backward:(Ilp.Program_info.branch_backward flat)
        in
        let cfg =
          Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words machine
            predictor
        in
        let sink, finish = Ilp.Analyze.sink_many [ cfg ] info in
        let sink = app.Fault.Injector.wrap_sink sink in
        let outcome =
          Vm.Exec.run ~fuel:app.Fault.Injector.fuel ~record:false ~sink
            ~probe:(Obs.Ctx.vm_probe obs)
            ?observe:app.Fault.Injector.observe flat
        in
        Counters.record_execution ();
        let analyzed_entries =
          match !(app.Fault.Injector.cut) with
          | Some f -> f.Pipeline_error.f_step
          | None -> outcome.steps
        in
        Counters.record_pass ~entries:analyzed_entries ~states:1;
        let completeness =
          match !(app.Fault.Injector.cut) with
          | Some f -> Pipeline_error.Truncated f
          | None -> Vm.Exec.completeness_of outcome
        in
        match finish ~completeness () with
        | [ r ] ->
          Ok
            { i_workload = w.Workloads.Registry.name;
              i_kind = kind;
              i_seed = seed;
              i_description = app.Fault.Injector.description;
              i_status = outcome.status;
              i_steps = outcome.steps;
              i_result = r }
        | _ -> assert false)

(* The segmented-vs-sequential differential on a perturbed pipeline:
   run the injected execution once, materializing exactly the stream
   the analyzer would have seen (the injector's sink wrapper applies
   its cut to the buffer), then analyze that buffer both ways and
   compare results structurally.  Returns the sequential result (for
   the usual completeness tally) plus the verdict. *)
let inject_compare ?fuel ?(obs = Obs.Ctx.disabled)
    ?(machine = Ilp.Machine.sp_cd_mf) ~seed ~kind ~segment_steps w =
  let fuel =
    match fuel with Some f -> f | None -> w.Workloads.Registry.fuel
  in
  match Workloads.Registry.compile_result w with
  | Error e -> Error e
  | Ok flat ->
    let metrics =
      if Obs.Ctx.enabled obs then Some (Obs.Ctx.metrics obs) else None
    in
    let app = Fault.Injector.plan ?metrics ~seed ~fuel kind flat in
    Pipeline_error.guard ~workload:w.Workloads.Registry.name Analyze
      (fun () ->
        let flat = app.Fault.Injector.flat in
        let info = Ilp.Program_info.analyze_flat flat in
        let predictor =
          Predict.Predictor.backward_taken
            ~is_backward:(Ilp.Program_info.branch_backward flat)
        in
        let cfg =
          Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words machine
            predictor
        in
        let buf = Vm.Trace.create () in
        let sink = app.Fault.Injector.wrap_sink (Vm.Trace.buffer_sink buf) in
        let outcome =
          Vm.Exec.run ~fuel:app.Fault.Injector.fuel ~record:false ~sink
            ~probe:(Obs.Ctx.vm_probe obs)
            ?observe:app.Fault.Injector.observe flat
        in
        Counters.record_execution ();
        let completeness =
          match !(app.Fault.Injector.cut) with
          | Some f -> Pipeline_error.Truncated f
          | None -> Vm.Exec.completeness_of outcome
        in
        Counters.record_pass ~entries:(Vm.Trace.length buf) ~states:1;
        let seq =
          Ilp.Analyze.run_many ~completeness [ cfg ] info buf
        in
        Counters.record_pass ~entries:(Vm.Trace.length buf) ~states:1;
        let seg =
          Ilp.Segmented.run ~completeness ~segment_steps [ cfg ] info buf
        in
        Counters.record_segments seg.Ilp.Segmented.segments;
        match (seq, seg.Ilp.Segmented.results) with
        | [ r ], [ r' ] ->
          Ok
            ( { i_workload = w.Workloads.Registry.name;
                i_kind = kind;
                i_seed = seed;
                i_description = app.Fault.Injector.description;
                i_status = outcome.status;
                i_steps = outcome.steps;
                i_result = r },
              r = r' )
        | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Fuzz driver: the pipeline invariant, checked in bulk.  Every seeded
   case must yield either a result or a structured error; an exception
   reaching this frame is an invariant violation, reported (never
   re-raised) so CI can fail on it with full reproduction data. *)

module Fuzz = struct
  type escaped = {
    e_seed : int;
    e_kind : Fault.Injector.kind;
    e_workload : string;
    e_exn : string;
  }

  type report = {
    cases : int;
    complete : int;
    truncated : int;
    structured_errors : int;
    internal_errors : int;
    escaped : escaped list;
  }

  (* What one seeded case did; folded into the report in index order so
     the counts and the escaped list never depend on scheduling. *)
  type outcome =
    | O_complete
    | O_truncated
    | O_structured
    | O_internal
    | O_escaped of escaped

  let run ?fuel ?(workloads = Workloads.Registry.all) ?(jobs = 1)
      ?(obs = Obs.Ctx.disabled) ?(random_machines = false)
      ?(segments = false) ~seed ~cases () =
    let* jobs = validate_jobs jobs in
    let wl = Array.of_list workloads in
    let kinds = Array.of_list Fault.Injector.all_kinds in
    let n_kinds = Array.length kinds in
    (* Case [i]'s seed is a pure function of (seed, i) — a splitmix64
       stream output — so a parallel sweep reproduces the sequential
       one case for case. *)
    let case i =
      let kind = kinds.(i mod n_kinds) in
      let w = wl.(i / n_kinds mod Array.length wl) in
      let case_seed = Fault.Injector.Rng.derive ~seed ~index:i in
      (* With [random_machines], each case also draws a random lattice
         point, so corrupted programs meet arbitrary machine specs —
         the compositional model fuzzed end to end. *)
      let machine =
        if random_machines then Some (Ilp.Machine.random case_seed)
        else None
      in
      if segments then begin
        (* Differential mode: segmented analysis must reproduce the
           sequential result bit for bit on the perturbed pipeline.
           The segment stride is itself fuzzed, drawn from the same
           seed stream as the case (a second derive index keeps it
           independent of the fault plan). *)
        let segment_steps =
          1 + (Fault.Injector.Rng.derive ~seed:case_seed ~index:997 land 0xFFF)
        in
        match
          inject_compare ?fuel ~obs ?machine ~seed:case_seed ~kind
            ~segment_steps w
        with
        | Ok (inj, identical) ->
          if not identical then
            O_escaped
              { e_seed = case_seed; e_kind = kind;
                e_workload = w.Workloads.Registry.name;
                e_exn =
                  Printf.sprintf
                    "segmented analysis diverged from sequential \
                     (segment_steps=%d)"
                    segment_steps }
          else (
            match inj.i_result.Ilp.Analyze.completeness with
            | Pipeline_error.Complete -> O_complete
            | Pipeline_error.Truncated _ -> O_truncated)
        | Error { Pipeline_error.cause = Internal _; _ } -> O_internal
        | Error _ -> O_structured
        | exception e ->
          O_escaped
            { e_seed = case_seed; e_kind = kind;
              e_workload = w.Workloads.Registry.name;
              e_exn = Printexc.to_string e }
      end
      else
        match inject ?fuel ~obs ?machine ~seed:case_seed ~kind w with
        | Ok inj -> (
          match inj.i_result.Ilp.Analyze.completeness with
          | Pipeline_error.Complete -> O_complete
          | Pipeline_error.Truncated _ -> O_truncated)
        | Error { Pipeline_error.cause = Internal _; _ } -> O_internal
        | Error _ -> O_structured
        | exception e ->
          O_escaped
            { e_seed = case_seed; e_kind = kind;
              e_workload = w.Workloads.Registry.name;
              e_exn = Printexc.to_string e }
    in
    let outcomes =
      if jobs > 1 && cases > 1 then
        Stdx.Pool.with_pool ~jobs (fun pool ->
            Stdx.Pool.map_array pool case (Array.init cases Fun.id))
      else Array.init cases case
    in
    let complete = ref 0
    and truncated = ref 0
    and structured = ref 0
    and internal = ref 0
    and escaped = ref [] in
    Array.iter
      (function
        | O_complete -> incr complete
        | O_truncated -> incr truncated
        | O_structured -> incr structured
        | O_internal -> incr internal
        | O_escaped e -> escaped := e :: !escaped)
      outcomes;
    Ok
      { cases; complete = !complete; truncated = !truncated;
        structured_errors = !structured; internal_errors = !internal;
        escaped = List.rev !escaped }
end
