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
      ~help:"trace segments applied through the replay pipeline"
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

(* Every count the harness takes from outside — jobs, fuel, a step
   budget, a deadline — must be at least 1: anything smaller is a typed
   [Invalid_request] (exit code 2), never a degenerate run. *)
let check_count ?workload ?(min = 1) what = function
  | Some n when n < min ->
    Error
      (Pipeline_error.v ?workload Execute
         (Invalid_request
            (Printf.sprintf "%s must be at least %d (got %d)" what min n)))
  | _ -> Ok ()

let validate_jobs j =
  let* () = check_count "jobs" (Some j) in
  Ok j

let check_fuel = check_count "fuel"

let resolve_fuel w fuel =
  let* () = check_fuel fuel in
  Ok (Option.value fuel ~default:w.Workloads.Registry.fuel)

(* The raising entry points refuse the same fuel, as [Invalid_argument]
   carrying the typed error's message. *)
let resolve_fuel_exn w fuel =
  match resolve_fuel w fuel with
  | Ok f -> f
  | Error { Pipeline_error.cause = Invalid_request msg; _ } -> invalid_arg msg
  | Error e -> invalid_arg (Pipeline_error.to_string e)

type prepared = {
  workload : Workloads.Registry.t;
  flat : Asm.Program.flat;
  info : Ilp.Program_info.t;
  fuel : int;
  mem_words : int option;
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

(* The training execution.  A faulting or fuel-capped execution is a
   first-class outcome: the replay analyzes the same prefix, and every
   downstream result carries the truncation tag.  Nothing on this path
   raises but the deadline's [Expired]. *)
let prepare_flat ?mem_words ?(probe = Obs.Probe.vm_disabled)
    ?(span_buf = Obs.Span.disabled) ?(train_values = false) ?deadline
    ~fuel w flat =
  let name = w.Workloads.Registry.name in
  let info = Ilp.Program_info.analyze_flat flat in
  let profile =
    Predict.Predictor.Profile.builder ~n_static:info.n
      ~is_cond:(Ilp.Program_info.is_cond_branch info)
  in
  (* Value training is opt-in: the observe hook runs per retired
     instruction, so only runs whose specs actually use value
     prediction pay for it. *)
  let values =
    if train_values then
      Some (Predict.Predictor.Value.builder ~n_static:info.n ~defs:info.defs)
    else None
  in
  let observe =
    chain_observe
      (Option.map Predict.Predictor.Value.observe values)
      (deadline_observe deadline)
  in
  (* The branch profile accumulates through a sink (and the value
     profile through the observe hook); nothing is recorded, so memory
     stays O(program) whatever the fuel. *)
  let outcome =
    Obs.Span.with_span span_buf ~workload:name "execute" (fun () ->
        Vm.Exec.run ?mem_words ~fuel ~record:false ~probe ?observe
          ~sink:(Predict.Predictor.Profile.sink profile) flat)
  in
  Counters.record_execution ~profiled:outcome.steps ();
  let halted =
    match outcome.status with
    | Vm.Exec.Halted v -> Some v
    | Out_of_fuel | Fault _ -> None
  in
  { workload = w; flat; info; fuel; mem_words; steps = outcome.steps;
    status = outcome.status;
    completeness = Vm.Exec.completeness_of outcome; halted; profile;
    values }

let prepare ?options ?mem_words ?fuel ?(obs = Obs.Ctx.disabled)
    ?(span_buf = Obs.Span.disabled) ?train_values w =
  let name = w.Workloads.Registry.name in
  let fuel = resolve_fuel_exn w fuel in
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

let prepare_result ?options ?mem_words ?fuel w =
  let name = w.Workloads.Registry.name in
  let* fuel = resolve_fuel w fuel in
  let* mem_words = validated_mem_words ~workload:name mem_words in
  let* flat = Workloads.Registry.compile_result ?options w in
  Pipeline_error.guard ~workload:name Execute (fun () ->
      Ok (prepare_flat ?mem_words ~fuel w flat))

let prepare_source ?(fuel = 10_000_000) ?train_values ~name source =
  let w =
    { Workloads.Registry.name; description = "ad hoc source"; lang = "C";
      numeric = false; source; fuel; expected_result = None }
  in
  prepare ~fuel ?train_values w

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

(* A spec without its own step budget inherits the run's; every budget
   must be at least 1. *)
let inherit_step_budget step_budget specs =
  let specs =
    List.map
      (fun s ->
        match (s.s_step_budget, step_budget) with
        | None, (Some _ as b) -> { s with s_step_budget = b }
        | _ -> s)
      specs
  in
  let* () =
    List.fold_left
      (fun ok s ->
        let* () = ok in
        check_count "step budget" s.s_step_budget)
      (Ok ()) specs
  in
  Ok specs

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
(* The replay: execute the prepared program again, with the same fuel
   and memory, so it retires the same entries, straight into every
   analysis state.  Nothing is recorded.  A pool wider than one domain
   pipelines it, one chunk per segment (cut to the trace, so a short
   one costs no memory): this domain runs the VM and the pool applies.
   A deadline rides the replay's observe hook and, when pipelined, the
   per-segment check; the last partial chunk is analyzed at close,
   after the last observe call, so the clock is checked once more
   after [finish]. *)
let replay ?(obs = Obs.Ctx.disabled) ?(span_buf = Obs.Span.disabled) ?pool
    ?(task_index = 0) ?deadline p specs =
  let name = p.workload.Workloads.Registry.name in
  Option.iter Obs.Deadline.check deadline;
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
      let sink, finish =
        match pool with
        | Some pool when Stdx.Pool.jobs pool > 1 ->
          let check =
            Option.map (fun d () -> Obs.Deadline.check d) deadline
          in
          let sink, finish =
            Ilp.Segmented.sink ~pool ~obs
              ~span_index_base:((task_index + 1) * 100_000_000)
              ~workload:name ?check
              ~segment_steps:(min Vm.Trace.chunk_size (max 1 p.steps))
              configs p.info
          in
          ( sink,
            fun ?completeness () ->
              let o = finish ?completeness () in
              Counters.record_segments o.Ilp.Segmented.segments;
              o.Ilp.Segmented.results )
        | _ -> Ilp.Analyze.sink_many configs p.info
      in
      let o =
        Vm.Exec.run ?mem_words:p.mem_words ~fuel:p.fuel ~record:false
          ~probe:(Obs.Ctx.vm_probe obs) ?observe:(deadline_observe deadline)
          ~sink p.flat
      in
      Counters.record_execution ();
      Counters.record_pass ~entries:o.steps ~states:(List.length specs);
      let results = finish ~completeness:(Vm.Exec.completeness_of o) () in
      Option.iter Obs.Deadline.check deadline;
      results)

(* ------------------------------------------------------------------ *)
(* One injected run, shared by the seeded-fault request and its
   segmented differential: plan the perturbation, execute the damaged
   program once through the injector's observe hook (chained with the
   deadline's) and its sink wrapper around [analyze]'s sink, and tag the
   cut.  btfn prediction needs no training execution, keeping injection
   to a single deterministic run.  [analyze cfg info] is
   [(sink, states, finish)]: [states] analysis states advance on the
   sink, and [finish] receives the completeness and returns the
   sequential results plus anything else the caller analyzed. *)
let injected_run ?deadline ?mem_words ?step_budget ~obs ~fuel ~machine
    ~seed ~kind ~analyze flat =
  let metrics =
    if Obs.Ctx.enabled obs then Some (Obs.Ctx.metrics obs) else None
  in
  let app = Fault.Injector.plan ?metrics ~seed ~fuel kind flat in
  let flat = app.Fault.Injector.flat in
  let info = Ilp.Program_info.analyze_flat flat in
  let predictor =
    Predict.Predictor.backward_taken
      ~is_backward:(Ilp.Program_info.branch_backward flat)
  in
  let cfg =
    Ilp.Analyze.config
      ~mem_words:(Option.value mem_words ~default:Vm.Exec.default_mem_words)
      ?step_budget machine predictor
  in
  let sink, states, finish = analyze cfg info in
  let outcome =
    Vm.Exec.run ?mem_words ~fuel:app.Fault.Injector.fuel ~record:false
      ~sink:(app.Fault.Injector.wrap_sink sink)
      ~probe:(Obs.Ctx.vm_probe obs)
      ?observe:
        (chain_observe app.Fault.Injector.observe (deadline_observe deadline))
      flat
  in
  Counters.record_execution ();
  let completeness, entries =
    match !(app.Fault.Injector.cut) with
    | Some f -> (Pipeline_error.Truncated f, f.Pipeline_error.f_step)
    | None -> (Vm.Exec.completeness_of outcome, outcome.steps)
  in
  Counters.record_pass ~entries ~states;
  (app, outcome, finish completeness)

let analyze_one cfg info =
  let sink, finish = Ilp.Analyze.sink_many [ cfg ] info in
  (sink, 1, fun completeness -> (finish ~completeness (), ()))

(* An injected run analyzes the first spec alone, by default the
   paper's SP-CD-MF. *)
let injected_specs = function
  | [] -> [ spec Ilp.Machine.sp_cd_mf ]
  | specs -> specs

(* ------------------------------------------------------------------ *)
(* The one per-workload pipeline: validate every count, compile (or
   take the cached program), then train and replay — or run the one
   injected execution.  [Run.exec], the serve daemon, [inject] and the
   fuzzer all come through here, so a wall-clock deadline covers
   execution {e and} analysis everywhere. *)

module Request = struct
  type reply = {
    r_flat : Asm.Program.flat;
    r_results : Ilp.Analyze.result list;
    r_steps : int;
    r_status : Vm.Exec.status;
    r_injected : string option;
  }

  let exec ?(obs = Obs.Ctx.disabled) ?(span_buf = Obs.Span.disabled) ?options
      ?flat ?fuel ?step_budget ?mem_words ?deadline_ms ?inject ?pool
      ?task_index ~specs w =
    let name = w.Workloads.Registry.name in
    let* fuel = resolve_fuel w fuel in
    let* () = check_count ~workload:name "deadline_ms" deadline_ms in
    (* An injected run's spec inherits the request's budget like any. *)
    let specs = if Option.is_some inject then injected_specs specs else specs in
    let* specs = inherit_step_budget step_budget specs in
    let* mem_words = validated_mem_words ~workload:name mem_words in
    (* The clock starts before compilation: a cache miss spends budget
       compiling, a hit keeps it all for execution. *)
    let deadline =
      Option.map (fun budget_ms -> Obs.Deadline.start ~budget_ms)
        deadline_ms
    in
    Pipeline_error.guard ~workload:name Execute (fun () ->
        deadline_guard ~workload:name Execute (fun () ->
            let* flat =
              match flat with
              | Some f -> Ok f
              | None ->
                Obs.Span.with_span span_buf ~workload:name "compile"
                  (fun () -> Workloads.Registry.compile_result ?options w)
            in
            Option.iter Obs.Deadline.check deadline;
            let r_results, r_steps, r_status, r_injected =
              match inject with
              | Some (kind, seed) ->
                let s = List.hd specs in
                let app, o, (results, ()) =
                  injected_run ?deadline ?mem_words
                    ?step_budget:s.s_step_budget ~obs ~fuel
                    ~machine:s.s_machine ~seed ~kind ~analyze:analyze_one flat
                in
                ( results, o.steps, o.status,
                  Some app.Fault.Injector.description )
              | None ->
                let p =
                  prepare_flat ?mem_words ~probe:(Obs.Ctx.vm_probe obs)
                    ~span_buf ~train_values:(specs_need_values specs)
                    ?deadline ~fuel w flat
                in
                ( replay ~obs ~span_buf ?pool ?task_index ?deadline p specs,
                  p.steps, p.status, None )
            in
            Ok { r_flat = flat; r_results; r_steps; r_status; r_injected }))
end

(* ------------------------------------------------------------------ *)
(* Intra-trace segmentation (DESIGN.md §15): whether [Run.exec] hands
   its pool to each replay. *)

type segmenting = [ `Off | `Auto ]

module Run = struct
  type config = {
    specs : spec list;
    jobs : int;
    fuel : int option;
    step_budget : int option;
    mem_words : int option;
    options : Codegen.Compile.options option;
    deadline_ms : int option;
    obs : Obs.Ctx.t;
    segment_steps : segmenting;
  }

  let config ?(jobs = 1) ?fuel ?step_budget ?mem_words ?options ?deadline_ms
      ?(obs = Obs.Ctx.disabled) ?(segment_steps = `Off) specs =
    { specs; jobs; fuel; step_budget; mem_words; options; deadline_ms; obs;
      segment_steps }

  type item = {
    it_workload : Workloads.Registry.t;
    it_outcome : (Ilp.Analyze.result list, Pipeline_error.t) result;
  }

  let on_prepared = replay

  (* Parallel fan-out: each workload is one [Request.exec] — compile,
     train, replay into every spec — with its own VM state and span
     buffer; nothing is shared between workloads but the atomic
     metrics.  Results come back in workload order, and span buffers
     (the segment pipeline's too, through [task_index]) merge by
     workload index, so the output — results, counter totals, span
     skeleton — is bit-identical to the sequential run, whatever the
     scheduling.  Each workload gets the full wall-clock budget, armed
     when its own pipeline starts.  [Request.exec] is guarded, so no
     exception leaves a task. *)
  let exec cfg ws =
    let* jobs = validate_jobs cfg.jobs in
    let* () = check_fuel cfg.fuel in
    let* () = check_count "deadline_ms" cfg.deadline_ms in
    let* specs = inherit_step_budget cfg.step_budget cfg.specs in
    let task ?pool (i, w) =
      let span_buf =
        Obs.Ctx.task_buffer cfg.obs ~index:i ~label:w.Workloads.Registry.name
      in
      { it_workload = w;
        it_outcome =
          Result.map
            (fun r -> r.Request.r_results)
            (Request.exec ~obs:cfg.obs ~span_buf ?options:cfg.options
               ?fuel:cfg.fuel ?mem_words:cfg.mem_words
               ?deadline_ms:cfg.deadline_ms ?pool ~task_index:i ~specs w) }
    in
    let indexed = List.mapi (fun i w -> (i, w)) ws in
    (* Un-segmented, a workload is one task, so domains beyond the
       workload count would idle.  Pipelined, the workloads run one
       after another on this domain, each the producer of its own
       replay, and the pool — handed to the replay, so it pipelines —
       runs only their apply tasks: no task awaits another, and one
       workload's two segments are all that is live. *)
    let pipelined = cfg.segment_steps = `Auto && jobs > 1 in
    let width =
      if pipelined then jobs else min jobs (List.length indexed)
    in
    if width <= 1 then Ok (List.map (fun iw -> task iw) indexed)
    else
      Ok
        (Stdx.Pool.with_pool ~jobs:width (fun pool ->
             if pipelined then List.map (task ~pool) indexed
             else Stdx.Pool.map_list pool (fun iw -> task iw) indexed))
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
  let name = w.Workloads.Registry.name in
  let* fuel = resolve_fuel w fuel in
  let* flat = Workloads.Registry.compile_result ?options w in
  Pipeline_error.guard ~workload:name Analyze (fun () ->
      let a = Cfg.Analysis.analyze flat in
      let static =
        { c_workload = name;
          c_engine =
            Cfg.Engine.run ~obs ?config ~workload:name Cfg.Verify.passes a;
          c_status = None;
          c_dyn_entries = 0;
          c_dyn_total = 0;
          c_dyn_violations = [] }
      in
      if not dynamic then Ok static
      else begin
        let d = Cfg.Verify.Dynamic.create a in
        let outcome =
          Vm.Exec.run ~fuel ~record:false
            ~sink:(Cfg.Verify.Dynamic.sink d)
            ~observe:(Cfg.Verify.Dynamic.observe d) flat
        in
        Counters.record_execution ();
        Ok
          { static with
            c_status = Some outcome.status;
            c_dyn_entries = Cfg.Verify.Dynamic.entries d;
            c_dyn_total = Cfg.Verify.Dynamic.n_violations d;
            c_dyn_violations = Cfg.Verify.Dynamic.violations d }
      end)

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
(* The pipeline-vs-sequential differential on a perturbed pipeline:
   the one injected execution is teed into the sequential analyzer and
   the un-pooled segment pipeline, which see exactly the same (possibly
   cut) stream.  Returns the sequential results (for the usual
   completeness tally) plus whether the two agree structurally.  A
   corrupted program may break static analysis in ways no enumerated
   error covers, so the run sits behind the fault barrier. *)
let inject_compare ?fuel ~obs ~specs ~seed ~kind ~segment_steps w =
  let name = w.Workloads.Registry.name in
  let* fuel = resolve_fuel w fuel in
  let machine = (List.hd (injected_specs specs)).s_machine in
  let analyze cfg info =
    let seq, seq_finish = Ilp.Analyze.sink_many [ cfg ] info in
    let seg, seg_finish = Ilp.Segmented.sink ~segment_steps [ cfg ] info in
    ( Vm.Trace.tee seq seg,
      2,
      fun completeness ->
        let o = seg_finish ~completeness () in
        Counters.record_segments o.Ilp.Segmented.segments;
        (seq_finish ~completeness (), o.Ilp.Segmented.results) )
  in
  Pipeline_error.guard ~workload:name Execute (fun () ->
      let* flat = Workloads.Registry.compile_result w in
      let _, _, (seq, seg) =
        injected_run ~obs ~fuel ~machine ~seed ~kind ~analyze flat
      in
      Ok (seq, seq = seg))

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
    let* () = check_fuel fuel in
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
      let specs =
        if random_machines then [ spec (Ilp.Machine.random case_seed) ]
        else []
      in
      let escaped e_exn =
        O_escaped
          { e_seed = case_seed; e_kind = kind;
            e_workload = w.Workloads.Registry.name; e_exn }
      in
      (* The sequential results, and why the case fails when it must. *)
      let injected () =
        if segments then begin
          (* Differential mode: segmented analysis must reproduce the
             sequential result bit for bit on the perturbed pipeline.
             The segment stride is itself fuzzed, drawn from the same
             seed stream as the case (a second derive index keeps it
             independent of the fault plan). *)
          let segment_steps =
            1
            + (Fault.Injector.Rng.derive ~seed:case_seed ~index:997 land 0xFFF)
          in
          let* results, identical =
            inject_compare ?fuel ~obs ~specs ~seed:case_seed ~kind
              ~segment_steps w
          in
          Ok
            ( results,
              if identical then None
              else
                Some
                  (Printf.sprintf
                     "segmented analysis diverged from sequential \
                      (segment_steps=%d)"
                     segment_steps) )
        end
        else
          let* r =
            Request.exec ?fuel ~obs ~inject:(kind, case_seed) ~specs w
          in
          Ok (r.Request.r_results, None)
      in
      match injected () with
      | Ok (_, Some diverged) -> escaped diverged
      | Ok (results, None) -> (
        match (List.hd results).Ilp.Analyze.completeness with
        | Pipeline_error.Complete -> O_complete
        | Pipeline_error.Truncated _ -> O_truncated)
      | Error { Pipeline_error.cause = Internal _; _ } -> O_internal
      | Error _ -> O_structured
      | exception e -> escaped (Printexc.to_string e)
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
