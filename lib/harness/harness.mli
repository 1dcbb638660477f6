(** Convenience layer tying the pipeline together: compile a workload,
    train its predictors, and analyze its trace under any set of machine
    models in a single pass.

    {!Request.exec} is the one per-workload pipeline: it validates
    every count, compiles the program (or takes the cached one), then
    a training execution feeds the paper's profile predictor through a
    trace sink and a replay ({!Run.on_prepared}) executes the program
    again straight into the fan-out analyzer — or it runs one
    deterministically injected execution.  {!Run.exec} fans a
    {!Run.config} (the spec list plus the jobs count, instruction
    budgets and observability context) over any list of workloads, one
    {!Request.exec} each; the serve daemon, [ilp-limits inject] and
    {!Fuzz} call it too.  No trace is ever materialized, so memory
    stays O(program) and instruction budgets can grow to paper scale
    (100M+).

    Robustness: a faulting or fuel-capped execution is a first-class
    outcome, not an error — its trace prefix is analyzed and every
    result carries {!Ilp.Analyze.result.completeness}.  Per-workload
    failures come back as typed {!Pipeline_error.t} values inside the
    result list; {!Request.exec}'s [inject] and {!Fuzz} drive
    deterministically perturbed pipelines behind the same barrier.

    Observability: pass an enabled {!Obs.Ctx.t} and every stage of
    every workload is wrapped in a span (one compile / execute /
    analyze span per workload, at depth 0), the VM and analyzer hot loops
    publish sampled probe metrics, and {!Counters} totals land in the
    same registry.  All of it is deterministic under parallelism: span
    buffers merge by task index and every metric update commutes, so a
    [jobs = N] run reports exactly the sequential numbers.

    {!Counters} tracks VM executions and trace passes so callers (and
    tests) can verify the two-execution/one-pass property: one training
    execution, one replay, and one analyzer pass however many specs. *)

(** Global instrumentation: how much work the pipeline has done.
    Backed by counters in {!Obs.Metrics.global}, so a registry
    snapshot ({!Obs.Metrics.snapshot}) includes these under their
    [pipeline_*_total] names. *)
module Counters : sig
  val executions : unit -> int
  (** VM executions since the last [reset]. *)

  val passes : unit -> int
  (** Trace consumptions by the analyzer (a replay fanned out over N
      machines counts once). *)

  val entries : unit -> int
  (** Trace entries scanned, summed over passes. *)

  val state_entries : unit -> int
  (** Trace entries multiplied by the number of machine states advanced
      — the analyzer's total throughput denominator. *)

  val profiled_entries : unit -> int
  (** Trace entries consumed by sink-trained profile passes during VM
      executions. *)

  val analyzed : unit -> int
  (** Total instruction-analysis events:
      [profiled_entries () + state_entries ()]. *)

  val segments : unit -> int
  (** Trace segments applied through the replay pipeline (intra-trace
      parallel analysis) — [pipeline_segments_total].  Zero when every
      analysis ran un-segmented.  Obs-independent, so the bench can
      check that a run really pipelined without enabling a context. *)

  val reset : unit -> unit
end

val check_count :
  ?workload:string ->
  ?min:int ->
  string ->
  int option ->
  (unit, Pipeline_error.t) result
(** [Some n] below [min] (default 1) is a typed [Invalid_request]
    ("WHAT must be at least MIN (got N)", exit code 2), tagged with
    [workload] when given.  Every count
    the pipeline takes goes through it — fuel, step budgets and
    [deadline_ms] — and so do the serve daemon's startup settings. *)

val validate_jobs : int -> (int, Pipeline_error.t) result
(** Every [--jobs] surface funnels through this: [j < 1] is a typed
    [Invalid_request] ("jobs must be at least 1 (got N)", exit code 2),
    identical across run, fuzz, serve and bench. *)

type prepared = {
  workload : Workloads.Registry.t;
  flat : Asm.Program.flat;
  info : Ilp.Program_info.t;
  fuel : int;  (** the instruction budget, which the replay reuses *)
  mem_words : int option;  (** the VM memory, which the replay reuses *)
  steps : int;  (** instructions the training execution retired *)
  status : Vm.Exec.status;  (** how the execution ended *)
  completeness : Pipeline_error.completeness;
  (** [Complete] for a clean halt; [Truncated] with the fault
      descriptor otherwise *)
  halted : int option;  (** the program's return value, when it halted *)
  profile : Predict.Predictor.Profile.builder;
  (** per-branch direction counts, accumulated during execution *)
  values : Predict.Predictor.Value.builder option;
  (** last-value predictability counts, accumulated through the VM
      observe hook; [None] unless prepared with [train_values] *)
}

val prepare :
  ?options:Codegen.Compile.options ->
  ?mem_words:int ->
  ?fuel:int ->
  ?obs:Obs.Ctx.t ->
  ?span_buf:Obs.Span.buffer ->
  ?train_values:bool ->
  Workloads.Registry.t ->
  prepared
(** Compile (optionally with if-conversion), statically analyze, and
    run the training execution of one workload, profiling its branches
    on the way; no trace is recorded.  A fault or fuel exhaustion does
    {e not} raise: [status]/[completeness] record what happened, and
    the replay analyzes the same prefix.  Compile errors still raise
    (use {!prepare_result} for the typed-error path), and so does
    [fuel < 1]: [Invalid_argument] with {!prepare_result}'s message,
    ["fuel must be at least 1 (got N)"].  [obs] supplies
    the VM probe; [span_buf] receives ["compile"] and ["execute"]
    spans.

    [train_values] (default [false]) additionally trains the last-value
    predictability profile ({!Predict.Predictor.Value}) during the same
    execution — opt-in because the observe hook runs per retired
    instruction; machines with the [vp] constraint analyze against this
    profile (without it, value prediction degrades to a no-op). *)

val prepare_result :
  ?options:Codegen.Compile.options ->
  ?mem_words:int ->
  ?fuel:int ->
  Workloads.Registry.t ->
  (prepared, Pipeline_error.t) result
(** Like {!prepare} but total: compile errors arrive as
    [Error { cause = Compile_error _; _ }], [fuel < 1] as
    [Invalid_request], [mem_words] beyond {!Vm.Exec.max_mem_words} as
    [Budget_exceeded], and any unexpected exception is caught by the
    {!Pipeline_error.guard} barrier.  A deadline is {!Request.exec}'s
    alone. *)

val prepare_source :
  ?fuel:int -> ?train_values:bool -> name:string -> string -> prepared
(** Same for an arbitrary Mini-C source string (default fuel 10M;
    [fuel < 1] raises as in {!prepare}). *)

val profile_predictor : prepared -> Predict.Predictor.t
(** The paper's predictor: profile statistics from this same trace
    (already gathered during execution; no trace scan). *)

(** Which predictor a spec's analysis uses.  [`Profile] is the paper's.
    Each stateless kind resolves to one record per program, shared by
    every spec of that kind, so those specs share one decode
    ({!Ilp.Analyze.compatible}); [`Two_bit] gets a fresh counter table
    per spec, as required for a stateful predictor. *)
type predictor_kind =
  [ `Profile | `Perfect | `Btfn | `Two_bit
  | `Custom of Predict.Predictor.t ]

(** One analysis request: a machine model plus the transformation and
    measurement knobs. *)
type spec = {
  s_machine : Ilp.Machine.t;
  s_inline : bool;
  s_unroll : bool;
  s_segments : bool;
  s_predictor : predictor_kind;
  s_step_budget : int option;
  (** resource guard forwarded to {!Ilp.Analyze.config}; [None]
      inherits {!Run.config}[.step_budget] *)
}

val spec :
  ?inline:bool ->
  ?unroll:bool ->
  ?segments:bool ->
  ?predictor:predictor_kind ->
  ?step_budget:int ->
  Ilp.Machine.t ->
  spec
(** Defaults follow the paper: inlining and unrolling on, no segment
    collection, profile prediction, no step budget. *)

val spec_key : spec -> string
(** A stable identifier for caching: machine name + knobs.  Composed
    machines are named by their canonical spec string, so distinct
    lattice points never collide. *)

val specs_need_values : spec list -> bool
(** Whether any spec's machine carries the value-prediction constraint
    — i.e. whether preparation should run with [train_values].
    {!Run.exec} derives this itself; it is exposed for drivers that
    call {!prepare} directly (the bench store). *)

(** Intra-trace segmentation policy of {!Run.exec} (DESIGN.md §15).
    [`Off]: each workload's trace is analyzed sequentially
    (parallelism across workloads only).  [`Auto]: at [jobs > 1], the
    pool is handed to each replay, which {!Run.on_prepared} then
    pipelines through {!Ilp.Segmented}, one trace chunk per segment,
    each applied on the pool while the VM fills the next.  At
    [jobs = 1] both replay as [`Off] does.  Results are bit-identical
    either way for every machine spec. *)
type segmenting = [ `Off | `Auto ]

(** The unified run API.  One config, one [exec], uniform per-workload
    outcomes. *)
module Run : sig
  type config = {
    specs : spec list;  (** analysis fan-out, shared by every workload *)
    jobs : int;
    (** domain-pool width; [1] never spawns a domain.  Scheduling
        only: results are bit-identical for every width. *)
    fuel : int option;
    (** instruction budget override ([None]: each workload's own) *)
    step_budget : int option;
    (** default analysis step budget for specs that set none *)
    mem_words : int option;  (** VM memory override, validated *)
    options : Codegen.Compile.options option;  (** compile options *)
    deadline_ms : int option;
    (** per-workload wall-clock budget, observed by the training
        execution and the replay, so the clock covers analysis too.
        Each workload's deadline is armed when its own pipeline starts,
        and expiry yields that workload's typed [Deadline_exceeded]
        error (exit code 6) — the batch continues.  Below 1 it is an
        invalid config, like [fuel]. *)
    obs : Obs.Ctx.t;  (** observability context; {!Obs.Ctx.disabled}
                          costs the hot loops one bool test *)
    segment_steps : segmenting;
    (** intra-trace sharding policy.  [`Auto] makes [jobs > 1]
        parallelize {e within} each workload's trace: the workloads
        replay one after another on the calling domain, each handed
        the pool and so pipelined across it (apply tasks per segment
        and sub-group), so a single workload keeps two domains busy
        and holds two segments.  [`Off] parallelizes across workloads
        only, on a pool of [min jobs workloads] domains. *)
  }

  val config :
    ?jobs:int ->
    ?fuel:int ->
    ?step_budget:int ->
    ?mem_words:int ->
    ?options:Codegen.Compile.options ->
    ?deadline_ms:int ->
    ?obs:Obs.Ctx.t ->
    ?segment_steps:segmenting ->
    spec list ->
    config
  (** Defaults: sequential ([jobs = 1]), workload fuel, no step budget,
      default VM memory, no compile options, no deadline, observability
      disabled, no segmentation. *)

  (** One workload's outcome: the full result-per-spec list, or that
      workload's typed error.  A failure never aborts the batch. *)
  type item = {
    it_workload : Workloads.Registry.t;
    it_outcome : (Ilp.Analyze.result list, Pipeline_error.t) result;
  }

  val exec :
    config -> Workloads.Registry.t list -> (item list, Pipeline_error.t) result
  (** Run every workload through compile → train → replay into the
      analyzer under the config: one {!Request.exec} per workload,
      given that workload's span buffer, the compile options, the
      pool (when pipelined) and the workload's index.  [Error] only
      for an invalid config ([jobs], [fuel], [deadline_ms] or a step
      budget below 1), checked before any workload runs; every
      per-workload failure is carried in its {!item}.  With
      [jobs > 1] and no segmentation, workloads fan out over a domain
      pool, each task with its own VM state, analysis sinks and span
      buffer.  Results and span buffers merge by workload index (the
      index also namespaces the segment pipeline's span buffers), so
      the output — results, {!Counters} totals, metric snapshot, span
      skeleton — is bit-identical to the sequential run for any
      [jobs] and any scheduling.  {!Request.exec} is total, so an
      exception inside a task surfaces as that workload's [Internal]
      error, upholding the pipeline invariant across domains.

      Spans per workload (when [config.obs] is enabled): a ["workload"]
      root is {e not} recorded — the stages ["compile"], ["execute"]
      and ["analyze"] each record exactly one span, at depth 0, in
      pipeline order. *)

  val on_prepared :
    ?obs:Obs.Ctx.t ->
    ?span_buf:Obs.Span.buffer ->
    ?pool:Stdx.Pool.t ->
    ?task_index:int ->
    ?deadline:Obs.Deadline.t ->
    ?sink_chunk:int ->
    prepared ->
    spec list ->
    Ilp.Analyze.result list
  (** The replay: execute the prepared program again (same fuel and
      memory, so the same entries) straight into every spec's analysis
      state, a {e single} pass however many specs (results in spec
      order, completeness-tagged).  Nothing is recorded.  This is the
      analysis half of {!exec} and {!Request.exec}, exposed for drivers
      that cache {!prepared} values across spec sets (the bench store).

      [deadline] rides the replay's observe hook and the per-segment
      check; expiry raises {!Obs.Deadline.Expired}, which {!exec} and
      {!Request.exec} turn into the typed [Deadline_exceeded].

      A [pool] wider than one domain is the switch for the segment
      pipeline of DESIGN.md §15: the replay runs through
      {!Ilp.Segmented}, one trace chunk per segment (cut to the trace),
      with this call's domain as the producer and the pool hosting the
      apply tasks, and adds its hand-offs to {!Counters.segments}.
      Without one, or with a one-domain pool, it replays through
      {!Ilp.Analyze.sink_many}, buffering [sink_chunk] entries (its
      [chunk]); results are bit-identical either way.  [task_index]
      namespaces the per-segment span buffers so workloads never
      collide. *)
end

(** The one per-workload pipeline: one workload, per-request quotas,
    an optional precompiled program, an optional seeded fault.
    {!Run.exec} runs each workload through it, and so do the
    [ilp-limits serve] daemon (per request), [ilp-limits inject] and
    {!Fuzz}; it trains, then replays into the analyzer, so the
    wall-clock deadline covers execution {e and} analysis. *)
module Request : sig
  type reply = {
    r_flat : Asm.Program.flat;
    (** the compiled program actually analyzed — callers (the serve
        compiled-program cache) key it by source hash and feed it back
        as [?flat] on the next hit *)
    r_results : Ilp.Analyze.result list;  (** one per spec, spec order *)
    r_steps : int;  (** instructions the analyzed execution retired *)
    r_status : Vm.Exec.status;  (** how that execution ended *)
    r_injected : string option;
    (** the perturbation an injected run applied, as
        {!Fault.Injector.plan} describes it; [None] without [inject] *)
  }

  val exec :
    ?obs:Obs.Ctx.t ->
    ?span_buf:Obs.Span.buffer ->
    ?options:Codegen.Compile.options ->
    ?flat:Asm.Program.flat ->
    ?fuel:int ->
    ?step_budget:int ->
    ?mem_words:int ->
    ?deadline_ms:int ->
    ?inject:Fault.Injector.kind * int ->
    ?pool:Stdx.Pool.t ->
    ?task_index:int ->
    ?sink_chunk:int ->
    specs:spec list ->
    Workloads.Registry.t ->
    (reply, Pipeline_error.t) result
  (** Execute one request.  Total: every failure mode is a typed
      {!Pipeline_error.t} — compile errors, [fuel], [deadline_ms] or a
      step budget below 1 ([Invalid_request], checked before anything
      runs), quota violations ([Budget_exceeded]), wall-clock expiry
      ([Deadline_exceeded], armed {e before} compilation so a cache
      miss pays for its own compile), VM faults, and anything
      unexpected via the {!Pipeline_error.guard} barrier.  [span_buf]
      receives the ["compile"], ["execute"] and ["analyze"] spans, and
      [options] are the compile options of a fresh compile.

      [flat] short-circuits compilation (cache hit); determinism
      contract: a cached reply is bit-identical to a fresh one because
      compilation is deterministic and everything downstream depends
      only on [flat].  [step_budget] is inherited by specs that carry
      none, exactly as in {!Run.exec}.

      [inject (kind, seed)] runs the deterministically perturbed
      pipeline instead: single execution, btfn prediction (no training
      pass), the first spec's machine and step budget (default
      [sp_cd_mf] under the request's [step_budget]), the injector's
      observe hook chained with the deadline's; [r_injected] names the
      perturbation.  Same seed, same reply.  [obs] counts the plan
      under [fault_planned_total{kind=...}].

      A [pool] wider than one domain analyzes via the segment pipeline
      of DESIGN.md §15, as in {!Run.on_prepared}: this request's
      domain runs the VM and the pool applies each segment's
      sub-groups.  Deadline expiry still lands as [Deadline_exceeded]:
      the check hook runs per segment on the producer and in every
      apply task, and propagates through the futures.  [task_index]
      (default 0) namespaces those per-segment span buffers, as in
      {!Run.on_prepared}.  Without such a pool the replay buffers
      [sink_chunk] entries between analyses ({!Ilp.Analyze.sink_many}'s
      [chunk]); a caller running several requests at once passes less
      than the default to keep each replay small. *)
end

(** Outcome of running the static verifier (and optionally the dynamic
    trace cross-validation) over one workload. *)
type check_result = {
  c_workload : string;
  c_engine : Cfg.Engine.report;
  (** static diagnostics in (proc, pc, class) order, with effective
      severities and per-pass timings *)
  c_status : Vm.Exec.status option;
  (** how the dynamic execution ended ([None] if static only) *)
  c_dyn_entries : int;  (** trace entries checked dynamically (0 if static only) *)
  c_dyn_total : int;  (** dynamic violations found *)
  c_dyn_violations : Cfg.Verify.Dynamic.violation list;
  (** the kept window of violations, in trace order *)
}

val check :
  ?options:Codegen.Compile.options ->
  ?config:Cfg.Engine.config ->
  ?obs:Obs.Ctx.t ->
  ?fuel:int ->
  ?dynamic:bool ->
  Workloads.Registry.t ->
  (check_result, Pipeline_error.t) result
(** Compile a workload and run every {!Cfg.Verify.passes} pass through
    {!Cfg.Engine.run} over it ([config] selects passes and strict
    mode; [obs] records per-pass spans and metrics).  With
    [~dynamic:true] the program is also executed (up to [fuel]
    instructions, default the workload's own budget) with
    {!Cfg.Verify.Dynamic} attached as trace sink and observe hook,
    cross-checking every retired instruction against the static facts.
    Total: a fuel below 1 is [Invalid_request] (with or without
    [dynamic]), a compile failure is [Compile_error], and an escaped
    exception is [Internal]. *)

(** Static parallelism estimate for one workload: the
    machine-independent facts plus the per-machine compiled bounds. *)
type estimated = {
  e_workload : string;
  e_est : Cfg.Estimate.t;
  e_info : Ilp.Program_info.t;
  e_bounds : Ilp.Static_bound.t list;  (** one per requested machine *)
}

val estimate :
  ?options:Codegen.Compile.options ->
  ?inline:bool ->
  ?unroll:bool ->
  machines:Ilp.Machine.t list ->
  Workloads.Registry.t ->
  (estimated, Pipeline_error.t) result
(** Compile a workload (no execution) and bound its oracle parallelism
    statically: {!Cfg.Estimate.compute} under the given
    inlining/unrolling assumptions (default both on, matching
    {!spec}), then {!Ilp.Static_bound.compile} per machine. *)

val estimate_flat :
  ?inline:bool ->
  ?unroll:bool ->
  machines:Ilp.Machine.t list ->
  workload:string ->
  Asm.Program.flat ->
  (estimated, Pipeline_error.t) result
(** {!estimate} on an already-compiled program — the admission-control
    path for the serve daemon's compiled-program cache, where a hit
    must not recompile just to be costed. *)

val branch_stats : prepared -> Ilp.Stats.branch_stats
(** Table 2 statistics, derived from the execution-time profile counts
    (no trace scan). *)

(** Bulk fault injection asserting the pipeline invariant: {e every}
    input yields either a result or a structured error.  An exception
    reaching the driver frame is an invariant violation — counted and
    reported with full reproduction data, never re-raised. *)
module Fuzz : sig
  type escaped = {
    e_seed : int;
    e_kind : Fault.Injector.kind;
    e_workload : string;
    e_exn : string;
  }

  type report = {
    cases : int;
    complete : int;  (** injected run still halted cleanly *)
    truncated : int;  (** analysis of a truncated trace succeeded *)
    structured_errors : int;  (** typed, non-[Internal] errors *)
    internal_errors : int;
    (** exceptions the {!Pipeline_error.guard} barrier converted *)
    escaped : escaped list;  (** invariant violations; must be [] *)
  }

  val run :
    ?fuel:int ->
    ?workloads:Workloads.Registry.t list ->
    ?jobs:int ->
    ?obs:Obs.Ctx.t ->
    ?random_machines:bool ->
    ?segments:bool ->
    seed:int ->
    cases:int ->
    unit ->
    (report, Pipeline_error.t) result
  (** Run [cases] seeded injections, each one {!Request.exec} with
      [inject]: case [i] uses the splitmix64 stream output
      {!Fault.Injector.Rng.derive}[ ~seed ~index:i], cycles through all
      fault kinds, and rotates over [workloads] (default: the whole
      registry).  With [random_machines] (default
      [false]) each case also analyzes under a random machine-lattice
      point ({!Ilp.Machine.random} of the case seed) instead of always
      [sp_cd_mf], fuzzing the compositional model end to end.  With
      [segments] (default [false]) every case additionally runs the
      segmented-vs-sequential differential: the one perturbed execution
      is teed into both analyzers under a per-case segment stride drawn from
      the same seed stream (1–4096), and any divergence is an
      invariant violation reported through [escaped].  With
      [jobs > 1] the cases run on a domain pool; because each case's
      seed depends only on its index, the report is identical for every
      [jobs] value and scheduling order.  [Error] only for [jobs < 1] or
      [fuel < 1] (same typed messages as {!Run.exec}). *)
end
