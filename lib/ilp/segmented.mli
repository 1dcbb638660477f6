(** Intra-trace parallel analysis: decode fixed-stride trace segments
    concurrently, replay them sequentially (DESIGN.md §15).

    The per-entry transition of {!Analyze} splits into a state-free
    classification ({!Analyze.decoder} — static flags plus the
    predicted branch direction, pure in [(pc, aux)] for stateless
    predictors) and the state-carrying apply
    ({!Analyze.State.step_bits}).  This module decodes segments of the
    trace on {!Stdx.Pool} domains — concurrently with each other and,
    in streaming mode, with VM retirement — then {e stitches}: per
    machine config, the decoded entries are applied in strict trace
    order, segment by segment in index order.  The apply sequence is
    the sequential run's sequence verbatim, so every result is
    bit-identical to {!Analyze.run_many}, for every machine in the
    lattice, including step-budget cuts and truncated traces.  Multi-
    config calls additionally fan the per-config stitchers out across
    the pool — the dominant speedup for the standard seven-machine
    sweep over a single workload.

    Memory: decoded segments are retained until every stitcher has
    consumed them — roughly 24 bytes per trace entry (pc, aux, bits).
    The default harness traces (1–2M entries) cost tens of MB, but the
    paper's 100M-entry traces would hold about 2.4 GB, so feeding
    paper-scale traces through this path needs a bound on that backlog. *)

type outcome = {
  results : Analyze.result list;  (** in config order *)
  segments : int;  (** segments decoded *)
  steps : int;  (** segment stride used *)
}

val auto_steps : trace_len:int -> jobs:int -> int
(** Static granularity choice for [--segment-steps auto]:
    [trace_len / (4 * jobs)] clamped to [16384, 262144] — a few
    segments per domain per stitch round, floored high enough to
    amortize per-segment task overhead.  The
    [analyze_segment_stitch_wait_ns] histogram is the measurement
    instrument for retuning. *)

val run :
  ?pool:Stdx.Pool.t ->
  ?obs:Obs.Ctx.t ->
  ?span_index_base:int ->
  ?workload:string ->
  ?check:(unit -> unit) ->
  ?completeness:Pipeline_error.completeness ->
  segment_steps:int ->
  Analyze.config list ->
  Program_info.t ->
  Vm.Trace.t ->
  outcome
(** Segmented analysis of a materialized trace.  Without a [pool]
    every stage runs inline on the caller (same results, no
    concurrency — the deterministic reference the fuzzer compares).
    [check] is called per segment on every domain touching one — the
    deadline hook; an exception it raises propagates to the caller.
    [obs] (default disabled) records per-segment decode spans and
    per-config stitch spans into buffers indexed
    [span_index_base + segment]/[span_index_base + segments + config]
    — merged by index, so jobs=N telemetry structure equals
    sequential — plus the [analyze_segments_total] counter and the
    stitch-wait histogram.  Raises [Invalid_argument] if
    [segment_steps < 1] or the configs are not
    {!Analyze.compatible}. *)

val sink :
  ?pool:Stdx.Pool.t ->
  ?obs:Obs.Ctx.t ->
  ?span_index_base:int ->
  ?workload:string ->
  ?check:(unit -> unit) ->
  segment_steps:int ->
  Analyze.config list ->
  Program_info.t ->
  Vm.Trace.sink
  * (?completeness:Pipeline_error.completeness -> unit -> outcome)
(** Streaming form, the segmented analogue of {!Analyze.sink_many}:
    feed the sink from a live VM execution — filled segments are
    handed to pool domains for decoding without blocking retirement —
    then call finish, which stitches (and tags results with the
    execution's completeness).  Semantics otherwise as {!run}. *)
