(** Intra-trace parallel analysis: a two-segment pipeline that applies
    one segment of the trace on pool domains while the producer fills
    the next (DESIGN.md §15).

    The analysis splits into a classification that reads no machine
    times ({!Analyze.State.decode} — static flags plus the predicted
    branch direction) and the state-carrying apply
    ({!Analyze.State.apply}).  The producer — the domain feeding the
    sink, normally the VM's — buffers [segment_steps] entries, then
    classifies the segment once per decode group
    ({!Analyze.decode_groups}), through that group's own lockstep
    state.  A decode group's configs are cut into stitch sub-groups of
    at most four ({!subgroups}), and each sub-group's one lockstep
    {!Analyze.State.t} applies the segment as one pool task.  Before
    handing off segment [k + 1] the producer awaits, and so helps run,
    segment [k]'s tasks.  Each state therefore applies the segments one
    at a time, in index order, with the classification the sequential
    pass computes, so every result is bit-identical to
    {!Analyze.run_many}, for every machine in the lattice, including
    step-budget cuts and truncated traces.  Only the producer
    classifies, in trace order, so a stateful predictor's group
    trains exactly as in the sequential pass and applies on the pool
    like any other.  No task awaits another.  The partition depends on
    the config count alone, so the span skeleton and the results do
    not depend on the pool's width.

    Memory: at most two segments are live, one applying and one
    filling, in two buffers allocated once and reused: [2 + g] int
    arrays of [segment_steps] entries each, for [g] decode groups.
    For one decode group at the {!auto_steps} stride that is 768 KB,
    whatever the trace's length. *)

type outcome = {
  results : Analyze.result list;  (** in config order *)
  segments : int;  (** segments applied *)
}

val subgroups : int -> int list list
(** [subgroups n]: the stitch partition of [n] configs' positions into
    contiguous sub-groups of at most four, as even as possible ([7] is
    [[0;1;2]; [3;4;5;6]]). *)

val auto_steps : trace_len:int -> jobs:int -> int
(** One trace chunk ({!Vm.Trace.chunk_size}, 16384 entries) for every
    trace length and pool width: the stride the harness replays at,
    cut to the trace.  At most two segments are live, so a longer
    stride would cost memory and fill-and-drain overlap for fewer
    hand-offs.  The [analyze_segment_stall_ns] histogram is the
    measurement instrument for retuning. *)

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
(** The pipeline as a sink, the parallel analogue of
    {!Analyze.sink_many}: feed it from a live VM execution, close it,
    then call finish (tagging results with the execution's
    completeness).  Any config list is accepted; results come back in
    config order.  Without a [pool] every task runs inline on the
    producer (same results, no concurrency — the reference the fuzzer
    compares).  [check] is called per segment on the producer and in
    every task — the deadline hook; an exception it raises, or that an
    apply raises, propagates to the producer once the segment's other
    tasks have finished.  [obs] (default disabled) records one
    ["segment-decode"] span per segment and one ["segment-apply"] span
    per segment and sub-group, in buffers indexed from
    [span_index_base] — merged by index, so jobs=N telemetry structure
    equals sequential — plus the [analyze_segment_stall_ns] histogram
    (the producer's wait at the two-segment bound) and the
    [analyze_segments_live_max] gauge.  The outcome's [segments] is
    the hand-off count; the harness adds it to
    [pipeline_segments_total].
    Raises [Invalid_argument] if [segment_steps < 1]. *)

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
(** {!sink} fed from a recorded trace on the calling domain. *)
