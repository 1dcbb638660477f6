(** The trace-driven limit analyzer (paper §4.4).

    One pass over a dynamic trace assigns each counted instruction an
    execution cycle [t = 1 + max(constraints)], where the constraints
    are:

    - true data dependences: the completion times of the last writers of
      the registers read and, for loads, of the last store to the same
      address (perfect disambiguation via trace addresses; anti- and
      output dependences are ignored — a store only {e sets} the
      address's time);
    - the machine's control-flow constraint (see {!Machine});
    - for serializing branches on a machine with [k] flows of control,
      availability of a flow (one serializing branch per flow per
      cycle);
    - optionally, a finite scheduling window;
    - optionally, a finite fetch rate: the [i]-th counted instruction
      cannot issue before cycle [i/f + 1] on an [f]-wide machine.

    A machine with the value-prediction constraint additionally breaks
    true register data dependences on instructions a trained last-value
    predictor marks predictable (see {!Predict.Value}): their results
    count as available immediately, while the producer itself still
    occupies its cycles (it must execute to validate the prediction).

    Simulated transformations:

    - {e perfect inlining} removes calls, returns and stack-pointer
      adjustments from the timed trace; callee instructions inherit the
      call site's control dependence through an interprocedural stack,
      with the paper's recursion cutoff (control dependence dropped when
      an RDF instance stems from a newer procedure activation);
    - {e perfect unrolling} removes loop-overhead instructions; a
      removed loop branch passes its own control-dependence constraint
      through to its dependents, so unrolling an inner loop leaves the
      body control dependent on the enclosing loop's branch.

    Parallelism is (sequential cycles) / (parallel cycles); with unit
    latencies the sequential cycles equal the number of counted
    instructions, exactly as in the paper.

    Analysis is decode, then in-order apply.  {!State.decode} classifies
    entries (static flags plus the predicted branch direction) without
    touching machine times; {!State.apply} applies classified entries
    in trace order.  Any number of machine models advance over a single
    trace pass ({!run_many}) or directly over a live VM execution
    ({!sink_many}), a chunk of {!Vm.Trace.chunk_size} entries at a
    time: each group of {!compatible} configs classifies the chunk once,
    then one state per group applies it to all the group's machines in
    lockstep, entry by entry. *)

type config = {
  machine : Machine.t;
  inline : bool;
  unroll : bool;
  predictor : Predict.Predictor.t;
  collect_segments : bool;
  (** record inter-misprediction segments (Figures 6 and 7) *)
  mem_words : int;  (** sizing hint for the memory last-write table *)
  step_budget : int option;
  (** resource guard: analyze at most this many counted instructions,
      then drop the rest of the trace and tag the result
      [Truncated Step_budget] instead of running unboundedly *)
  value_table : bool array option;
  (** per static pc: last-value predictable (from
      {!Predict.Value.table}).  Consulted only when the machine has the
      [vp] constraint; a missing or undersized table (no training ran)
      disables value prediction rather than failing. *)
  probe : Obs.Probe.analyzer;
  (** profiling hooks: entries/counted/flushed tallies, predictor
      hits/misses, frame-stack depth high-water and a sampled depth
      histogram, published to the probe's registry when the state
      finishes.  Disabled (the default) it costs the per-entry hot
      path one hoisted bool test, and results are byte-identical
      either way. *)
}

val config :
  ?inline:bool ->
  ?unroll:bool ->
  ?collect_segments:bool ->
  ?mem_words:int ->
  ?step_budget:int ->
  ?value_table:bool array ->
  ?probe:Obs.Probe.analyzer ->
  Machine.t ->
  Predict.Predictor.t ->
  config
(** Defaults: [inline = true], [unroll = true],
    [collect_segments = false], no step budget, no value table, probe
    disabled. *)

val compatible : config list -> bool
(** Can one decode serve all these configs?  True for a non-empty list
    whose configs share [inline]/[unroll] and the {e physically same}
    stateless predictor record ([==]).  Stateful predictors (the 2-bit
    counter) train on call order, so a config using one shares its
    decode with nobody. *)

val decode_groups : config list -> int list list
(** The configs' positions partitioned into maximal {!compatible}
    groups, ordered by first member; a config with a stateful
    predictor is a group of its own. *)

val decoder : config -> Program_info.t -> pc:int -> aux:int -> int
(** State-free per-entry classification, one entry of
    {!State.decode}: the returned word packs the static instruction's
    {!Program_info} flags plus a mispredicted-branch marker (from the
    config's predictor) and an invalid-pc marker.  Classification
    depends only on the config's [inline]/[unroll] masks and its
    predictor — for a {e stateless} predictor it is pure in
    [(pc, aux)].  An out-of-range pc does not raise here: the marker
    defers the [Invalid_argument] to the apply step, preserving
    sequential semantics when a step budget cuts the trace first.  No
    library path calls it; it serves per-entry probes and tests. *)

(** A run of counted instructions between two consecutive mispredicted
    branches (the closing branch included).  [length] is the paper's
    misprediction distance; [length/cycles] its degree of parallelism. *)
type segment = {
  length : int;
  cycles : int;
}

type result = {
  machine : string;
  counted : int;  (** counted (timed) trace instructions *)
  seq_cycles : int;  (** sequential time; [counted] under unit latency *)
  cycles : int;  (** parallel execution time *)
  parallelism : float;
  dyn_branches : int;  (** dynamic conditional branches counted *)
  mispredicts : int;  (** mispredicted dynamic branches (incl. computed jumps) *)
  segments : segment array;  (** empty unless [collect_segments] *)
  completeness : Pipeline_error.completeness;
  (** provenance: [Complete] when the analyzed trace covers a halted
      execution; [Truncated] (with the fault descriptor) when the trace
      ended early — fuel, VM fault, injected cut, or this config's own
      step budget.  Numbers from a truncated trace are still exact for
      the prefix they cover. *)
}

(** Incremental analysis state of one decode group: the apply half of
    the analysis.  One state advances every machine of the group per
    trace entry; the machines share the entry's classification, the
    block-sequence and frame-stack upkeep, the static-table lookups and
    the choice of control-dependence branch, and keep only their own
    times and knobs.  A stateful predictor (e.g. the 2-bit counter)
    must not be shared: its config is a group of its own. *)
module State : sig
  type t

  val group : config list -> Program_info.t -> t
  (** A state for every machine of a decode group, in list order.
      Raises [Invalid_argument] on an empty list, or on several configs
      that are not {!compatible}. *)

  val create : config -> Program_info.t -> t
  (** [create cfg info] is [group [cfg] info]. *)

  val step_bits : t -> pc:int -> aux:int -> bits:int -> unit
  (** Consume one trace entry, on every machine of the group, whose
      classification [bits] was computed by {!decode} (or the
      {!decoder} of a config {!compatible} with the group's; for a
      stateful predictor, this config's own, in trace order).  Entries
      must arrive in trace order; each machine drops the entries past
      its config's [step_budget].  This is the one per-entry transition:
      {!run_many}, {!sink_many} and the segment pipeline all apply
      entries through it. *)

  val decode :
    t -> pcs:int array -> auxs:int array -> bits:int array -> len:int -> unit
  (** Classify entries [0 .. len - 1] into [bits] with the group's
      masks and predictor, in index order: the decode half of
      {!sink_many}'s chunk fan-out, and the producer's classification
      in {!Segmented}.  It reads only the group's masks, static tables
      and predictor, never its times, so it may run while another
      domain applies an earlier chunk to the same state.  A stateful
      predictor trains as it classifies: its chunks must be decoded in
      trace order, from one domain. *)

  val apply :
    t -> pcs:int array -> auxs:int array -> bits:int array -> len:int -> unit
  (** [step_bits] over entries [0 .. len - 1] of a classified chunk, in
      index order: the apply half of {!sink_many}'s chunk fan-out, and
      one segment's task in {!Segmented}. *)

  val finish_group :
    ?completeness:Pipeline_error.completeness -> t -> result list
  (** Close the analysis (flushing each machine's trailing
      inter-misprediction segment) and report, in group order.  Call
      once, after the last [step_bits].  [completeness] (default
      [Complete]) describes how the {e execution} that produced the
      trace ended; a machine's own step-budget cut takes precedence
      over it. *)

  val finish : ?completeness:Pipeline_error.completeness -> t -> result
  (** {!finish_group} of a one-config state.  Raises [Invalid_argument]
      on a group of several. *)
end

val run :
  ?completeness:Pipeline_error.completeness ->
  config -> Program_info.t -> Vm.Trace.t -> result

val run_many :
  ?completeness:Pipeline_error.completeness ->
  config list -> Program_info.t -> Vm.Trace.t -> result list
(** Advance every config over a {e single} pass of the trace; results
    are in config order.  The pass walks the trace's chunks in place:
    per chunk, each {!decode_groups} group classifies it once, then the
    group's one {!State.t} applies the whole chunk to all its machines.
    Each machine sees its own entries in trace order, so the results
    equal mapping {!run} over the configs.  [completeness] tags every
    result with how the traced execution ended. *)

val sink_many :
  ?chunk:int -> config list -> Program_info.t ->
  Vm.Trace.sink
  * (?completeness:Pipeline_error.completeness -> unit -> result list)
(** [sink_many configs info] is [(sink, finish)]: feed trace entries to
    [sink] (e.g. pass it to [Vm.Exec.run ~sink]), close it, and call
    [finish] afterwards (passing the execution's completeness, if it
    was not a clean halt).  This is {!run_many} without a materialized
    trace: the sink buffers [chunk] entries (default
    {!Vm.Trace.chunk_size}) and analyzes them, in {!run_many}'s order,
    when the buffer fills and when the sink is closed; results do not
    depend on [chunk].  Memory stays O(program + touched addresses +
    scheduling window + [chunk]) regardless of trace length. *)
