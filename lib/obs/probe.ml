type analyzer = {
  a_enabled : bool;
  a_sample_every : int;
  a_entries : Metrics.counter;
  a_counted : Metrics.counter;
  a_flushed : Metrics.counter;
  a_pred_hits : Metrics.counter;
  a_pred_misses : Metrics.counter;
  a_mispredict_flushes : Metrics.counter;
  a_frame_hw : Metrics.gauge;
  a_frame_depth : Metrics.histogram;
}

(* Disabled probes carry real (never-updated) instruments from a
   private registry nothing ever exports, so the hot-loop fields need
   no option wrapping. *)
let null_registry = Metrics.create ()

let frame_depth_buckets = [| 1; 2; 4; 8; 16; 32; 64 |]

let make_analyzer ?(sample_every = 4096) registry ~machine =
  let n fmt = Printf.sprintf fmt machine in
  { a_enabled = registry != null_registry;
    a_sample_every = max 1 sample_every;
    a_entries =
      Metrics.counter registry ~help:"trace entries consumed"
        (n "ilp_analyze_entries_total{machine=%S}");
    a_counted =
      Metrics.counter registry ~help:"entries counted (timed)"
        (n "ilp_analyze_counted_total{machine=%S}");
    a_flushed =
      Metrics.counter registry
        ~help:"entries flushed after the step budget"
        (n "ilp_analyze_flushed_entries_total{machine=%S}");
    a_pred_hits =
      Metrics.counter registry ~help:"conditional branches predicted"
        (n "ilp_analyze_predictor_hits_total{machine=%S}");
    a_pred_misses =
      Metrics.counter registry ~help:"conditional branches mispredicted"
        (n "ilp_analyze_predictor_misses_total{machine=%S}");
    a_mispredict_flushes =
      Metrics.counter registry ~help:"speculation flush events"
        (n "ilp_analyze_mispredict_flushes_total{machine=%S}");
    a_frame_hw =
      Metrics.gauge registry ~help:"frame-stack depth high-water"
        (n "ilp_analyze_frame_depth_highwater{machine=%S}");
    a_frame_depth =
      Metrics.histogram registry ~buckets:frame_depth_buckets
        ~help:"sampled frame-stack depth"
        (n "ilp_analyze_frame_depth{machine=%S}") }

let analyzer_disabled = make_analyzer null_registry ~machine:""

let analyzer ?sample_every registry ~machine =
  make_analyzer ?sample_every registry ~machine

type vm = {
  v_enabled : bool;
  v_sample_mask : int;
  v_executions : Metrics.counter;
  v_steps : Metrics.counter;
  v_faults : Metrics.counter;
  v_stack_words : Metrics.histogram;
}

let stack_buckets = [| 256; 1024; 4096; 16384; 65536; 262144 |]

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (p * 2)

let make_vm ?(sample_every = 4096) registry =
  { v_enabled = registry != null_registry;
    v_sample_mask = pow2_at_least (max 1 sample_every) 1 - 1;
    v_executions =
      Metrics.counter registry ~help:"VM executions" "vm_executions_total";
    v_steps =
      Metrics.counter registry ~help:"retired instructions" "vm_steps_total";
    v_faults =
      Metrics.counter registry ~help:"executions ending in a fault"
        "vm_faults_total";
    v_stack_words =
      Metrics.histogram registry ~buckets:stack_buckets
        ~help:"sampled VM stack depth (words)" "vm_stack_words" }

let vm_disabled = make_vm null_registry

let vm ?sample_every registry = make_vm ?sample_every registry

(* The domain-pool instruments: the single place the pool's observable
   surface is named.  Both the transition probe ([pool]) and the
   snapshot publisher ([pool_stats]) register the same instruments,
   idempotently by name, so serve / bench / tests never hand-wire pool
   gauges again. *)
type pool_instruments = {
  p_submitted : Metrics.counter;
  p_completed : Metrics.counter;
  p_depth_hw : Metrics.gauge;  (* aggregate queued, all deques *)
  p_deque_hw : Metrics.gauge;  (* deepest single deque *)
  p_in_flight_hw : Metrics.gauge;
  p_steal_attempts : Metrics.counter;
  p_steals : Metrics.counter;
  p_parks : Metrics.counter;
  p_wakes : Metrics.counter;
}

let pool_instruments registry =
  { p_submitted =
      Metrics.counter registry ~help:"tasks submitted to the domain pool"
        "pool_tasks_submitted_total";
    p_completed =
      Metrics.counter registry ~help:"tasks completed by the domain pool"
        "pool_tasks_completed_total";
    p_depth_hw =
      Metrics.gauge registry
        ~help:"pool queue depth high-water (aggregate across deques)"
        "pool_queue_depth_highwater";
    p_deque_hw =
      Metrics.gauge registry
        ~help:"deepest single deque high-water"
        "pool_deque_depth_highwater";
    p_in_flight_hw =
      Metrics.gauge registry ~help:"pool tasks-in-flight high-water"
        "pool_tasks_in_flight_highwater";
    p_steal_attempts =
      Metrics.counter registry ~help:"steal sweeps' victim probes"
        "pool_steal_attempts_total";
    p_steals =
      Metrics.counter registry ~help:"tasks taken from another deque"
        "pool_steals_total";
    p_parks =
      Metrics.counter registry ~help:"workers parked with nothing runnable"
        "pool_parks_total";
    p_wakes =
      Metrics.counter registry ~help:"parked workers woken"
        "pool_wakes_total" }

(* High-water gauges stay commutative (max) and counters only ever
   increment, so jobs=N snapshots stay deterministic for a quiescent
   pool even though the probe now fires without any global lock. *)
let pool registry =
  let i = pool_instruments registry in
  fun event ~depth ~deque ~in_flight ->
    Metrics.set_max i.p_depth_hw depth;
    Metrics.set_max i.p_deque_hw deque;
    Metrics.set_max i.p_in_flight_hw in_flight;
    match event with
    | `Submit -> Metrics.incr i.p_submitted
    | `Start -> ()
    | `Finish -> Metrics.incr i.p_completed
    | `Steal ->
        Metrics.incr i.p_steal_attempts;
        Metrics.incr i.p_steals
    | `Steal_miss -> Metrics.incr i.p_steal_attempts
    | `Park -> Metrics.incr i.p_parks
    | `Wake -> Metrics.incr i.p_wakes

let pool_stats registry (st : Stdx.Pool.stats) =
  let i = pool_instruments registry in
  Metrics.set_max i.p_depth_hw st.depth;
  Metrics.set_max i.p_deque_hw st.deque_depth;
  Metrics.set_max i.p_in_flight_hw st.in_flight;
  (* Lifetime totals from the pool are authoritative: the snapshot may
     be the only publication (no probe installed), so reconcile the
     counters up to the pool's own numbers. *)
  let top_up c target =
    let have = Metrics.counter_value c in
    if target > have then Metrics.add c (target - have)
  in
  top_up i.p_submitted st.submitted;
  top_up i.p_completed st.completed;
  top_up i.p_steal_attempts st.steal_attempts;
  top_up i.p_steals st.steals;
  top_up i.p_parks st.parks;
  top_up i.p_wakes st.wakes
