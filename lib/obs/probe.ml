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

(* The domain-pool instruments, named in this one place.  The pool
   keeps every count under its own mutex; a scrape publishes them here,
   so serve, bench and tests never hand-wire pool gauges. *)
let pool_stats registry (st : Stdx.Pool.stats) =
  (* Counters only grow, so a lifetime total is published as the
     difference from what the registry already holds. *)
  let total name help v =
    let c = Metrics.counter registry ~help name in
    let have = Metrics.counter_value c in
    if v > have then Metrics.add c (v - have)
  in
  let highwater name help v =
    Metrics.set_max (Metrics.gauge registry ~help name) v
  in
  total "pool_tasks_submitted_total" "tasks submitted to the domain pool"
    st.submitted;
  total "pool_tasks_completed_total" "tasks completed by the domain pool"
    st.completed;
  total "pool_steal_attempts_total" "times a worker looked at the queue"
    st.steal_attempts;
  total "pool_steals_total" "tasks a worker took from the queue" st.steals;
  total "pool_parks_total" "times a worker waited with nothing queued"
    st.parks;
  total "pool_wakes_total" "waiting workers woken" st.wakes;
  highwater "pool_queue_depth_highwater" "pool queue depth high-water"
    st.depth_highwater;
  highwater "pool_tasks_in_flight_highwater" "pool tasks-in-flight high-water"
    st.in_flight_highwater
