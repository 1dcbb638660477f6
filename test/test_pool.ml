(* The domain pool and the parallel fan-out built on it.
   The contract under test is determinism: for any --jobs value and any
   scheduling, parallel runs must be bit-identical to sequential ones —
   results, completeness tags, and the harness Counters totals — and
   exceptions raised inside pool tasks must surface exactly once,
   through the typed-error barrier, without wedging the pool. *)

let pp_result fmt (r : Ilp.Analyze.result) =
  Format.fprintf fmt
    "{machine=%s; counted=%d; seq=%d; cycles=%d; par=%.6f; dyn=%d; mis=%d; \
     segs=%d; compl=%s}"
    r.machine r.counted r.seq_cycles r.cycles r.parallelism r.dyn_branches
    r.mispredicts
    (Array.length r.segments)
    (Pipeline_error.completeness_tag r.completeness)

let equal_result (a : Ilp.Analyze.result) (b : Ilp.Analyze.result) =
  a.machine = b.machine && a.counted = b.counted
  && a.seq_cycles = b.seq_cycles && a.cycles = b.cycles
  && a.parallelism = b.parallelism && a.dyn_branches = b.dyn_branches
  && a.mispredicts = b.mispredicts && a.segments = b.segments
  && a.completeness = b.completeness

let result_t = Alcotest.testable pp_result equal_result

let metric name snaps =
  List.find_map
    (fun (s : Obs.Metrics.snap) -> if s.name = name then Some s.value else None)
    snaps

(* ------------------------------------------------------------------ *)
(* The pool contract. *)

module P = Stdx.Pool

let test_map_order () =
  P.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 100 (fun i -> i) in
      (* uneven work so completion order differs from input order *)
      let f i =
        let acc = ref 0 in
        for k = 0 to (i mod 7) * 1000 do
          acc := !acc + k
        done;
        ignore !acc;
        i * i
      in
      let got = P.map_array pool f input in
      Alcotest.(check (array int))
        "results in input order" (Array.map f input) got)

let test_jobs_one_inline () =
  P.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs clamped" 1 (P.jobs pool);
      let got = P.map_list pool (fun x -> x + 1) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "inline map" [ 2; 3; 4 ] got)

let test_exception_surfaces_and_pool_survives ~jobs () =
  P.with_pool ~jobs (fun pool ->
      let ran = Atomic.make 0 in
      (* The lowest-indexed failure is the one re-raised. *)
      (match
         P.map_array pool
           (fun i ->
             Atomic.incr ran;
             if i mod 4 = 2 then failwith (string_of_int i) else i)
           (Array.init 32 (fun i -> i))
       with
      | _ -> Alcotest.fail "expected Failure to propagate"
      | exception Failure msg ->
        Alcotest.(check string) "lowest-indexed exception" "2" msg);
      (* The whole batch ran before re-raising, at any width: the
         pool is quiescent, its totals match, and it is reusable. *)
      Alcotest.(check int) "every task ran" 32 (Atomic.get ran);
      let st = P.stats pool in
      Alcotest.(check int) "submitted total" 32 st.P.submitted;
      Alcotest.(check int) "completed total" 32 st.P.completed;
      let got = P.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "pool reusable" [ 2; 4; 6 ] got)

let test_nested_maps () =
  P.with_pool ~jobs:2 (fun pool ->
      (* A task that submits its own batch: the submitter helps drain
         the queue, so this must complete rather than deadlock. *)
      let got =
        P.map_list pool
          (fun i -> P.map_list pool (fun j -> (10 * i) + j) [ 1; 2; 3 ])
          [ 1; 2 ]
      in
      Alcotest.(check (list (list int)))
        "nested batches" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] got)

let test_async_await () =
  P.with_pool ~jobs:3 (fun pool ->
      let futs = List.init 20 (fun i -> P.async pool (fun () -> i * 3)) in
      let got = List.map (fun f -> P.await pool f) futs in
      Alcotest.(check (list int))
        "futures resolve in submission order"
        (List.init 20 (fun i -> i * 3))
        got;
      (* a failed task is boxed, not fatal *)
      let bad = P.async pool (fun () -> failwith "boxed") in
      (match P.await pool bad with
      | _ -> Alcotest.fail "expected the boxed Failure"
      | exception Failure msg ->
        Alcotest.(check string) "boxed exception surfaces" "boxed" msg);
      let ok = P.async pool (fun () -> 7) in
      Alcotest.(check int) "pool survives a failed future" 7
        (P.await pool ok);
      Alcotest.(check bool) "poll after await" true (P.poll ok))

let test_await_helps () =
  (* jobs=2: one worker domain.  A future that awaits another future
     can only finish if awaiting helps run queued tasks. *)
  P.with_pool ~jobs:2 (fun pool ->
      let inner = P.async pool (fun () -> 21) in
      let outer = P.async pool (fun () -> 2 * P.await pool inner) in
      Alcotest.(check int) "await helps instead of deadlocking" 42
        (P.await pool outer))

let test_shutdown () =
  let pool = P.create ~jobs:3 () in
  P.shutdown pool;
  P.shutdown pool;  (* idempotent *)
  match P.map_list pool (fun x -> x) [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

(* Poll [cond] every millisecond for up to [secs] seconds; [false] on
   timeout, so a scheduling bug fails its test instead of hanging it. *)
let eventually ?(secs = 5.0) cond =
  let deadline = Unix.gettimeofday () +. secs in
  let rec go () =
    cond () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.001; go ()))
  in
  go ()

(* The two ends of the ring: a worker takes the oldest task, a helper
   the newest.  With the only worker held inside a gate task, awaiting
   the last of three queued futures runs that one alone and leaves the
   other two queued until the gate opens. *)
let test_helper_takes_newest () =
  P.with_pool ~jobs:2 (fun pool ->
      let gate = Atomic.make false in
      let held =
        P.async pool (fun () ->
            ignore (eventually ~secs:10.0 (fun () -> Atomic.get gate)))
      in
      Alcotest.(check bool) "the worker holds the gate task" true
        (eventually (fun () ->
             let st = P.stats pool in
             st.P.in_flight = 1 && st.P.depth = 0));
      let ran = ref [] in
      let futs =
        List.map
          (fun i -> P.async pool (fun () -> ran := i :: !ran; i))
          [ 0; 1; 2 ]
      in
      Alcotest.(check int) "await runs the newest" 2
        (P.await pool (List.nth futs 2));
      Alcotest.(check (list int)) "and only the newest" [ 2 ] !ran;
      Alcotest.(check int) "the older two stay queued" 2
        (P.stats pool).P.depth;
      Atomic.set gate true;
      P.await pool held;
      Alcotest.(check (list int)) "all resolve once the gate opens"
        [ 0; 1; 2 ] (List.map (P.await pool) futs))

(* A push wakes a waiting worker.  Once the worker waits, each task of
   a two-task batch waits up to 5 s for the other's flag, so both
   return true only if the two run at once: the caller helps with one,
   and the worker must wake for the other. *)
let test_push_wakes_worker () =
  P.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check bool) "the worker waits" true
        (eventually (fun () ->
             let st = P.stats pool in
             st.P.parks = st.P.wakes + 1));
      let flags = [| Atomic.make false; Atomic.make false |] in
      let meet i =
        Atomic.set flags.(i) true;
        eventually (fun () -> Atomic.get flags.(1 - i))
      in
      Alcotest.(check (array bool)) "both tasks met" [| true; true |]
        (P.map_array pool meet [| 0; 1 |]))

let pool_metrics pool =
  let reg = Obs.Metrics.create () in
  Obs.Probe.pool_stats reg (P.stats pool);
  let snaps = Obs.Metrics.snapshot reg in
  let counter name =
    match metric name snaps with
    | Some (Obs.Metrics.Counter v) -> v
    | _ -> Alcotest.fail (name ^ " missing")
  and gauge name =
    match metric name snaps with
    | Some (Obs.Metrics.Gauge v) -> v
    | _ -> Alcotest.fail (name ^ " missing")
  in
  (counter, gauge)

(* Obs.Probe.pool_stats publishes Pool.stats: submitted/completed
   totals are exact, the high-water gauges stay within the pool's
   physical bounds, and the pool is quiescent after a batch. *)
let test_probe_gauges () =
  let n = 40 in
  P.with_pool ~jobs:3 (fun pool ->
      ignore (P.map_array pool (fun i -> i * i) (Array.init n (fun i -> i)));
      let st = P.stats pool in
      Alcotest.(check int) "queue drained" 0 st.P.depth;
      Alcotest.(check int) "nothing in flight" 0 st.P.in_flight;
      Alcotest.(check int) "submitted total" n st.P.submitted;
      Alcotest.(check int) "completed total" n st.P.completed;
      Alcotest.(check bool) "steals never exceed attempts" true
        (st.P.steals <= st.P.steal_attempts);
      let counter, gauge = pool_metrics pool in
      Alcotest.(check int) "submitted counter" n
        (counter "pool_tasks_submitted_total");
      Alcotest.(check int) "completed counter" n
        (counter "pool_tasks_completed_total");
      Alcotest.(check int) "steals counter" st.P.steals
        (counter "pool_steals_total");
      (* the first push sees depth 1 before anyone takes it *)
      let d = gauge "pool_queue_depth_highwater" in
      Alcotest.(check bool) "depth high-water within queue bounds" true
        (d >= 1 && d <= n);
      let f = gauge "pool_tasks_in_flight_highwater" in
      Alcotest.(check bool) "in-flight high-water within pool width" true
        (f >= 1 && f <= 3))

let test_probe_inline_jobs_one () =
  (* the jobs=1 inline path is counted too: totals are identical
     whatever the pool width *)
  P.with_pool ~jobs:1 (fun pool ->
      ignore (P.map_list pool (fun x -> x + 1) [ 1; 2; 3 ]);
      let st = P.stats pool in
      Alcotest.(check int) "submitted inline" 3 st.P.submitted;
      Alcotest.(check int) "completed inline" 3 st.P.completed;
      let counter, gauge = pool_metrics pool in
      Alcotest.(check int) "completed counter" 3
        (counter "pool_tasks_completed_total");
      Alcotest.(check int) "one task in flight at a time" 1
        (gauge "pool_tasks_in_flight_highwater");
      Alcotest.(check int) "nothing queued" 0
        (gauge "pool_queue_depth_highwater"))

let test_steal_counters_move () =
  (* A batch of deliberately uneven tasks on a four-domain pool.  Every
     worker looks at the queue before it first waits, so the attempt
     counter must move; how many tasks each worker takes depends on
     timing, so only the totals are asserted. *)
  Stdx.Pool.with_pool ~jobs:4 (fun pool ->
      let f i =
        let acc = ref 0 in
        for k = 0 to (i mod 11) * 2000 do
          acc := !acc + k
        done;
        !acc
      in
      ignore (Stdx.Pool.map_array pool f (Array.init 400 (fun i -> i)));
      let st = Stdx.Pool.stats pool in
      Alcotest.(check bool) "workers looked at the queue" true
        (st.Stdx.Pool.steal_attempts > 0);
      Alcotest.(check int) "all tasks accounted" 400 st.Stdx.Pool.submitted;
      Alcotest.(check int) "all tasks completed" 400 st.Stdx.Pool.completed)

(* ------------------------------------------------------------------ *)
(* Parallel fan-out determinism: Run.exec at 4 domains
   against the sequential path, all ten workloads, all seven
   machines. *)

type counters = {
  executions : int;
  passes : int;
  entries : int;
  state_entries : int;
  profiled : int;
}

let snapshot () =
  { executions = Harness.Counters.executions ();
    passes = Harness.Counters.passes ();
    entries = Harness.Counters.entries ();
    state_entries = Harness.Counters.state_entries ();
    profiled = Harness.Counters.profiled_entries () }

let delta a b =
  { executions = b.executions - a.executions;
    passes = b.passes - a.passes;
    entries = b.entries - a.entries;
    state_entries = b.state_entries - a.state_entries;
    profiled = b.profiled - a.profiled }

let counters_t =
  Alcotest.testable
    (fun fmt c ->
      Format.fprintf fmt "{exec=%d; passes=%d; entries=%d; states=%d; prof=%d}"
        c.executions c.passes c.entries c.state_entries c.profiled)
    ( = )

let fuel = 100_000

let specs = List.map (fun m -> Harness.spec m) Ilp.Machine.all_paper

let run_all ~jobs ws =
  match
    Harness.Run.exec (Harness.Run.config ~jobs ~fuel specs) ws
  with
  | Ok items -> List.map (fun it -> it.Harness.Run.it_outcome) items
  | Error e -> Alcotest.fail (Pipeline_error.to_string e)

let test_streaming_all_deterministic () =
  let ws = Workloads.Registry.all in
  let c0 = snapshot () in
  let seq = run_all ~jobs:1 ws in
  let c1 = snapshot () in
  let par = run_all ~jobs:4 ws in
  let c2 = snapshot () in
  Alcotest.(check int) "one outcome per workload" (List.length ws)
    (List.length par);
  List.iteri
    (fun i (s, p) ->
      let name = (List.nth ws i).Workloads.Registry.name in
      match (s, p) with
      | Ok rs, Ok rp ->
        Alcotest.(check (list result_t)) (name ^ ": results") rs rp
      | Error es, Error ep ->
        Alcotest.(check string)
          (name ^ ": errors")
          (Pipeline_error.to_string es)
          (Pipeline_error.to_string ep)
      | _ -> Alcotest.fail (name ^ ": Ok/Error shape diverged"))
    (List.combine seq par);
  Alcotest.check counters_t "counter totals identical" (delta c0 c1)
    (delta c1 c2)

let test_fuzz_jobs_deterministic () =
  let run jobs =
    match Harness.Fuzz.run ~fuel:20_000 ~jobs ~seed:11 ~cases:48 () with
    | Ok r -> r
    | Error e -> Alcotest.fail (Pipeline_error.to_string e)
  in
  let seq = run 1 in
  let par = run 4 in
  Alcotest.(check bool) "fuzz report identical across jobs" true (seq = par)

(* ------------------------------------------------------------------ *)
(* qcheck: tasks raising arbitrary exceptions behind the guard never
   escape the typed-error barrier and never wedge the pool (the map
   returning at all is the no-deadlock half of the property). *)

exception Chaos of int

let prop_guarded_tasks_never_escape =
  QCheck.Test.make ~count:50 ~name:"pool tasks never escape the barrier"
    QCheck.(list_of_size Gen.(int_range 0 24) (int_range 0 999))
    (fun codes ->
      Stdx.Pool.with_pool ~jobs:3 (fun pool ->
          let outcomes =
            Stdx.Pool.map_list pool
              (fun code ->
                Pipeline_error.guard Execute (fun () ->
                    match code mod 4 with
                    | 0 -> raise (Chaos code)
                    | 1 -> failwith "chaos"
                    | 2 -> invalid_arg "chaos"
                    | _ -> Ok code))
              codes
          in
          List.for_all2
            (fun code outcome ->
              match outcome with
              | Ok v -> code mod 4 = 3 && v = code
              | Error { Pipeline_error.cause = Internal _; stage = Execute; _ }
                ->
                code mod 4 <> 3
              | Error _ -> false)
            codes outcomes))

(* qcheck: scheduling independence.  Whatever the jobs count, a
   segmented analysis on the pool is bit-identical to the sequential
   un-segmented run — the end-to-end form of the pool's determinism
   contract, with helping and waiting workers in play.  At fuel 20000 every workload's replay crosses
   one segment boundary at the one-chunk stride; test_segmented's
   [Segmented.run] properties randomize the stride. *)

let prop_steal_segmented_scheduling_independent =
  let ws = Workloads.Registry.all in
  QCheck.Test.make ~count:10
    ~name:"steal scheduler: segmented run == sequential (any jobs)"
    QCheck.(pair (int_range 2 4) (int_range 0 (List.length ws - 1)))
    (fun (jobs, wi) ->
      let w = [ List.nth ws wi ] in
      let run cfg =
        match Harness.Run.exec cfg w with
        | Ok items -> List.map (fun it -> it.Harness.Run.it_outcome) items
        | Error e -> Alcotest.fail (Pipeline_error.to_string e)
      in
      let seq =
        run (Harness.Run.config ~jobs:1 ~fuel:20_000 specs)
      in
      let g0 = Harness.Counters.segments () in
      let par =
        run
          (Harness.Run.config ~jobs ~fuel:20_000
             ~segment_steps:`Auto specs)
      in
      seq = par && Harness.Counters.segments () - g0 = 2)

(* The "steal:" labels name the work-stealing pool this one replaced;
   they stay so that each test keeps its name. *)
let suite =
  let case label = Alcotest.test_case ("steal: " ^ label) `Quick in
  [ case "map_array preserves order" test_map_order;
    case "jobs=1 runs inline" test_jobs_one_inline;
    case "exceptions surface, pool survives"
      (test_exception_surfaces_and_pool_survives ~jobs:3);
    case "exceptions surface at jobs=1, whole batch runs"
      (test_exception_surfaces_and_pool_survives ~jobs:1);
    case "nested maps don't deadlock" test_nested_maps;
    case "async/await box values and exceptions" test_async_await;
    case "await helps on a narrow pool" test_await_helps;
    case "shutdown is idempotent and final" test_shutdown;
    case "a helper takes the newest task" test_helper_takes_newest;
    case "a push wakes a waiting worker" test_push_wakes_worker;
    case "probe gauges track the queues" test_probe_gauges;
    case "probe fires on the inline path" test_probe_inline_jobs_one;
    case "counters move under uneven load" test_steal_counters_move ]
  @ [ Alcotest.test_case "Run.exec stream: jobs=4 == sequential" `Slow
        test_streaming_all_deterministic;
      Alcotest.test_case "fuzz: jobs=4 == jobs=1" `Slow
        test_fuzz_jobs_deterministic;
      QCheck_alcotest.to_alcotest prop_guarded_tasks_never_escape;
      QCheck_alcotest.to_alcotest
        prop_steal_segmented_scheduling_independent ]
