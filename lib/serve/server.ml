type admission =
  | Admit_off
  | Admit_reject of float
  | Admit_budget of float

type config = {
  socket_path : string;
  tcp : (string * int) option;
  jobs : int;
  queue_limit : int;
  cache_capacity : int;
  admission : admission;
  max_fuel : int;
  max_step_budget : int;
  default_deadline_ms : int option;
  idle_timeout_ms : int option;
  retry_after_ms : int;
  registry : Obs.Metrics.t;
  segment_steps : Harness.segmenting;
}

let config ?tcp ?jobs ?(queue_limit = 64) ?(cache_capacity = 32)
    ?(admission = Admit_off) ?(max_fuel = 100_000_000)
    ?(max_step_budget = 100_000_000) ?default_deadline_ms ?idle_timeout_ms
    ?(retry_after_ms = 50) ?(registry = Obs.Metrics.global)
    ?(segment_steps = `Off) ~socket_path () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Stdx.Pool.recommended_jobs ()
  in
  { socket_path; tcp; jobs; queue_limit; cache_capacity;
    admission; max_fuel; max_step_budget; default_deadline_ms;
    idle_timeout_ms; retry_after_ms; registry; segment_steps }

(* One client connection.  [c_pending] counts replies still owed by
   pool jobs; the reader thread waits for it to reach zero before
   closing the fd, so a job never writes into a recycled descriptor. *)
type conn = {
  c_fd : Unix.file_descr;
  c_wmutex : Mutex.t;  (** serializes whole response frames *)
  c_pmutex : Mutex.t;
  c_done : Condition.t;
  mutable c_pending : int;
  c_ids : (int, unit) Hashtbl.t;  (** request ids seen (duplicate guard) *)
}

type job = unit -> unit

type t = {
  cfg : config;
  listen_unix : Unix.file_descr;
  listen_tcp : Unix.file_descr option;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  queue : job Rqueue.t;
  pool : Stdx.Pool.t;
  cache : Asm.Program.flat Cache.t;
  obs : Obs.Ctx.t;
  flag_draining : bool Atomic.t;
  in_flight : int Atomic.t;
  conns_mutex : Mutex.t;
  mutable conns : (conn * Thread.t) list;
  mutable acceptor_thread : Thread.t option;
  mutable dispatcher_thread : Thread.t option;
  mutable last_activity : float;
  stopped_mutex : Mutex.t;
  stopped_cond : Condition.t;
  mutable stopped : bool;
  m_requests : Obs.Metrics.counter;
  m_ok : Obs.Metrics.counter;
  m_errors : Obs.Metrics.counter;
  m_shed : Obs.Metrics.counter;
  m_rejected : Obs.Metrics.counter;
  m_deadline : Obs.Metrics.counter;
  m_queue_depth : Obs.Metrics.gauge;
  m_in_flight : Obs.Metrics.gauge;
  m_connections : Obs.Metrics.gauge;
  m_latency : Obs.Metrics.histogram;
}

let draining t = Atomic.get t.flag_draining

let now_ms () = Unix.gettimeofday () *. 1000.

(* ------------------------------------------------------------------ *)
(* Responses *)

let respond t conn payload =
  Mutex.lock conn.c_wmutex;
  let r = Protocol.write_frame conn.c_fd payload in
  Mutex.unlock conn.c_wmutex;
  (* a vanished peer is not a server problem; the reader thread will
     see the close and clean up *)
  ignore t;
  match r with Ok () -> () | Error _ -> ()

let count_error t (err : Pipeline_error.t) =
  Obs.Metrics.incr t.m_errors;
  match err.cause with
  | Deadline_exceeded _ -> Obs.Metrics.incr t.m_deadline
  | Rejected_by_estimate _ -> Obs.Metrics.incr t.m_rejected
  | _ -> ()

let respond_err t conn id err =
  count_error t err;
  respond t conn (Protocol.error_response ~id err)

let overloaded_error t ~workload ~depth =
  Pipeline_error.v ?workload Execute
    (Overloaded
       { depth; limit = t.cfg.queue_limit;
         retry_after_ms = t.cfg.retry_after_ms })

let shed t conn ~id ~workload ~depth =
  Obs.Metrics.incr t.m_shed;
  respond_err t conn (Some id) (overloaded_error t ~workload ~depth)

(* ------------------------------------------------------------------ *)
(* Request preparation (runs in the connection thread): resolve names,
   enforce quotas, hit the compile cache, run admission control.  The
   result is everything the pool job needs — or a typed error. *)

type admitted = {
  ad_workload : Workloads.Registry.t;
  ad_flat : Asm.Program.flat;
  ad_cached : bool;
  ad_specs : Harness.spec list;
  ad_fuel : int option;
  ad_step_budget : int option;
  ad_mem_words : int option;
  ad_deadline_ms : int option;
  ad_inject : (Fault.Injector.kind * int) option;
}

let ( let* ) = Result.bind

let quota ~workload ~what ~limit v =
  match v with
  | Some requested when requested > limit ->
    Error
      (Pipeline_error.v ~workload Execute
         (Budget_exceeded { what; limit; requested }))
  | v -> Ok v

let adhoc_workload ~max_fuel source =
  let digest = Digest.to_hex (Digest.string source) in
  { Workloads.Registry.name = "adhoc:" ^ String.sub digest 0 12;
    description = "ad hoc source over the wire"; lang = "C";
    numeric = false; source; fuel = min 10_000_000 max_fuel;
    expected_result = None }

(* The admission work proxy: M (the max breaker-free run) times the
   largest statically bounded loop trip count.  Unbounded M prices as
   [infinity]. *)
let work_proxy (est : Harness.estimated) =
  let max_trip =
    List.fold_left
      (fun acc (lf : Cfg.Estimate.loop_facts) ->
        match lf.lf_trip with Some tr -> max acc tr | None -> acc)
      1 est.e_est.Cfg.Estimate.loops
  in
  match est.e_est.Cfg.Estimate.max_run with
  | Cfg.Estimate.Unbounded -> infinity
  | Cfg.Estimate.Finite m -> float_of_int m *. float_of_int max_trip

let admit t ~machines ~(w : Workloads.Registry.t) ~flat ~fuel
    ~step_budget =
  match t.cfg.admission with
  | Admit_off -> Ok (fuel, step_budget)
  | Admit_reject ceiling | Admit_budget ceiling -> (
    let* est =
      Harness.estimate_flat ~machines ~workload:w.name flat
    in
    let estimate = work_proxy est in
    if estimate <= ceiling then Ok (fuel, step_budget)
    else
      match t.cfg.admission with
      | Admit_reject _ ->
        Error
          (Pipeline_error.v ~workload:w.name Analyze
             (Rejected_by_estimate { spec = w.name; estimate; ceiling }))
      | _ ->
        (* down-budget: the request runs, but its fuel and analysis
           steps are clamped to the ceiling *)
        let cap = int_of_float ceiling in
        let clamp = function
          | Some v -> Some (min v cap)
          | None -> Some cap
        in
        Ok (clamp fuel, clamp step_budget))

let prepare t (a : Protocol.analyze) =
  let* machines = Ilp.Machine.of_specs a.a_machines in
  let* w =
    match a.a_source with
    | Some src -> Ok (adhoc_workload ~max_fuel:t.cfg.max_fuel src)
    | None -> (
      match a.a_workload with
      | Some name -> Workloads.Registry.find_result name
      | None ->
        Error
          (Pipeline_error.v Lookup
             (Invalid_request "analyze needs a workload or a source")))
  in
  let workload = w.Workloads.Registry.name in
  let* fuel =
    quota ~workload ~what:"fuel" ~limit:t.cfg.max_fuel a.a_fuel
  in
  let* step_budget =
    quota ~workload ~what:"step budget" ~limit:t.cfg.max_step_budget
      a.a_step_budget
  in
  let* deadline_ms =
    match a.a_deadline_ms with
    | Some ms when ms <= 0 ->
      Error
        (Pipeline_error.v ~workload Lookup
           (Invalid_request "deadline_ms must be positive"))
    | Some _ as d -> Ok d
    | None -> Ok t.cfg.default_deadline_ms
  in
  let* inject =
    match a.a_inject with
    | None -> Ok None
    | Some (kname, seed) -> (
      match Fault.Injector.kind_of_string kname with
      | Some k -> Ok (Some (k, seed))
      | None ->
        Error
          (Pipeline_error.v ~workload Lookup
             (Unknown_fault
                { name = kname;
                  hint =
                    Pipeline_error.suggest kname Fault.Injector.kind_names })))
  in
  let key = Digest.to_hex (Digest.string w.Workloads.Registry.source) in
  let* flat, cached =
    match Cache.find t.cache key with
    | Some flat -> Ok (flat, true)
    | None ->
      let* flat = Workloads.Registry.compile_result w in
      Cache.add t.cache key flat;
      Ok (flat, false)
  in
  let* fuel, step_budget =
    admit t ~machines ~w ~flat ~fuel ~step_budget
  in
  Ok
    { ad_workload = w; ad_flat = flat; ad_cached = cached;
      ad_specs = List.map (fun m -> Harness.spec m) machines;
      ad_fuel = fuel; ad_step_budget = step_budget;
      ad_mem_words = a.a_mem_words; ad_deadline_ms = deadline_ms;
      ad_inject = inject }

(* ------------------------------------------------------------------ *)
(* Execution (runs on a pool domain) *)

let conn_job_done conn =
  Mutex.lock conn.c_pmutex;
  conn.c_pending <- conn.c_pending - 1;
  if conn.c_pending = 0 then Condition.broadcast conn.c_done;
  Mutex.unlock conn.c_pmutex

let handle_analyze t conn ~id ~started (a : Protocol.analyze) =
  match prepare t a with
  | Error err -> respond_err t conn (Some id) err
  | Ok ad ->
    let job () =
      let payload =
        (* total by construction (Request.exec is guarded), but the
           dispatcher must survive even a bug here: crash-only means
           the barrier is belt and braces *)
        try
          match
            (* The request already occupies a pool slot; handing it the
               pool lets segmented analysis fan its decode/stitch tasks
               out to idle domains (nested submissions are safe — pool
               awaiters help drain the queue). *)
            Harness.Request.exec ~obs:t.obs ~flat:ad.ad_flat
              ?fuel:ad.ad_fuel ?step_budget:ad.ad_step_budget
              ?mem_words:ad.ad_mem_words ?deadline_ms:ad.ad_deadline_ms
              ?inject:ad.ad_inject ~pool:t.pool
              ~segment_steps:t.cfg.segment_steps ~specs:ad.ad_specs
              ad.ad_workload
          with
          | Ok reply ->
            Obs.Metrics.incr t.m_ok;
            Protocol.ok_analyze ~id ~cached:ad.ad_cached reply
          | Error err ->
            count_error t err;
            Protocol.error_response ~id:(Some id) err
        with e ->
          let err =
            Pipeline_error.v
              ~workload:ad.ad_workload.Workloads.Registry.name Execute
              (Internal (Printexc.to_string e))
          in
          count_error t err;
          Protocol.error_response ~id:(Some id) err
      in
      Obs.Metrics.observe t.m_latency
        (int_of_float (now_ms () -. started));
      respond t conn payload;
      Atomic.decr t.in_flight;
      Obs.Metrics.set t.m_in_flight (Atomic.get t.in_flight);
      conn_job_done conn
    in
    let workload = Some ad.ad_workload.Workloads.Registry.name in
    if draining t then
      shed t conn ~id ~workload ~depth:(Rqueue.length t.queue)
    else begin
      (* claim the reply before the push: the job may finish on another
         domain before this thread runs again *)
      Mutex.lock conn.c_pmutex;
      conn.c_pending <- conn.c_pending + 1;
      Mutex.unlock conn.c_pmutex;
      Atomic.incr t.in_flight;
      match Rqueue.push t.queue job with
      | `Ok depth ->
        Obs.Metrics.set t.m_queue_depth depth;
        Obs.Metrics.set t.m_in_flight (Atomic.get t.in_flight)
      | (`Overloaded _ | `Closed) as r ->
        Atomic.decr t.in_flight;
        conn_job_done conn;
        let depth =
          match r with
          | `Overloaded d -> d
          | `Closed -> Rqueue.length t.queue
        in
        shed t conn ~id ~workload ~depth
    end

(* ------------------------------------------------------------------ *)
(* Per-frame processing (connection thread) *)

let handle_stats t conn ~id =
  let cs = Cache.stats t.cache in
  Mutex.lock t.conns_mutex;
  let connections = List.length t.conns in
  Mutex.unlock t.conns_mutex;
  Obs.Metrics.incr t.m_ok;
  respond t conn
    (Protocol.ok_stats ~id ~queue_depth:(Rqueue.length t.queue)
       ~queue_limit:t.cfg.queue_limit ~in_flight:(Atomic.get t.in_flight)
       ~connections
       ~requests:(Obs.Metrics.counter_value t.m_requests)
       ~shed:(Obs.Metrics.counter_value t.m_shed) ~cache_hits:cs.hits
       ~cache_misses:cs.misses ~draining:(draining t))

let handle_metrics t conn ~id =
  (* refresh the live gauges right before the scrape; pool gauges go
     through the one named registration in Obs.Probe *)
  Obs.Metrics.set t.m_queue_depth (Rqueue.length t.queue);
  Obs.Metrics.set t.m_in_flight (Atomic.get t.in_flight);
  Obs.Probe.pool_stats t.cfg.registry (Stdx.Pool.stats t.pool);
  let buf = Buffer.create 4096 in
  Obs.Export.prometheus buf (Obs.Metrics.snapshot t.cfg.registry);
  Obs.Metrics.incr t.m_ok;
  respond t conn (Protocol.ok_metrics ~id ~body:(Buffer.contents buf))

let invalid stage msg = Pipeline_error.v stage (Invalid_request msg)

(* Returns [false] when the connection must close (frame desync). *)
let process t conn payload =
  Obs.Metrics.incr t.m_requests;
  let started = now_ms () in
  match Jsonx.parse payload with
  | Error msg ->
    respond_err t conn None
      (invalid Lookup ("malformed payload: " ^ msg));
    true
  | Ok json -> (
    let rid = Protocol.request_id json in
    match Protocol.decode_request json with
    | Error msg ->
      respond_err t conn rid (invalid Lookup msg);
      true
    | Ok req ->
      let id =
        match req with
        | Ping id | Stats id | Metrics id | Analyze (id, _) -> id
      in
      if Hashtbl.mem conn.c_ids id then begin
        respond_err t conn (Some id)
          (invalid Lookup (Printf.sprintf "duplicate request id %d" id));
        true
      end
      else begin
        Hashtbl.add conn.c_ids id ();
        (match req with
        | Ping id ->
          Obs.Metrics.incr t.m_ok;
          respond t conn (Protocol.ok_ping ~id)
        | Stats id -> handle_stats t conn ~id
        | Metrics id -> handle_metrics t conn ~id
        | Analyze (id, a) -> handle_analyze t conn ~id ~started a);
        true
      end)

let deregister t conn =
  Mutex.lock t.conns_mutex;
  t.conns <- List.filter (fun (c, _) -> c != conn) t.conns;
  Obs.Metrics.set t.m_connections (List.length t.conns);
  Mutex.unlock t.conns_mutex

let conn_loop t conn =
  let rec loop () =
    match Protocol.read_frame conn.c_fd with
    | Error (Closed | Truncated | Io _) -> ()
    | Error (Too_large n) ->
      Obs.Metrics.incr t.m_requests;
      respond_err t conn None
        (invalid Lookup
           (Printf.sprintf "frame of %d bytes exceeds max %d" n
              Protocol.max_frame))
      (* the stream position is unknowable past an oversized header:
         close rather than misparse every later frame *)
    | Ok payload ->
      t.last_activity <- Unix.gettimeofday ();
      if process t conn payload then loop ()
  in
  loop ();
  (* every owed reply lands before the fd is recycled *)
  Mutex.lock conn.c_pmutex;
  while conn.c_pending > 0 do
    Condition.wait conn.c_done conn.c_pmutex
  done;
  Mutex.unlock conn.c_pmutex;
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  deregister t conn

let spawn_conn t fd =
  let conn =
    { c_fd = fd; c_wmutex = Mutex.create (); c_pmutex = Mutex.create ();
      c_done = Condition.create (); c_pending = 0;
      c_ids = Hashtbl.create 16 }
  in
  Mutex.lock t.conns_mutex;
  let th = Thread.create (fun () -> conn_loop t conn) () in
  t.conns <- (conn, th) :: t.conns;
  Obs.Metrics.set t.m_connections (List.length t.conns);
  Mutex.unlock t.conns_mutex

(* ------------------------------------------------------------------ *)
(* Dispatcher: drain the bounded queue in batches onto the domain
   pool.  [map_list] is a barrier per batch, which is fine: batches
   are at most [jobs] wide, so a full pool is busy end to end and a
   straggler holds back at most one batch boundary (requests carry
   their own deadlines). *)

let rec dispatch t =
  match Rqueue.pop t.queue with
  | None -> ()
  | Some first ->
    let rec take acc n =
      if n = 0 then List.rev acc
      else
        match Rqueue.pop_opt t.queue with
        | Some j -> take (j :: acc) (n - 1)
        | None -> List.rev acc
    in
    let batch = take [ first ] (t.cfg.jobs - 1) in
    Obs.Metrics.set t.m_queue_depth (Rqueue.length t.queue);
    ignore (Stdx.Pool.map_list t.pool (fun j -> j ()) batch);
    dispatch t

(* ------------------------------------------------------------------ *)
(* Acceptor + lifecycle *)

let idle_expired t =
  match t.cfg.idle_timeout_ms with
  | None -> false
  | Some ms ->
    Mutex.lock t.conns_mutex;
    let no_conns = t.conns = [] in
    Mutex.unlock t.conns_mutex;
    no_conns
    && Rqueue.length t.queue = 0
    && Atomic.get t.in_flight = 0
    && (Unix.gettimeofday () -. t.last_activity) *. 1000.
       > float_of_int ms

let drain_wake_pipe t =
  let buf = Bytes.create 64 in
  match Unix.read t.wake_r buf 0 64 with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let teardown t =
  (try Unix.close t.listen_unix with Unix.Unix_error _ -> ());
  Option.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listen_tcp;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  (* queued work still drains; new pushes come back [`Closed] and are
     answered [Overloaded] *)
  Rqueue.close t.queue;
  Option.iter Thread.join t.dispatcher_thread;
  (* all jobs are done; break the readers and collect the threads *)
  Mutex.lock t.conns_mutex;
  let conns = t.conns in
  Mutex.unlock t.conns_mutex;
  List.iter
    (fun (c, _) ->
      try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun (_, th) -> Thread.join th) conns;
  Stdx.Pool.shutdown t.pool;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  Mutex.lock t.stopped_mutex;
  t.stopped <- true;
  Condition.broadcast t.stopped_cond;
  Mutex.unlock t.stopped_mutex

let acceptor t =
  let listeners =
    t.listen_unix :: Option.to_list t.listen_tcp
  in
  let rec loop () =
    if draining t then ()
    else begin
      (match Unix.select (t.wake_r :: listeners) [] [] 0.25 with
      | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd == t.wake_r then drain_wake_pipe t
            else
              match Unix.accept fd with
              | cfd, _ ->
                t.last_activity <- Unix.gettimeofday ();
                spawn_conn t cfd
              | exception Unix.Unix_error _ -> ())
          ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if idle_expired t then Atomic.set t.flag_draining true;
      loop ()
    end
  in
  loop ();
  teardown t

let drain t =
  if not (Atomic.exchange t.flag_draining true) then
    try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let wait t =
  Mutex.lock t.stopped_mutex;
  while not t.stopped do
    Condition.wait t.stopped_cond t.stopped_mutex
  done;
  Mutex.unlock t.stopped_mutex;
  Option.iter Thread.join t.acceptor_thread

let stop t =
  drain t;
  wait t

let start cfg =
  (* a dead peer mid-write must be an [EPIPE] result, not process
     death *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match
    let u = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
       Unix.bind u (Unix.ADDR_UNIX cfg.socket_path);
       Unix.listen u 64
     with e ->
       (try Unix.close u with Unix.Unix_error _ -> ());
       raise e);
    let tcp =
      Option.map
        (fun (host, port) ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          try
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
            Unix.bind fd
              (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
            Unix.listen fd 64;
            fd
          with e ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            (try Unix.close u with Unix.Unix_error _ -> ());
            raise e)
        cfg.tcp
    in
    let wake_r, wake_w = Unix.pipe () in
    let r = cfg.registry in
    let c name help = Obs.Metrics.counter r ~help name in
    let g name help = Obs.Metrics.gauge r ~help name in
    let t =
      { cfg;
        listen_unix = u;
        listen_tcp = tcp;
        wake_r;
        wake_w;
        queue = Rqueue.create ~limit:cfg.queue_limit;
        pool = Stdx.Pool.create ~jobs:cfg.jobs ();
        cache = Cache.create ~capacity:cfg.cache_capacity;
        obs = Obs.Ctx.create ~registry:r ();
        flag_draining = Atomic.make false;
        in_flight = Atomic.make 0;
        conns_mutex = Mutex.create ();
        conns = [];
        acceptor_thread = None;
        dispatcher_thread = None;
        last_activity = Unix.gettimeofday ();
        stopped_mutex = Mutex.create ();
        stopped_cond = Condition.create ();
        stopped = false;
        m_requests = c "serve_requests_total" "framed requests received";
        m_ok = c "serve_responses_ok_total" "successful responses";
        m_errors = c "serve_responses_error_total" "typed error responses";
        m_shed = c "serve_shed_total" "requests shed by backpressure";
        m_rejected =
          c "serve_admission_rejected_total"
            "requests refused by the static estimate";
        m_deadline =
          c "serve_deadline_exceeded_total"
            "requests that outran their wall-clock deadline";
        m_queue_depth = g "serve_queue_depth" "request queue depth (live)";
        m_in_flight = g "serve_in_flight" "requests executing (live)";
        m_connections = g "serve_connections" "open connections (live)";
        m_latency =
          Obs.Metrics.histogram r
            ~buckets:[| 1; 5; 10; 25; 50; 100; 250; 500; 1000; 5000 |]
            ~help:"request latency (ms)" "serve_request_ms" }
    in
    Stdx.Pool.set_probe t.pool (Some (Obs.Probe.pool r));
    t.dispatcher_thread <- Some (Thread.create dispatch t);
    t.acceptor_thread <- Some (Thread.create acceptor t);
    t
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, fn, arg) ->
    Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))
