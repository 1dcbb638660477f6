(* The benchmark driver.  One invocation runs one workload, either timed
   (end-to-end metrics) or traced (per-layer metrics), and prints its
   result as the last line of standard output.  See README.md. *)

open Perfbench

let paper = [ "base"; "cd"; "cd-mf"; "sp"; "sp-cd"; "sp-cd-mf"; "oracle" ]

(* The composed lattice points the serve mix sends, keyed by the short
   names of their per-layer metrics. *)
let composed =
  [ ("window256", "sp-cd-mf,window=256"); ("fetch4", "sp-cd-mf,fetch=4");
    ("vp", "sp-cd-mf,vp") ]

let composed_specs = List.map snd composed

(* Fuel is sized so an op takes about 100 ms on the reference host. *)
let sweep_fuel = 200_000
let split_fuel = 400_000
let serve_fuel = 100_000

(* The daemon's admission ceiling: at least every fuel in the mix, so the
   estimator prices every request and clamps none. *)
let admit_ceiling = 4 * split_fuel

let programs = Array.of_list Workloads.Registry.all

let machines specs =
  match Ilp.Machine.of_specs specs with
  | Ok ms -> ms
  | Error e -> failwith (Pipeline_error.to_string e)

let now_ns = Refclock.now_ns
let ms_since t0 = Refclock.ms_between t0 (now_ns ())

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* ------------------------------------------------------------------ *)
(* Op accounting *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let record what = function
  | Ok () -> tally.attempted <- tally.attempted + 1
  | Error msg ->
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    if tally.failed <= 5 then Printf.eprintf "perfbench: %s failed: %s\n%!" what msg

(* Failures of the run itself (daemon lifecycle), not of one op. *)
let run_errors = ref []
let run_error msg =
  Printf.eprintf "perfbench: %s\n%!" msg;
  run_errors := msg :: !run_errors

let row_of_result (r : Ilp.Analyze.result) =
  { Expected.counted = r.counted; cycles = r.cycles;
    dyn_branches = r.dyn_branches; mispredicts = r.mispredicts;
    completeness = Pipeline_error.completeness_tag r.completeness; ret = "-" }

let check_rows exp ~program ~fuel ~specs ?ret rows =
  if List.length rows <> List.length specs then
    Error
      (Printf.sprintf "%s: %d results for %d specs" program (List.length rows)
         (List.length specs))
  else
    List.fold_left2
      (fun acc spec row ->
        match acc with
        | Error _ -> acc
        | Ok () -> Expected.check exp ~program ~fuel ~spec ?ret row)
      (Ok ()) specs rows

(* ------------------------------------------------------------------ *)
(* In-process ops: one registry program through Harness.Run.exec *)

type inproc = {
  jobs : int;
  fuel : int;
  specs : string list;
  cfg : Harness.Run.config;
}

let inproc ~jobs ~fuel specs =
  let segment_steps = if jobs > 1 then `Auto else `Off in
  { jobs; fuel; specs;
    cfg =
      Harness.Run.config ~jobs ~fuel ~segment_steps
        (List.map Harness.spec (machines specs)) }

let exec_op p w =
  match Harness.Run.exec p.cfg [ w ] with
  | Ok [ { Harness.Run.it_outcome = Ok results; _ } ] -> Ok results
  | Ok [ { Harness.Run.it_outcome = Error e; _ } ] ->
    Error (Pipeline_error.to_string e)
  | Ok _ -> Error "unexpected item count"
  | Error e -> Error (Pipeline_error.to_string e)

let check_op exp p (w : Workloads.Registry.t) = function
  | Error e -> Error e
  | Ok results ->
    check_rows exp ~program:w.name ~fuel:p.fuel ~specs:p.specs
      (List.map row_of_result results)

(* An endless sequence: [block] shuffled by [st], then shuffled again. *)
let blocks st block =
  let pending = ref [] in
  fun () ->
    if !pending = [] then begin
      let a = Array.of_list block in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      pending := Array.to_list a
    end;
    match !pending with
    | x :: rest -> pending := rest; x
    | [] -> assert false

(* Op order: rounds of the ten programs, each round in seeded order. *)
let schedule seed =
  blocks (Random.State.make [| seed; 0x9e37 |]) (Array.to_list programs)

(* ------------------------------------------------------------------ *)
(* The serve daemon and its clients *)

let run_dir = ".bench_run"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

let socket_counter = ref 0

(* Relative, so it stays short and inside the checkout. *)
let fresh_socket () =
  incr socket_counter;
  Printf.sprintf "%s/serve-%d-%d.sock" run_dir (Unix.getpid ())
    !socket_counter

type daemon = { pid : int; sock : string; mutable live : bool }

let daemons : daemon list ref = ref []

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* A daemon left behind by an exception is killed and reaped at exit. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          if d.live then begin
            (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (waitpid d.pid);
            d.live <- false;
            try Sys.remove d.sock with Sys_error _ -> ()
          end)
        !daemons)

let spawn_daemon bin =
  ensure_run_dir ();
  let sock = fresh_socket () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process bin
      [| bin; "serve"; "--socket"; sock; "--jobs"; "2"; "--admit";
         Printf.sprintf "budget:%d" admit_ceiling; "--cache"; "1024" |]
      devnull Unix.stderr Unix.stderr
  in
  Unix.close devnull;
  let d = { pid; sock; live = true } in
  daemons := d :: !daemons;
  d

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error _ -> Unix.close fd; None

let exchange fd payload =
  match Serve.Protocol.write_frame fd payload with
  | Error e -> Error ("write: " ^ e)
  | Ok () -> (
    match Serve.Protocol.read_frame fd with
    | Ok body -> Ok body
    | Error Serve.Protocol.Closed | Error Serve.Protocol.Truncated ->
      Error "connection closed"
    | Error (Serve.Protocol.Too_large n) -> Error (Printf.sprintf "frame %d" n)
    | Error (Serve.Protocol.Io e) -> Error e)

let next_id = ref 0
let fresh_id () = incr next_id; !next_id

let parse_ok body =
  match Serve.Jsonx.parse body with
  | Error e -> Error ("unparseable reply: " ^ e)
  | Ok j -> (
    match Option.bind (Serve.Jsonx.member "ok" j) Serve.Jsonx.to_bool with
    | Some true -> Ok j
    | _ -> Error ("not ok: " ^ body))

let call fd payload = Result.bind (exchange fd payload) parse_ok

(* Connect and wait until the daemon answers a ping. *)
let wait_ready d =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    if Unix.gettimeofday () > deadline then
      failwith "serve daemon did not answer ping within 20 s"
    else
      match connect d.sock with
      | None -> Unix.sleepf 0.002; go ()
      | Some fd -> (
        match call fd (Serve.Protocol.ping_request ~id:(fresh_id ())) with
        | Ok _ -> fd
        | Error _ -> Unix.close fd; Unix.sleepf 0.002; go ())
  in
  go ()

let int_field name j = Option.bind (Serve.Jsonx.member name j) Serve.Jsonx.to_int

type stats = { shed : int; hits : int; misses : int }

let stats fd =
  match call fd (Serve.Protocol.stats_request ~id:(fresh_id ())) with
  | Error e -> failwith ("stats: " ^ e)
  | Ok j ->
    let f n = Option.value ~default:0 (int_field n j) in
    { shed = f "shed"; hits = f "cache_hits"; misses = f "cache_misses" }

(* The Prometheus text the [metrics] op returns, as name -> value. *)
let metrics fd =
  match call fd (Serve.Protocol.metrics_request ~id:(fresh_id ())) with
  | Error e -> failwith ("metrics: " ^ e)
  | Ok j ->
    let body =
      Option.value ~default:""
        (Option.bind (Serve.Jsonx.member "metrics" j) Serve.Jsonx.to_str)
    in
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun line ->
        if line <> "" && line.[0] <> '#' then
          match String.rindex_opt line ' ' with
          | Some i -> (
            let name = String.sub line 0 i in
            match
              float_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
            with
            | Some v -> Hashtbl.replace tbl name v
            | None -> ())
          | None -> ())
      (String.split_on_char '\n' body);
    tbl

let metric tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* A [Vm*] line of /proc/<pid>/status in MiB ([pid = 0]: this process). *)
let proc_mb ~key pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let prefix = key ^ ":" and n = String.length key + 1 in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when String.length l > n && String.sub l 0 n = prefix ->
        Scanf.sscanf (String.sub l n (String.length l - n)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> find ()
    in
    let v = find () in
    close_in ic;
    v

(* SIGTERM, then require exit 0 and an unlinked socket. *)
let stop_daemon d fds =
  List.iter Unix.close fds;
  Unix.kill d.pid Sys.sigterm;
  let st = waitpid d.pid in
  d.live <- false;
  (match st with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> run_error (Printf.sprintf "daemon exited %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    run_error (Printf.sprintf "daemon killed by signal %d" s));
  if Sys.file_exists d.sock then begin
    run_error "daemon left its socket behind";
    try Sys.remove d.sock with Sys_error _ -> ()
  end

(* One request of the serve mix. *)
type req = {
  program : Workloads.Registry.t;
  fuel : int;
  specs : string list;
  payload : string;
}

let analyze_req ?source ~fuel ~specs (w : Workloads.Registry.t) =
  let a =
    match source with
    | Some source -> Serve.Protocol.analyze ~source ~machines:specs ~fuel ()
    | None -> Serve.Protocol.analyze ~workload:w.name ~machines:specs ~fuel ()
  in
  { program = w; fuel; specs;
    payload = Serve.Protocol.analyze_request ~id:(fresh_id ()) a }

(* The seeded request sequence, as rounds of two requests of the same
   program and kind, one per client.  A block of 40 rounds holds each
   registry program twice as a cache hit (by name), once as a cache miss
   (its source with a fresh comment appended, so the results are known)
   and once under the composed lattice points, shuffled by the seed. *)
let block_rounds = 4 * Array.length programs

let serve_mix seed =
  let next =
    blocks
      (Random.State.make [| seed; 0x5e7e |])
      (List.concat_map
         (fun w -> [ (w, `Hit); (w, `Hit); (w, `Miss); (w, `Composed) ])
         (Array.to_list programs))
  in
  let k = ref 0 in
  let make (w, kind) =
    match kind with
    | `Hit -> analyze_req ~fuel:serve_fuel ~specs:paper w
    | `Miss ->
      incr k;
      let source =
        Printf.sprintf "%s\n// perfbench %d %d\n" w.Workloads.Registry.source
          seed !k
      in
      analyze_req ~source ~fuel:serve_fuel ~specs:paper w
    | `Composed -> analyze_req ~fuel:serve_fuel ~specs:composed_specs w
  in
  fun () ->
    let x = next () in
    [ make x; make x ]

let str_field name j = Option.bind (Serve.Jsonx.member name j) Serve.Jsonx.to_str

let check_reply exp r j =
  let ret =
    match Serve.Jsonx.member "status" j with
    | Some s -> (
      match (str_field "kind" s, int_field "value" s) with
      | Some "halted", Some v -> string_of_int v
      | Some "out_of_fuel", _ -> "-"
      | _ -> Serve.Jsonx.to_string s)
    | None -> "no status"
  in
  match Option.bind (Serve.Jsonx.member "results" j) Serve.Jsonx.to_list with
  | None -> Error "reply without results"
  | Some results ->
    let row x =
      let i n = Option.value ~default:(-1) (int_field n x) in
      { Expected.counted = i "counted"; cycles = i "cycles";
        dyn_branches = i "dyn_branches"; mispredicts = i "mispredicts";
        completeness = Option.value ~default:"?" (str_field "completeness" x);
        ret = "-" }
    in
    check_rows exp ~program:r.program.name ~fuel:r.fuel ~specs:r.specs ~ret
      (List.map row results)

type reply = { body : string; rtt_ms : float; result : (unit, string) result }

let send exp fd r =
  let t0 = now_ns () in
  let res = exchange fd r.payload in
  let rtt_ms = ms_since t0 in
  match res with
  | Error e -> { body = ""; rtt_ms; result = Error e }
  | Ok body ->
    { body; rtt_ms; result = Result.bind (parse_ok body) (check_reply exp r) }

(* One closed-loop round: each client sends one request and waits for
   its reply; the two run concurrently. *)
let round exp fds reqs =
  match (fds, reqs) with
  | [ fa; fb ], [ ra; rb ] ->
    let slot = ref None in
    let th = Thread.create (fun () -> slot := Some (send exp fb rb)) () in
    let a = send exp fa ra in
    Thread.join th;
    [ a; Option.get !slot ]
  | _ -> invalid_arg "round: two connections, two requests"

let rec pairs = function
  | a :: b :: rest -> [ a; b ] :: pairs rest
  | _ -> []

(* Spawn to first ping, then a warm-up pass that fills the compile cache
   with every registry program. *)
let serve_setup exp bin =
  let warm =
    Array.to_list programs
    |> List.map (analyze_req ~fuel:serve_fuel ~specs:paper)
  in
  let c = Refclock.chain ~domains:2 in
  let (d, fds), _, scaled =
    Refclock.timed c (fun () ->
        let d = spawn_daemon bin in
        let fa = wait_ready d in
        let fds = [ fa; Option.get (connect d.sock) ] in
        List.iter
          (fun rs ->
            List.iter2
              (fun r rep -> record ("warm-up " ^ r.program.name) rep.result)
              rs (round exp fds rs))
          (pairs warm);
        (d, fds))
  in
  (d, fds, scaled)

(* ------------------------------------------------------------------ *)
(* Set-up *)

let load_expected path =
  match Expected.load path with
  | Ok t -> t
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* The first three registry programs, checked like any op: a process's
   first op runs several times the major collections of later ones. *)
let warm_up exp p =
  for i = 0 to 2 do
    let w = programs.(i) in
    record ("warm-up " ^ w.name) (check_op exp p w (exec_op p w))
  done

(* An in-process set-up, as a fresh process pays it: load the expected
   table, then the warm-up. *)
let inproc_setup ~expected p =
  let c = Refclock.chain ~domains:p.jobs in
  let exp, _, scaled =
    Refclock.timed c (fun () ->
        let exp = load_expected expected in
        warm_up exp p;
        exp)
  in
  (exp, scaled)

(* Run this executable with [args]; its standard output, line by line. *)
let run_self args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  match waitpid pid with
  | Unix.WEXITED 0 -> lines
  | _ -> failwith (String.concat " " ("child failed:" :: args))

(* Further set-ups, each in a fresh process; their warm-up ops count
   like this process's own. *)
let setup_probes ~workload ~expected n =
  List.init n (fun _ ->
      match
        run_self
          [ "--setup-probe"; "--workload"; workload; "--expected"; expected ]
      with
      | [ line ] ->
        Scanf.sscanf line "%f %d %d" (fun ms attempted failed ->
            tally.attempted <- tally.attempted + attempted;
            tally.failed <- tally.failed + failed;
            ms)
      | _ -> failwith "set-up probe: bad output")

(* ------------------------------------------------------------------ *)
(* Result line *)

let metrics_out : (string * (float * string)) list ref = ref []
let put name unit v = metrics_out := (name, (v, unit)) :: !metrics_out

let print_result () =
  let j =
    Serve.Jsonx.Obj
      [ ("correct", Serve.Jsonx.Bool (tally.failed = 0 && !run_errors = []));
        ("attempted", Serve.Jsonx.Int tally.attempted);
        ("failed", Serve.Jsonx.Int tally.failed);
        ( "metrics",
          Serve.Jsonx.Obj
            (List.rev_map
               (fun (n, (v, u)) ->
                 ( n,
                   Serve.Jsonx.Obj
                     [ ("value", Serve.Jsonx.Float v); ("unit", Serve.Jsonx.Str u) ]
                 ))
               !metrics_out) ) ]
  in
  print_endline (Serve.Jsonx.to_string j)

let latency_metrics ~setup_ms ~lat ~busy_ms =
  let n = Array.length lat in
  if n = 0 then failwith "no op completed";
  put "setup_s" "s" (setup_ms /. 1000.0);
  put "p50_ms" "ms" (Refclock.percentile 50.0 lat);
  put "p90_ms" "ms" (Refclock.percentile 90.0 lat);
  put "ops_per_s" "1/s" (float_of_int n /. (busy_ms /. 1000.0));
  Printf.eprintf "perfbench: %d timed ops\n%!" n

(* ------------------------------------------------------------------ *)
(* Timed runs *)

let timed_inproc ~workload ~expected ~seconds ~seed p =
  let probes = setup_probes ~workload ~expected 6 in
  let exp, setup_ms = inproc_setup ~expected p in
  let next = schedule seed in
  let c = Refclock.chain ~domains:p.jobs in
  let lat = ref [] and rss = ref [] in
  let stop = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  (* Whole rounds only, so every program is timed equally often. *)
  while Int64.compare (now_ns ()) stop < 0 do
    for _ = 1 to Array.length programs do
      let w = next () in
      (* Each op starts from a collected heap, so its time and memory do
         not depend on which op the seed put before it. *)
      Gc.full_major ();
      let res, _, scaled = Refclock.timed c (fun () -> exec_op p w) in
      rss := proc_mb ~key:"VmRSS" 0 :: !rss;
      record w.name (check_op exp p w res);
      lat := scaled :: !lat
    done
  done;
  let lat = Array.of_list !lat in
  latency_metrics
    ~setup_ms:(Refclock.median (Array.of_list (setup_ms :: probes)))
    ~lat ~busy_ms:(Array.fold_left ( +. ) 0.0 lat);
  put "rss_p25_mb" "MB" (Refclock.percentile 25.0 (Array.of_list !rss))

(* Five cold daemon set-ups; the median is reported.  The last three
   daemons serve the timed rounds, a third of the run each, and the last
   runs on to the end of a block, so every program and kind is timed
   equally often. *)
let setups = 5
let lifetimes = 3

let timed_serve ~bin ~expected ~seconds ~seed =
  let exp = load_expected expected in
  let next = serve_mix seed in
  let setup_ms = ref [] and rss = ref [] in
  let lat = ref [] and busy = ref 0.0 and rounds = ref 0 in
  for _ = 1 to setups - lifetimes do
    let d, fds, ms = serve_setup exp bin in
    setup_ms := ms :: !setup_ms;
    stop_daemon d fds
  done;
  for life = 1 to lifetimes do
    let d, fds, ms = serve_setup exp bin in
    setup_ms := ms :: !setup_ms;
    let c = Refclock.chain ~domains:2 in
    let span_ns = seconds *. 1e9 /. float_of_int lifetimes in
    let stop = Int64.add (now_ns ()) (Int64.of_float span_ns) in
    while
      Int64.compare (now_ns ()) stop < 0
      || (life = lifetimes && !rounds mod block_rounds <> 0)
    do
      let reqs = next () in
      incr rounds;
      let replies, raw, scaled = Refclock.timed c (fun () -> round exp fds reqs) in
      let f = scaled /. raw in
      rss := proc_mb ~key:"VmRSS" d.pid :: !rss;
      busy := !busy +. scaled;
      List.iter2
        (fun r rep ->
          record r.program.name rep.result;
          lat := (rep.rtt_ms *. f) :: !lat)
        reqs replies
    done;
    let st = stats (List.hd fds) in
    if st.shed <> 0 then
      run_error (Printf.sprintf "daemon shed %d requests" st.shed);
    stop_daemon d fds
  done;
  latency_metrics
    ~setup_ms:(Refclock.median (Array.of_list !setup_ms))
    ~lat:(Array.of_list !lat) ~busy_ms:!busy;
  put "rss_p25_mb" "MB" (Refclock.percentile 25.0 (Array.of_list !rss))

(* ------------------------------------------------------------------ *)
(* The traced run: spans around the driver's own calls into each layer *)

(* A per-layer figure is a summed numerator over a summed denominator:
   time over units for rates, a value over samples for means. *)
let sums : (string, float * float) Hashtbl.t = Hashtbl.create 64

let add name num den =
  let a, b = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt sums name) in
  Hashtbl.replace sums name (a +. num, b +. den)

let ratio name =
  match Hashtbl.find_opt sums name with
  | Some (a, b) when b > 0.0 -> a /. b
  | _ -> 0.0

(* Words allocated by the calling domain: (minor, major, total). *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  (minor, major, minor +. major -. promoted)

let alloc_words f =
  let _, _, w0 = allocated () in
  let r = f () in
  let _, _, w1 = allocated () in
  (r, w1 -. w0)

(* The counts the exact-count check compares, one record per op. *)
type counts = {
  c_program : string;
  c_steps : int;
  c_state_entries : int;
  c_segments : int;
  c_pool_tasks : int;
  c_minor_words : float;
  c_major_words : float;
  c_major_collections : int;
}

let count_line c =
  Printf.sprintf
    "%s vm.steps=%d analyze.state_entries=%d segmented.segments=%d \
     pool.tasks=%d gc.minor_words=%.0f gc.major_words=%.0f \
     gc.major_collections=%d"
    c.c_program c.c_steps c.c_state_entries c.c_segments c.c_pool_tasks
    c.c_minor_words c.c_major_words c.c_major_collections

let raw_ops = ref []
let kernels = ref []

let ret_of_status = function
  | Vm.Exec.Halted v -> string_of_int v
  | Vm.Exec.Out_of_fuel -> "-"
  | Vm.Exec.Fault f -> Pipeline_error.fault_kind_name f.f_kind

(* One program: the untraced op, the same pipeline rebuilt from the
   public calls Harness.Run.exec makes (traced), then per-layer probes
   on that pipeline's trace. *)
let trace_program exp sp p ~op (w : Workloads.Registry.t) =
  (* Both the untraced op and its traced twin start from a collected
     heap, so neither pays for the other's garbage. *)
  Gc.full_major ();
  let k0 = Refclock.kernel_ms ~domains:p.jobs in
  let e0 = Harness.Counters.state_entries () in
  let minor0, major0, _ = allocated () in
  let majors0 = (Gc.quick_stat ()).major_collections in
  let untraced, op_ms = time_ms (fun () -> exec_op p w) in
  let minor1, major1, _ = allocated () in
  let majors1 = (Gc.quick_stat ()).major_collections in
  let state_entries = Harness.Counters.state_entries () - e0 in
  let ms = machines p.specs in
  let span name f = Spans.with_span sp name f in
  Spans.set_op sp op;
  (* The driver-owned two-domain pool lives only while segmented work
     runs: an idle extra domain slows every minor collection of a
     one-domain pipeline. *)
  let pool_opt = if p.jobs > 1 then Some (Stdx.Pool.create ~jobs:2 ()) else None in
  Gc.full_major ();
  let flat, info, outcome, configs, results, compile_words =
    span "op" (fun () ->
        let flat, compile_words =
          span "compile" (fun () ->
              alloc_words (fun () -> Workloads.Registry.compile w))
        in
        let info =
          span "cfg.info" (fun () -> Ilp.Program_info.analyze_flat flat)
        in
        let profile =
          Predict.Predictor.Profile.builder ~n_static:info.n
            ~is_cond:(Ilp.Program_info.is_cond_branch info)
        in
        let outcome =
          span "vm.execute" (fun () ->
              Vm.Exec.run ~fuel:p.fuel
                ~sink:(Predict.Predictor.Profile.sink profile) flat)
        in
        let predictor = Predict.Predictor.Profile.predictor profile in
        let configs =
          List.map
            (fun m ->
              Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words m
                predictor)
            ms
        in
        let completeness = Vm.Exec.completeness_of outcome in
        let trace = outcome.trace in
        let results =
          if p.jobs = 1 then
            span "analyze.run_many" (fun () ->
                Ilp.Analyze.run_many ~completeness configs info trace)
          else
            span "segmented.run" (fun () ->
                (Ilp.Segmented.run ?pool:pool_opt ~completeness
                   ~segment_steps:
                     (Ilp.Segmented.auto_steps
                        ~trace_len:(Vm.Trace.length trace) ~jobs:p.jobs)
                   configs info trace)
                  .results)
        in
        (flat, info, outcome, configs, results, compile_words))
  in
  let completeness = Vm.Exec.completeness_of outcome in
  record (w.name ^ " traced")
    (check_rows exp ~program:w.name ~fuel:p.fuel ~specs:p.specs
       ~ret:(ret_of_status outcome.status)
       (List.map row_of_result results));
  record (w.name ^ " untraced")
    (match untraced with
    | Ok r when r <> results -> Error "traced and untraced results differ"
    | r -> check_op exp p w r);
  let trace = outcome.trace in
  let n = float_of_int (Vm.Trace.length trace) in
  let steps = float_of_int outcome.steps in
  (* vm: recorded, streamed, and with the value-prediction hook *)
  let (o_rec, vm_ms), vm_words =
    alloc_words (fun () -> time_ms (fun () -> Vm.Exec.run ~fuel:p.fuel flat))
  in
  let trace_bytes =
    float_of_int (Obj.reachable_words (Obj.repr o_rec.trace) * (Sys.word_size / 8))
  in
  (* The value hook's cost is a difference of two runs, each the
     fastest of three: every run allocates and zero-fills the VM's
     32 MiB memory, and whether those pages are fresh varies. *)
  let fastest f =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ -> snd (time_ms f)))
  in
  let stream_ms =
    fastest (fun () ->
        Vm.Exec.run ~fuel:p.fuel ~record:false ~sink:Vm.Trace.null_sink flat)
  in
  let vb =
    Predict.Predictor.Value.builder ~n_static:info.n ~defs:info.defs
  in
  let value_ms =
    fastest (fun () ->
        Vm.Exec.run ~fuel:p.fuel ~record:false ~sink:Vm.Trace.null_sink
          ~observe:(Predict.Predictor.Value.observe vb) flat)
  in
  let pb =
    Predict.Predictor.Profile.builder ~n_static:info.n
      ~is_cond:(Ilp.Program_info.is_cond_branch info)
  in
  let (), feed_ms =
    time_ms (fun () ->
        Vm.Trace.iter
          (fun ~pc ~aux -> Predict.Predictor.Profile.feed pb ~pc ~aux)
          trace)
  in
  (* ilp Analyze: each paper machine alone, the composed points, the
     seven-machine fan-out *)
  let one_ms =
    List.map2
      (fun spec cfg ->
        let _, t =
          time_ms (fun () -> Ilp.Analyze.run ~completeness cfg info trace)
        in
        ("analyze.ns_per_entry." ^ spec, t))
      p.specs configs
  in
  let predictor = Predict.Predictor.Profile.predictor pb in
  let value_table = Predict.Predictor.Value.table vb in
  let composed_ms =
    List.map
      (fun (short, spec) ->
        let cfg =
          Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words
            ~value_table (List.hd (machines [ spec ])) predictor
        in
        let _, t =
          time_ms (fun () -> Ilp.Analyze.run ~completeness cfg info trace)
        in
        ("analyze.ns_per_entry." ^ short, t))
      composed
  in
  let (many, fan_ms), fan_words =
    alloc_words (fun () ->
        time_ms (fun () ->
            Ilp.Analyze.run_many ~completeness configs info trace))
  in
  (* ilp Segmented: slice, decode, stitch, and the pooled run at one
     and two domains on the same trace *)
  let seg_steps =
    Ilp.Segmented.auto_steps ~trace_len:(Vm.Trace.length trace) ~jobs:2
  in
  let segs, slice_ms =
    time_ms (fun () -> Vm.Trace.segments ~steps:seg_steps trace)
  in
  let dcfg = List.hd configs in
  let bits = Array.map (fun s -> Array.make s.Vm.Trace.seg_len 0) segs in
  let (), decode_ms =
    time_ms (fun () ->
        Array.iteri
          (fun k (s : Vm.Trace.seg) ->
            let b = bits.(k) in
            for i = 0 to s.seg_len - 1 do
              b.(i) <-
                Ilp.Analyze.decoder dcfg info ~pc:s.seg_pcs.(i)
                  ~aux:s.seg_auxs.(i)
            done)
          segs)
  in
  let stitched, stitch_ms =
    time_ms (fun () ->
        List.map
          (fun cfg ->
            let st = Ilp.Analyze.State.create cfg info in
            Array.iteri
              (fun k (s : Vm.Trace.seg) ->
                let b = bits.(k) in
                for i = 0 to s.seg_len - 1 do
                  Ilp.Analyze.State.step_bits st ~pc:s.seg_pcs.(i)
                    ~aux:s.seg_auxs.(i) ~bits:b.(i)
                done)
              segs;
            Ilp.Analyze.State.finish ~completeness st)
          configs)
  in
  let pool =
    match pool_opt with Some q -> q | None -> Stdx.Pool.create ~jobs:2 ()
  in
  let pst0 = Stdx.Pool.stats pool in
  let o2, run2_ms =
    time_ms (fun () ->
        Ilp.Segmented.run ~pool ~completeness ~segment_steps:seg_steps
          configs info trace)
  in
  let pst1 = Stdx.Pool.stats pool in
  Stdx.Pool.shutdown pool;
  let o1, run1_ms =
    Stdx.Pool.with_pool ~jobs:1 (fun pool1 ->
        time_ms (fun () ->
            Ilp.Segmented.run ~pool:pool1 ~completeness
              ~segment_steps:seg_steps configs info trace))
  in
  record (w.name ^ " layer probes")
    (if many = results && stitched = results && o1.results = results
        && o2.results = results
     then Ok ()
     else Error "a layer probe disagrees with the pipeline");
  (* cfg *)
  let _, est_ms =
    time_ms (fun () ->
        Harness.estimate_flat ~machines:ms ~workload:w.name flat)
  in
  let k1 = Refclock.kernel_ms ~domains:p.jobs in
  (* every host time below is at reference speed *)
  let f = Refclock.nominal_ms /. ((k0 +. k1) /. 2.0) in
  kernels := k1 :: k0 :: !kernels;
  raw_ops := op_ms :: !raw_ops;
  let mine = List.filter (fun (s : Spans.span) -> s.op = op) (Spans.spans sp) in
  let span_ms name =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.name = name then acc +. (Spans.dur_ns s /. 1e6) else acc)
      0.0 mine
  in
  let root = List.find (fun (s : Spans.span) -> s.name = "op") mine in
  let traced_ms = Spans.dur_ns root /. 1e6 in
  let children_ms = traced_ms -. (Spans.self_ns mine root /. 1e6) in
  let ns_per name ms units = add name (ms *. 1e6 *. f) units in
  let mean name v = add name v 1.0 in
  mean "compile.ms" (span_ms "compile" *. f);
  mean "compile.alloc_kw" (compile_words /. 1000.0);
  mean "cfg.info_ms" (span_ms "cfg.info" *. f);
  mean "cfg.estimate_ms" (est_ms *. f);
  ns_per "vm.ns_per_step" vm_ms steps;
  ns_per "vm.stream_ns_per_step" stream_ms steps;
  ns_per "predict.value_ns_per_step" (value_ms -. stream_ms) steps;
  ns_per "predict.profile_ns_per_entry" feed_ms n;
  add "vm.alloc_words_per_step" vm_words steps;
  add "vm.trace_bytes_per_entry" trace_bytes n;
  List.iter (fun (name, t) -> ns_per name t n) (one_ms @ composed_ms);
  ns_per "analyze.fanout_ns_per_entry_machine" fan_ms
    (n *. float_of_int (List.length configs));
  add "analyze.alloc_words_per_entry" fan_words n;
  ns_per "segmented.slice_ns_per_entry" slice_ms n;
  ns_per "segmented.decode_ns_per_entry" decode_ms n;
  ns_per "segmented.stitch_ns_per_entry_machine" stitch_ms
    (n *. float_of_int (List.length configs));
  mean "segmented.run_ms" (run2_ms *. f);
  add "segmented.speedup" (run1_ms /. run2_ms) 1.0;
  mean "harness.glue_ms" ((op_ms -. children_ms) *. f);
  add "bench.trace_overhead" traced_ms op_ms;
  let minor = minor1 -. minor0 in
  let major = major1 -. major0 in
  let majors = majors1 - majors0 in
  mean "gc.minor_words_per_op" minor;
  mean "gc.major_words_per_op" major;
  mean "gc.major_collections_per_op" (float_of_int majors);
  let pool_tasks = pst1.completed - pst0.completed in
  add "pool.steal_attempts" (float_of_int (pst1.steal_attempts - pst0.steal_attempts)) 0.0;
  add "pool.steals" (float_of_int (pst1.steals - pst0.steals)) 0.0;
  add "pool.parks" (float_of_int (pst1.parks - pst0.parks)) 0.0;
  add "pool.wakes" (float_of_int (pst1.wakes - pst0.wakes)) 0.0;
  add "pool.tasks" (float_of_int pool_tasks) 0.0;
  add "vm.steps" steps 0.0;
  add "analyze.state_entries" (float_of_int state_entries) 0.0;
  add "segmented.segments" (float_of_int o2.segments) 0.0;
  { c_program = w.name; c_steps = outcome.steps;
    c_state_entries = state_entries; c_segments = o2.segments;
    c_pool_tasks = pool_tasks; c_minor_words = minor;
    c_major_words = major; c_major_collections = majors }

(* One traced pass: every program once, in seeded order. *)
let traced_pass exp sp p next ~first_op =
  List.init (Array.length programs) (fun i ->
      trace_program exp sp p ~op:(first_op + i) (next ()))

(* The serve layer, timed from the client side: requests over two
   connections, with [stats] and [metrics] scraped before and after. *)
let traced_serve exp ~bin reqs =
  let d = spawn_daemon bin in
  let fa = wait_ready d in
  let fb = Option.get (connect d.sock) in
  let s0 = stats fa and m0 = metrics fa in
  let replies =
    List.concat_map
      (fun rs ->
        let reps = round exp [ fa; fb ] rs in
        List.iter2
          (fun r rep -> record ("serve " ^ r.program.name) rep.result)
          rs reps;
        reps)
      (pairs reqs)
  in
  let s1 = stats fa and m1 = metrics fa in
  let delta name = metric m1 name -. metric m0 name in
  let server_ms = delta "serve_request_ms_sum" /. delta "serve_request_ms_count" in
  let rtt = Stdx.Stats.mean (List.map (fun r -> r.rtt_ms) replies) in
  let hits = float_of_int (s1.hits - s0.hits) in
  let misses = float_of_int (s1.misses - s0.misses) in
  if s1.shed <> 0 then run_error (Printf.sprintf "daemon shed %d requests" s1.shed);
  stop_daemon d [ fa; fb ];
  (* Jsonx on the run's own replies, repeated for clock resolution *)
  let bodies = List.filter_map (fun r -> if r.body = "" then None else Some r.body) replies in
  let bytes = float_of_int (List.fold_left (fun a b -> a + String.length b) 0 bodies) in
  let reps = 20 in
  let parsed, parse_ms =
    time_ms (fun () ->
        let last = ref [] in
        for _ = 1 to reps do
          last := List.map (fun b -> Result.get_ok (Serve.Jsonx.parse b)) bodies
        done;
        !last)
  in
  let (), print_ms =
    time_ms (fun () ->
        for _ = 1 to reps do
          List.iter (fun j -> ignore (Serve.Jsonx.to_string j)) parsed
        done)
  in
  let total = bytes *. float_of_int reps in
  put "serve.server_ms_mean" "ms" server_ms;
  put "serve.wire_ms" "ms" (rtt -. server_ms);
  put "serve.cache_hit_ratio" "ratio" (hits /. Float.max 1.0 (hits +. misses));
  put "serve.shed" "count" (float_of_int s1.shed);
  put "jsonx.parse_ns_per_byte" "ns" (parse_ms *. 1e6 /. total);
  put "jsonx.print_ns_per_byte" "ns" (print_ms *. 1e6 /. total);
  delta

let traced ~workload ~bin ~expected ~seconds ~seed p serve_reqs =
  let exp = load_expected expected in
  let sp = Spans.create () in
  let next = schedule seed in
  warm_up exp p;
  let stop = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let rec passes k =
    ignore (traced_pass exp sp p next ~first_op:(k * Array.length programs));
    if Int64.compare (now_ns ()) stop < 0 then passes (k + 1) else k + 1
  in
  let n_passes = float_of_int (passes 0) in
  let daemon = traced_serve exp ~bin serve_reqs in
  ensure_run_dir ();
  Spans.write
    (Printf.sprintf "%s/spans-%s-%d.tsv" run_dir workload seed)
    (Spans.spans sp);
  let per_pass name =
    fst (Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt sums name))
    /. n_passes
  in
  (* serve-mixed reports the daemon's pool, the others the driver's *)
  let pool name daemon_metric =
    if workload = "serve-mixed" then daemon daemon_metric else per_pass name
  in
  List.iter
    (fun (name, unit) -> put name unit (ratio name))
    [ ("compile.ms", "ms"); ("compile.alloc_kw", "kwords");
      ("cfg.info_ms", "ms"); ("cfg.estimate_ms", "ms");
      ("vm.ns_per_step", "ns"); ("vm.stream_ns_per_step", "ns");
      ("vm.alloc_words_per_step", "words");
      ("vm.trace_bytes_per_entry", "B");
      ("predict.profile_ns_per_entry", "ns");
      ("predict.value_ns_per_step", "ns") ];
  put "vm.steps" "count" (per_pass "vm.steps");
  List.iter
    (fun spec -> put ("analyze.ns_per_entry." ^ spec) "ns" (ratio ("analyze.ns_per_entry." ^ spec)))
    (paper @ List.map fst composed);
  put "analyze.fanout_ns_per_entry_machine" "ns" (ratio "analyze.fanout_ns_per_entry_machine");
  put "analyze.alloc_words_per_entry" "words" (ratio "analyze.alloc_words_per_entry");
  put "analyze.state_entries" "count" (per_pass "analyze.state_entries");
  List.iter
    (fun (name, unit) -> put name unit (ratio name))
    [ ("segmented.slice_ns_per_entry", "ns");
      ("segmented.decode_ns_per_entry", "ns");
      ("segmented.stitch_ns_per_entry_machine", "ns");
      ("segmented.run_ms", "ms"); ("segmented.speedup", "x") ];
  put "segmented.segments" "count" (per_pass "segmented.segments");
  let tasks = pool "pool.tasks" "pool_tasks_completed_total" in
  put "pool.tasks" "count" tasks;
  put "pool.steal_hit_ratio" "ratio"
    (pool "pool.steals" "pool_steals_total"
     /. Float.max 1.0 (pool "pool.steal_attempts" "pool_steal_attempts_total"));
  put "pool.parks_per_task" "ratio"
    (pool "pool.parks" "pool_parks_total" /. Float.max 1.0 tasks);
  put "pool.wakes" "count" (pool "pool.wakes" "pool_wakes_total");
  put "harness.glue_ms" "ms" (ratio "harness.glue_ms");
  put "gc.minor_words_per_op" "words" (ratio "gc.minor_words_per_op");
  put "gc.major_words_per_op" "words" (ratio "gc.major_words_per_op");
  put "gc.major_collections_per_op" "count" (ratio "gc.major_collections_per_op");
  put "bench.ref_ms" "ms" (Stdx.Stats.mean !kernels);
  put "bench.raw_p50_ms" "ms" (Refclock.median (Array.of_list !raw_ops));
  put "bench.trace_overhead" "ratio" (ratio "bench.trace_overhead")

(* ------------------------------------------------------------------ *)
(* Expected outputs and the exact-count check *)

(* Every (program, fuel, spec) the workloads use, through the
   sequential materialized path; the return value from a plain run. *)
let capture path =
  let sets =
    [ (sweep_fuel, paper); (split_fuel, paper); (serve_fuel, paper @ composed_specs) ]
  in
  let rows =
    List.concat_map
      (fun (fuel, specs) ->
        let p = inproc ~jobs:1 ~fuel specs in
        Array.to_list programs
        |> List.concat_map (fun (w : Workloads.Registry.t) ->
               let flat = Workloads.Registry.compile w in
               let o = Vm.Exec.run ~fuel ~record:false flat in
               let ret = ret_of_status o.status in
               match exec_op p w with
               | Error e -> failwith e
               | Ok results ->
                 List.map2
                   (fun spec r -> ((w.name, fuel, spec), { (row_of_result r) with ret }))
                   specs results))
      sets
  in
  Expected.save path rows;
  Printf.eprintf "perfbench: wrote %d rows to %s\n%!" (List.length rows) path

let in_process_workload = function
  | "paper-sweep" -> inproc ~jobs:1 ~fuel:sweep_fuel paper
  | "trace-split" -> inproc ~jobs:2 ~fuel:split_fuel paper
  | "serve-mixed" -> inproc ~jobs:1 ~fuel:serve_fuel paper
  | w -> failwith ("unknown workload " ^ w)

(* One traced pass, its per-op counts printed one line each. *)
let print_counts ~expected ~workload ~seed =
  let p = in_process_workload workload in
  let exp = load_expected expected in
  warm_up exp p;
  let counts = traced_pass exp (Spans.create ()) p (schedule seed) ~first_op:0 in
  List.iter (fun c -> print_endline (count_line c)) counts;
  if tally.failed > 0 then exit 1

(* Two processes, same seed: every count must repeat op for op. *)
let check_counts ~expected ~workload ~seed =
  let run () =
    run_self
      [ "--counts"; "--workload"; workload; "--seed"; string_of_int seed;
        "--expected"; expected ]
  in
  let a = run () and b = run () in
  let fields l = List.tl (String.split_on_char ' ' l) in
  let differ = Hashtbl.create 8 in
  List.iteri
    (fun i (la, lb) ->
      List.iter2
        (fun fa fb ->
          if fa <> fb then begin
            let name = List.hd (String.split_on_char '=' fa) in
            Hashtbl.replace differ name ();
            Printf.printf "op %d: %s vs %s\n" i fa fb
          end)
        (fields la) (fields lb))
    (List.combine a b);
  List.iter print_endline a;
  if Hashtbl.length differ = 0 then
    Printf.printf "%s: all counts repeat exactly over %d ops\n" workload (List.length a)
  else begin
    Printf.printf "%s: counts that do not repeat: %s\n" workload
      (String.concat ", " (Hashtbl.fold (fun k () acc -> k :: acc) differ []));
    exit 1
  end

(* Changing one stored value must turn a passing op into a failed one,
   on both checking paths: a harness result and a serve reply (rendered
   by the protocol printer, checked by the same code the timed run
   uses). *)
let self_test ~expected =
  let exp = load_expected expected in
  let w = programs.(0) in
  let p = in_process_workload "paper-sweep" in
  let res = exec_op p w in
  let specs = paper @ composed_specs in
  let req = analyze_req ~fuel:serve_fuel ~specs w in
  let body =
    match
      Harness.Request.exec ~fuel:serve_fuel
        ~specs:(List.map Harness.spec (machines specs)) w
    with
    | Ok reply -> Serve.Protocol.ok_analyze ~id:1 ~cached:false reply
    | Error e -> failwith (Pipeline_error.to_string e)
  in
  let check_both () =
    record "harness op" (check_op exp p w res);
    record "serve reply" (Result.bind (parse_ok body) (check_reply exp req))
  in
  check_both ();
  let clean = tally.failed in
  let bump key =
    let row = Hashtbl.find exp key in
    Hashtbl.replace exp key { row with Expected.cycles = row.Expected.cycles + 1 }
  in
  bump (w.name, p.fuel, "sp-cd-mf");
  bump (w.name, serve_fuel, "sp-cd-mf,vp");
  check_both ();
  let mutated = tally.failed - clean in
  Printf.printf "self-test: %d failed with the stored table, %d of 2 with one value changed per path\n"
    clean mutated;
  if clean <> 0 || mutated <> 2 then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and bin = ref "" in
  let expected = ref "perfbench/expected.txt" in
  let mode = ref `Run in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME paper-sweep | trace-split | serve-mixed");
      ("--seed", Arg.Set_int seed, "N op order and request sequence");
      ("--seconds", Arg.Set_float seconds, "S how long the timed loop runs");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced run (1)");
      ("--serve-bin", Arg.Set_string bin, "PATH the ilp-limits binary");
      ("--expected", Arg.Set_string expected, "FILE the expected-outputs table");
      ("--capture", Arg.String (fun f -> mode := `Capture f), "FILE write the expected-outputs table");
      ("--setup-probe", Arg.Unit (fun () -> mode := `Setup_probe), " one cold in-process set-up");
      ("--counts", Arg.Unit (fun () -> mode := `Counts), " print one traced pass's per-op counts");
      ("--check-counts", Arg.Unit (fun () -> mode := `Check_counts), " run --counts twice and compare");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " a changed expected value must fail ops") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "driver --workload NAME --seed N --seconds S --trace 0|1 --serve-bin PATH";
  match !mode with
  | `Capture path -> capture path
  | `Setup_probe ->
    let _, ms = inproc_setup ~expected:!expected (in_process_workload !workload) in
    Printf.printf "%.17g %d %d\n" ms tally.attempted tally.failed
  | `Counts -> print_counts ~expected:!expected ~workload:!workload ~seed:!seed
  | `Check_counts -> check_counts ~expected:!expected ~workload:!workload ~seed:!seed
  | `Self_test -> self_test ~expected:!expected
  | `Run ->
    if (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 then
      failwith "--trace must be 0 or 1 and --seconds positive";
    let p = in_process_workload !workload in
    let serve = !workload = "serve-mixed" in
    if !trace = 0 then begin
      if serve then timed_serve ~bin:!bin ~expected:!expected ~seconds:!seconds ~seed:!seed
      else timed_inproc ~workload:!workload ~expected:!expected ~seconds:!seconds ~seed:!seed p
    end
    else begin
      let reqs =
        if serve then
          let next = serve_mix !seed in
          List.concat (List.init block_rounds (fun _ -> next ()))
        else
          let one w = analyze_req ~fuel:p.fuel ~specs:paper w in
          List.map one (Array.to_list programs) @ List.map one (Array.to_list programs)
      in
      traced ~workload:!workload ~bin:!bin ~expected:!expected ~seconds:!seconds ~seed:!seed p reqs
    end;
    print_result ()
