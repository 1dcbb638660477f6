(* The serve daemon, bottom up: the JSON layer is total over arbitrary
   bytes, the bounded queue sheds rather than grows, the LRU cache
   evicts by recency, framing survives torn and oversized frames — and
   end to end, a served reply is byte-identical to the local one-shot
   that would have produced it, typed errors answer every refusal, and
   concurrent faulty requests never perturb healthy ones. *)

module Jsonx = Serve.Jsonx
module Protocol = Serve.Protocol
module Rqueue = Serve.Rqueue
module Cache = Serve.Cache
module Server = Serve.Server
module Client = Serve.Client
module Wire_fuzz = Serve.Wire_fuzz

let check = Alcotest.check
let fail = Alcotest.fail
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Jsonx: total parse, deterministic print. *)

let test_jsonx_roundtrip () =
  let src = {|{"a":1,"b":[true,null,"x\ny"],"c":{"d":2.5},"e":-7}|} in
  match Jsonx.parse src with
  | Error e -> fail e
  | Ok v -> (
    check bool "int member" true (Jsonx.(member "a" v |> Option.get |> to_int) = Some 1);
    check bool "nested float" true
      (Jsonx.(member "c" v |> Option.get |> member "d" |> Option.get |> to_float)
      = Some 2.5);
    (match Jsonx.(member "b" v |> Option.get |> to_list) with
    | Some [ b; n; s ] ->
      check bool "bool" true (Jsonx.to_bool b = Some true);
      check bool "null is not a string" true (Jsonx.to_str n = None);
      check bool "escaped string" true (Jsonx.to_str s = Some "x\ny")
    | _ -> fail "list shape");
    (* print → parse is the identity *)
    match Jsonx.parse (Jsonx.to_string v) with
    | Ok v2 -> check bool "print/parse identity" true (v = v2)
    | Error e -> fail e)

let test_jsonx_rejects () =
  let bad s =
    match Jsonx.parse s with
    | Ok _ -> fail (Printf.sprintf "accepted %S" s)
    | Error _ -> ()
  in
  bad "{\"a\":1} x";              (* trailing bytes *)
  bad "\"\xff\xfe\"";             (* invalid UTF-8 in a string *)
  bad "{\"a\":";                  (* truncated *)
  bad "[1,]";                     (* dangling comma *)
  bad "\"\\ud800\"";              (* lone surrogate *)
  bad (String.make 70 '[');       (* past the nesting limit *)
  (* ... but 40 levels are fine *)
  match Jsonx.parse (String.make 40 '[' ^ String.make 40 ']') with
  | Ok _ -> ()
  | Error e -> fail e

let test_jsonx_nonfinite_floats () =
  check string "nan prints null" "null" (Jsonx.to_string (Jsonx.Float nan));
  check string "inf prints null" "null"
    (Jsonx.to_string (Jsonx.Float infinity));
  check string "finite float survives" "2.5"
    (Jsonx.to_string (Jsonx.Float 2.5))

(* ------------------------------------------------------------------ *)
(* Rqueue: bounded, FIFO, shed-on-full, drain-on-close. *)

let test_rqueue_shed () =
  let q = Rqueue.create ~limit:2 in
  check int "limit" 2 (Rqueue.limit q);
  check bool "first push" true (Rqueue.push q `A = `Ok 1);
  check bool "second push" true (Rqueue.push q `B = `Ok 2);
  check bool "third sheds at depth 2" true (Rqueue.push q `C = `Overloaded 2);
  check bool "FIFO" true (Rqueue.pop_opt q = Some `A);
  check bool "FIFO again" true (Rqueue.pop_opt q = Some `B);
  check bool "shed item was dropped" true (Rqueue.pop_opt q = None)

let test_rqueue_close_drains () =
  let q = Rqueue.create ~limit:4 in
  ignore (Rqueue.push q 1);
  ignore (Rqueue.push q 2);
  Rqueue.close q;
  Rqueue.close q;  (* idempotent *)
  check bool "push after close refused" true (Rqueue.push q 3 = `Closed);
  check bool "queued items still drain" true (Rqueue.pop q = Some 1);
  check bool "drain continues" true (Rqueue.pop q = Some 2);
  check bool "closed and empty" true (Rqueue.pop q = None)

let test_rqueue_limit_clamped () =
  let q = Rqueue.create ~limit:0 in
  check int "limit clamped to 1" 1 (Rqueue.limit q);
  ignore (Rqueue.push q ());
  check bool "full at 1" true (Rqueue.push q () = `Overloaded 1)

(* ------------------------------------------------------------------ *)
(* Cache: LRU with find-refresh, hit/miss accounting. *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "k1" 1;
  Cache.add c "k2" 2;
  check bool "k1 present" true (Cache.find c "k1" = Some 1);
  (* the find refreshed k1, so k2 is now the least recently used *)
  Cache.add c "k3" 3;
  check bool "k2 evicted" true (Cache.find c "k2" = None);
  check bool "k1 survived" true (Cache.find c "k1" = Some 1);
  check bool "k3 present" true (Cache.find c "k3" = Some 3);
  let st = Cache.stats c in
  check int "size" 2 st.Cache.size;
  check int "capacity" 2 st.Cache.capacity;
  check int "hits" 3 st.Cache.hits;
  check int "misses" 1 st.Cache.misses

(* ------------------------------------------------------------------ *)
(* Protocol framing over a real socketpair. *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      (match Protocol.write_frame a {|{"id":1,"op":"ping"}|} with
      | Ok () -> ()
      | Error e -> fail e);
      (match Protocol.read_frame b with
      | Ok s -> check string "payload intact" {|{"id":1,"op":"ping"}|} s
      | Error _ -> fail "read failed");
      (* an empty payload frames too *)
      (match Protocol.write_frame a "" with
      | Ok () -> ()
      | Error e -> fail e);
      match Protocol.read_frame b with
      | Ok s -> check string "empty payload" "" s
      | Error _ -> fail "read failed")

let test_frame_too_large () =
  (match Protocol.write_frame Unix.stdout (String.make (Protocol.max_frame + 1) 'x') with
  | Ok () -> fail "oversized write accepted"
  | Error _ -> ());
  with_socketpair (fun a b ->
      (* hand-craft a header declaring one byte past the cap *)
      let n = Protocol.max_frame + 1 in
      let hdr = Bytes.create 4 in
      Bytes.set hdr 0 (Char.chr ((n lsr 24) land 0xff));
      Bytes.set hdr 1 (Char.chr ((n lsr 16) land 0xff));
      Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xff));
      Bytes.set hdr 3 (Char.chr (n land 0xff));
      ignore (Unix.write a hdr 0 4);
      match Protocol.read_frame b with
      | Error (Protocol.Too_large m) -> check int "declared length" n m
      | _ -> fail "expected Too_large")

let test_frame_torn () =
  with_socketpair (fun a b ->
      ignore (Unix.write a (Bytes.of_string "\x00\x00") 0 2);
      Unix.close a;
      match Protocol.read_frame b with
      | Error Protocol.Truncated -> ()
      | _ -> fail "expected Truncated");
  with_socketpair (fun a b ->
      Unix.close a;
      match Protocol.read_frame b with
      | Error Protocol.Closed -> ()
      | _ -> fail "expected Closed")

let test_request_decode () =
  let decode s =
    match Jsonx.parse s with
    | Error e -> fail e
    | Ok j -> Protocol.decode_request j
  in
  (match decode (Protocol.ping_request ~id:3) with
  | Ok (Protocol.Ping 3) -> ()
  | _ -> fail "ping round trip");
  (match decode (Protocol.stats_request ~id:4) with
  | Ok (Protocol.Stats 4) -> ()
  | _ -> fail "stats round trip");
  (match
     decode
       (Protocol.analyze_request ~id:5
          (Protocol.analyze ~workload:"awk" ~machines:[ "sp-cd-mf" ]
             ~fuel:1000 ~inject:("bit-flip", 7) ()))
   with
  | Ok (Protocol.Analyze (5, a)) ->
    check bool "workload" true (a.Protocol.a_workload = Some "awk");
    check bool "machines" true (a.Protocol.a_machines = [ "sp-cd-mf" ]);
    check bool "fuel" true (a.Protocol.a_fuel = Some 1000);
    check bool "inject" true (a.Protocol.a_inject = Some ("bit-flip", 7))
  | _ -> fail "analyze round trip");
  (match decode {|{"op":"ping"}|} with
  | Error _ -> ()
  | Ok _ -> fail "missing id accepted");
  (match decode {|{"id":1,"op":"conquer"}|} with
  | Error _ -> ()
  | Ok _ -> fail "unknown op accepted");
  (* the id is recoverable even from a shape-rejected request *)
  match Jsonx.parse {|{"id":9,"op":"conquer"}|} with
  | Ok j -> check bool "request_id" true (Protocol.request_id j = Some 9)
  | Error e -> fail e

let test_response_decode () =
  let err =
    Pipeline_error.v ~workload:"awk" Execute
      (Overloaded { depth = 3; limit = 4; retry_after_ms = 25 })
  in
  match Jsonx.parse (Protocol.error_response ~id:(Some 11) err) with
  | Error e -> fail e
  | Ok j ->
    let r = Protocol.decode_response j in
    check bool "id echoed" true (r.Protocol.r_id = Some 11);
    check bool "not ok" false r.Protocol.r_ok;
    check bool "cause" true (r.Protocol.r_error_cause = Some "overloaded");
    check bool "retry hint" true (r.Protocol.r_retry_after_ms = Some 25)

(* ------------------------------------------------------------------ *)
(* End-to-end server tests: raw connections, so responses can be
   compared byte for byte. *)

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ilp-test-%d-%s.sock" (Unix.getpid ()) name)

let with_server ?jobs ?queue_limit ?cache_capacity ?admission ?max_fuel
    ?idle_timeout_ms ?(retry_after_ms = 25) name f =
  let path = sock_path name in
  let cfg =
    Server.config ?jobs ?queue_limit ?cache_capacity ?admission ?max_fuel
      ?idle_timeout_ms ~retry_after_ms ~registry:(Obs.Metrics.create ())
      ~socket_path:path ()
  in
  match Server.start cfg with
  | Error e -> fail ("server start: " ^ e)
  | Ok t ->
    Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t path)

let connect_raw path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* One exchange on an open raw connection; the response as raw bytes. *)
let roundtrip fd payload =
  (match Protocol.write_frame fd payload with
  | Ok () -> ()
  | Error e -> fail ("write: " ^ e));
  match Protocol.read_frame fd with
  | Ok s -> s
  | Error _ -> fail "no response frame"

(* Fresh connection per request — ids restart at the caller's choice. *)
let oneshot path payload =
  let fd = connect_raw path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> roundtrip fd payload)

let decoded payload =
  match Jsonx.parse payload with
  | Error e -> fail ("response not JSON: " ^ e)
  | Ok j -> Protocol.decode_response j

let error_cause payload = (decoded payload).Protocol.r_error_cause

let error_code payload =
  match Jsonx.parse payload with
  | Error e -> fail e
  | Ok j ->
    Jsonx.(member "error" j |> Option.get |> member "code" |> Option.get |> to_int)
    |> Option.get

(* Replace the first occurrence of [sub] — enough to erase the cached
   flag when comparing fresh and cached replies. *)
let replace ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let normalize_cached s = replace ~sub:{|"cached":true|} ~by:{|"cached":false|} s

let analyze_payload ?fuel ?deadline_ms ?inject ~id ~workload machines =
  Protocol.analyze_request ~id
    (Protocol.analyze ~workload ~machines ?fuel ?deadline_ms ?inject ())

(* The local one-shot a served reply must match byte for byte. *)
let local_reply ~id ~fuel ~workload machines =
  let w = Workloads.Registry.find workload in
  let machines =
    match Ilp.Machine.of_specs machines with
    | Ok ms -> ms
    | Error e -> fail (Pipeline_error.to_string e)
  in
  let specs = List.map (fun m -> Harness.spec m) machines in
  match Harness.Request.exec ~fuel ~specs w with
  | Ok reply -> Protocol.ok_analyze ~id ~cached:false reply
  | Error e -> fail (Pipeline_error.to_string e)

let test_serve_ping_and_stats () =
  with_server "ping" (fun _t path ->
      let fd = connect_raw path in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          check string "ping is byte-exact" (Protocol.ok_ping ~id:7)
            (roundtrip fd (Protocol.ping_request ~id:7));
          let stats = roundtrip fd (Protocol.stats_request ~id:8) in
          let j = match Jsonx.parse stats with Ok j -> j | Error e -> fail e in
          check bool "stats ok" true ((decoded stats).Protocol.r_ok);
          check bool "queue_limit reported" true
            (Jsonx.(member "queue_limit" j |> Option.get |> to_int) = Some 64);
          check bool "not draining" true
            (Jsonx.(member "draining" j |> Option.get |> to_bool) = Some false);
          (* duplicate id on one connection is refused *)
          let dup = roundtrip fd (Protocol.ping_request ~id:7) in
          check bool "duplicate id refused" true
            (error_cause dup = Some "invalid_request")))

let test_serve_analyze_matches_oneshot () =
  with_server "analyze" (fun _t path ->
      let machines = [ "sp-cd-mf" ] in
      let fuel = 100_000 in
      let expected = local_reply ~id:1 ~fuel ~workload:"eqntott" machines in
      let got =
        oneshot path
          (analyze_payload ~id:1 ~fuel ~workload:"eqntott" machines)
      in
      check string "served reply == local one-shot" expected got;
      (* second request: compile-cache hit; identical bytes modulo the
         cached flag *)
      let again =
        oneshot path
          (analyze_payload ~id:1 ~fuel ~workload:"eqntott" machines)
      in
      check bool "second reply is flagged cached" true
        (again <> got && normalize_cached again = got))

let test_serve_metrics_scrape () =
  with_server "metrics" (fun _t path ->
      ignore
        (oneshot path
           (analyze_payload ~id:1 ~fuel:50_000 ~workload:"awk"
              [ "sp-cd-mf" ]));
      let resp = oneshot path (Protocol.metrics_request ~id:2) in
      let j = match Jsonx.parse resp with Ok j -> j | Error e -> fail e in
      let body =
        Jsonx.(member "metrics" j |> Option.get |> to_str) |> Option.get
      in
      let has sub =
        let n = String.length body and m = String.length sub in
        let rec go i =
          i + m <= n && (String.sub body i m = sub || go (i + 1))
        in
        go 0
      in
      check bool "requests counter exported" true
        (has "serve_requests_total");
      check bool "pool probe exported" true
        (has "pool_tasks_completed_total"))

let test_serve_typed_errors () =
  with_server ~max_fuel:1_000 "errors" (fun _t path ->
      let expect payload cause code =
        let resp = oneshot path payload in
        check bool (cause ^ " cause") true (error_cause resp = Some cause);
        check int (cause ^ " code") code (error_code resp)
      in
      expect
        (analyze_payload ~id:1 ~workload:"no-such-program" [ "sp-cd-mf" ])
        "unknown_workload" 2;
      expect
        (analyze_payload ~id:1 ~workload:"awk" [ "warp-drive" ])
        "unknown_machine" 2;
      expect
        (analyze_payload ~id:1 ~workload:"awk"
           ~inject:("gamma-ray", 1) [ "sp-cd-mf" ])
        "unknown_fault" 2;
      (* fuel above the server's cap: refused before execution *)
      expect
        (analyze_payload ~id:1 ~fuel:2_000 ~workload:"awk" [ "sp-cd-mf" ])
        "budget_exceeded" 5;
      (* malformed JSON is a typed error, and the connection survives *)
      let fd = connect_raw path in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let bad = roundtrip fd "{\"id\":1,\"op\"" in
          check bool "malformed is typed" true
            (error_cause bad = Some "invalid_request");
          check string "connection survived" (Protocol.ok_ping ~id:2)
            (roundtrip fd (Protocol.ping_request ~id:2))))

let test_serve_deadline () =
  with_server "deadline" (fun _t path ->
      let resp =
        oneshot path
          (analyze_payload ~id:1 ~deadline_ms:1 ~workload:"gcc"
             [ "sp-cd-mf" ])
      in
      check bool "deadline cause" true
        (error_cause resp = Some "deadline_exceeded");
      check int "exit code 6" 6 (error_code resp);
      let j = match Jsonx.parse resp with Ok j -> j | Error e -> fail e in
      check bool "structured budget" true
        (Jsonx.(
           member "error" j |> Option.get |> member "budget_ms" |> Option.get
           |> to_int)
        = Some 1))

let test_serve_admission_reject () =
  (* the work proxy prices awk at 2808 and irsim at ~3.4e7 (matrix300
     is unbounded): a 5000 ceiling splits them *)
  with_server ~admission:(Server.Admit_reject 5000.) "admit"
    (fun _t path ->
      let expect_reject w =
        let resp =
          oneshot path
            (analyze_payload ~id:1 ~fuel:100_000 ~workload:w [ "sp-cd-mf" ])
        in
        check bool (w ^ " rejected by estimate") true
          (error_cause resp = Some "rejected_by_estimate");
        check int (w ^ " exit code 8") 8 (error_code resp)
      in
      expect_reject "irsim";      (* finite estimate above the ceiling *)
      expect_reject "matrix300";  (* unbounded prices as infinity *)
      let ok =
        oneshot path
          (analyze_payload ~id:1 ~fuel:100_000 ~workload:"awk"
             [ "sp-cd-mf" ])
      in
      check bool "cheap workload admitted" true ((decoded ok).Protocol.r_ok))

let test_serve_shed_under_burst () =
  with_server ~jobs:1 ~queue_limit:1 "shed" (fun _t path ->
      (* Overload is a precondition, not a race: the burst fires only
         once a long request has been seen holding the only worker.
         Clients and server share one domain here, so each stats poll
         or burst arrival can wait a tick or two (~50 ms each) for the
         runtime lock.  The long request (8M steps on the seven paper
         machines, about a second) outlasts both; a registry workload
         at default fuel (~0.3 s) does not. *)
      let long_source =
        {|int a[64];
          int main(void) {
            int i;
            for (i = 0; i < 1000000; i = i + 1)
              a[i % 64] = a[(i + 7) % 64] + 1;
            return a[0];
          }|}
      in
      let long = Atomic.make None in
      let long_t =
        Thread.create
          (fun () ->
            Atomic.set long
              (Some
                 (oneshot path
                    (Protocol.analyze_request ~id:1
                       (Protocol.analyze ~source:long_source ())))))
          ()
      in
      let stat json name =
        Option.get Jsonx.(Option.bind (member name json) to_int)
      in
      let rec await_worker_busy () =
        match Jsonx.parse (oneshot path (Protocol.stats_request ~id:1)) with
        | Error e -> fail e
        | Ok json ->
          if stat json "queue_depth" = 0 && stat json "in_flight" = 1 then ()
          else if Atomic.get long <> None then
            fail "the long request finished before it was seen running"
          else begin
            Thread.delay 0.001;
            await_worker_busy ()
          end
      in
      await_worker_busy ();
      let n = 8 in
      let responses = Array.make n "" in
      let worker i =
        responses.(i) <-
          oneshot path
            (analyze_payload ~id:1 ~fuel:400_000 ~workload:"gcc"
               [ "sp-cd-mf" ])
      in
      let threads = Array.init n (fun i -> Thread.create worker i) in
      Array.iter Thread.join threads;
      Thread.join long_t;
      check bool "the long request ran" true
        (decoded (Option.get (Atomic.get long))).Protocol.r_ok;
      let ok = ref 0 and shed = ref 0 in
      Array.iter
        (fun resp ->
          let r = decoded resp in
          if r.Protocol.r_ok then incr ok
          else begin
            check bool "only overloaded errors" true
              (r.Protocol.r_error_cause = Some "overloaded");
            check bool "retry hint carried" true
              (r.Protocol.r_retry_after_ms = Some 25);
            incr shed
          end)
        responses;
      check int "every request answered" n (!ok + !shed);
      check bool "the 1-deep queue shed most of the burst" true (!shed >= 1);
      check bool "something still ran" true (!ok >= 1))

let test_serve_drain_delivers_in_flight () =
  with_server ~jobs:1 "drain" (fun t path ->
      let fd = connect_raw path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (match
             Protocol.write_frame fd
               (analyze_payload ~id:1 ~fuel:100_000 ~workload:"awk"
                  [ "sp-cd-mf" ])
           with
          | Ok () -> ()
          | Error e -> fail e);
          (* let the connection thread admit the request before the
             drain, so the reply is genuinely owed *)
          Thread.delay 0.2;
          Server.drain t;
          (* the owed reply lands — executed or typed-shed, never dropped *)
          (match Protocol.read_frame fd with
          | Ok resp ->
            let r = decoded resp in
            check bool "reply is ok or overloaded" true
              (r.Protocol.r_ok || r.Protocol.r_error_cause = Some "overloaded")
          | Error _ -> fail "in-flight reply dropped during drain");
          Server.wait t;
          (* the socket is gone: new connections are refused *)
          match connect_raw path with
          | fd2 ->
            Unix.close fd2;
            fail "connect succeeded after drain"
          | exception Unix.Unix_error _ -> ()))

let test_serve_idle_timeout () =
  with_server ~idle_timeout_ms:50 "idle" (fun t _path ->
      (* no connections: the acceptor notices idleness and self-drains;
         wait returning at all is the assertion *)
      Server.wait t;
      check bool "drained" true (Server.draining t))

let test_client_retry_io_failure () =
  match
    Client.call_retry ~attempts:2 ~base_ms:1 ~seed:1
      (Client.Unix_sock (sock_path "nonexistent"))
      ~make_payload:(fun ~id -> Protocol.ping_request ~id)
  with
  | Ok _ -> fail "call_retry reached a nonexistent socket"
  | Error _ -> ()

let test_wire_fuzz_live () =
  with_server "fuzz" (fun _t path ->
      let r = Wire_fuzz.run ~cases:27 ~seed:5 (Client.Unix_sock path) in
      check int "cases" 27 r.Wire_fuzz.cases;
      check int "no hangs" 0 r.Wire_fuzz.hung;
      check int "no ok replies to garbage" 0 r.Wire_fuzz.unexpected_ok;
      check bool "server alive afterwards" true r.Wire_fuzz.alive;
      check bool "report passes" true (Wire_fuzz.passed r))

(* Concurrent error isolation: healthy requests racing injected faults
   and lookup failures come back byte-identical to their sequential
   one-shots. *)
let test_serve_concurrent_isolation () =
  with_server ~jobs:2 ~queue_limit:64 "isolation" (fun _t path ->
      let machines = [ "sp-cd-mf" ] in
      let fuel = 100_000 in
      let healthy = [| "eqntott"; "awk"; "ccom"; "espresso" |] in
      (* sequential baselines (also warms the compile cache, so the
         concurrent round compares after normalizing the cached flag) *)
      let expected =
        Array.map
          (fun w ->
            normalize_cached
              (oneshot path (analyze_payload ~id:1 ~fuel ~workload:w machines)))
          healthy
      in
      let n = 12 in
      let responses = Array.make n "" in
      let payload i =
        match i mod 3 with
        | 0 ->
          analyze_payload ~id:1 ~fuel
            ~workload:healthy.((i / 3) mod Array.length healthy)
            machines
        | 1 ->
          analyze_payload ~id:1 ~fuel ~workload:"awk"
            ~inject:("bit-flip", i) machines
        | _ -> analyze_payload ~id:1 ~workload:"no-such-program" machines
      in
      let threads =
        Array.init n (fun i ->
            Thread.create (fun () -> responses.(i) <- oneshot path (payload i)) ())
      in
      Array.iter Thread.join threads;
      for i = 0 to n - 1 do
        match i mod 3 with
        | 0 ->
          check string
            (Printf.sprintf "healthy #%d bit-identical under fault load" i)
            expected.((i / 3) mod Array.length healthy)
            (normalize_cached responses.(i))
        | 1 ->
          (* injected runs answer — ok with a truncated trace or a
             typed VM fault, never silence *)
          let r = decoded responses.(i) in
          check bool
            (Printf.sprintf "injected #%d answered" i)
            true
            (r.Protocol.r_ok || r.Protocol.r_error_cause <> None)
        | _ ->
          check bool
            (Printf.sprintf "lookup failure #%d typed" i)
            true
            (error_cause responses.(i) = Some "unknown_workload")
      done)

(* ------------------------------------------------------------------ *)
(* The run-path deadline shares the serve machinery: `run
   --deadline-ms` yields the same typed error and exit code 6. *)

let test_run_deadline () =
  let cfg =
    Harness.Run.config ~deadline_ms:1 [ Harness.spec Ilp.Machine.sp_cd_mf ]
  in
  match Harness.Run.exec cfg [ Workloads.Registry.find "gcc" ] with
  | Error e -> fail (Pipeline_error.to_string e)
  | Ok [ it ] -> (
    match it.Harness.Run.it_outcome with
    | Error ({ cause = Deadline_exceeded { budget_ms; _ }; _ } as e) ->
      check int "budget echoed" 1 budget_ms;
      check int "exit code 6" 6 (Pipeline_error.exit_code e)
    | Ok _ -> fail "gcc finished inside 1ms?"
    | Error e -> fail (Pipeline_error.to_string e))
  | Ok _ -> fail "one workload, one item"

let suite =
  [ Alcotest.test_case "jsonx: parse/print round trip" `Quick
      test_jsonx_roundtrip;
    Alcotest.test_case "jsonx: malformed inputs rejected" `Quick
      test_jsonx_rejects;
    Alcotest.test_case "jsonx: non-finite floats print null" `Quick
      test_jsonx_nonfinite_floats;
    Alcotest.test_case "rqueue: sheds when full, FIFO" `Quick
      test_rqueue_shed;
    Alcotest.test_case "rqueue: close drains, refuses pushes" `Quick
      test_rqueue_close_drains;
    Alcotest.test_case "rqueue: limit clamped to 1" `Quick
      test_rqueue_limit_clamped;
    Alcotest.test_case "cache: LRU eviction with find-refresh" `Quick
      test_cache_lru;
    Alcotest.test_case "protocol: frame round trip" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "protocol: oversized frames refused" `Quick
      test_frame_too_large;
    Alcotest.test_case "protocol: torn frames are typed" `Quick
      test_frame_torn;
    Alcotest.test_case "protocol: request decode shapes" `Quick
      test_request_decode;
    Alcotest.test_case "protocol: response decode carries the hint" `Quick
      test_response_decode;
    Alcotest.test_case "serve: ping/stats, duplicate ids refused" `Quick
      test_serve_ping_and_stats;
    Alcotest.test_case "serve: reply == one-shot, cache flagged" `Slow
      test_serve_analyze_matches_oneshot;
    Alcotest.test_case "serve: metrics scrape exports counters" `Quick
      test_serve_metrics_scrape;
    Alcotest.test_case "serve: typed errors for every refusal" `Quick
      test_serve_typed_errors;
    Alcotest.test_case "serve: deadline is typed, code 6" `Quick
      test_serve_deadline;
    Alcotest.test_case "serve: admission reject, code 8" `Slow
      test_serve_admission_reject;
    Alcotest.test_case "serve: burst sheds, every request answered" `Slow
      test_serve_shed_under_burst;
    Alcotest.test_case "serve: drain delivers in-flight replies" `Quick
      test_serve_drain_delivers_in_flight;
    Alcotest.test_case "serve: idle timeout self-drains" `Quick
      test_serve_idle_timeout;
    Alcotest.test_case "client: retry surfaces I/O failure" `Quick
      test_client_retry_io_failure;
    Alcotest.test_case "serve: wire fuzz against a live server" `Slow
      test_wire_fuzz_live;
    Alcotest.test_case "serve: concurrent faults don't perturb healthy" `Slow
      test_serve_concurrent_isolation;
    Alcotest.test_case "run: --deadline-ms yields the typed error" `Quick
      test_run_deadline ]
