(* The serve daemon, bottom up: the bounded queue sheds rather than
   grows, the LRU cache evicts by recency, framing survives torn and
   oversized frames, every error cause renders pinned bytes — and end to
   end, a served reply is byte-identical to the local one-shot
   that would have produced it, typed errors answer every refusal, and
   concurrent faulty requests never perturb healthy ones. *)

module Jsonx = Stdx.Jsonx
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
(* Rqueue: bounded, FIFO, shed-on-full, drain-on-close. *)

let test_rqueue_shed () =
  let q = Rqueue.create ~limit:2 in
  check int "limit" 2 (Rqueue.limit q);
  check bool "first push" true (Rqueue.push q `A = `Ok 1);
  check bool "second push" true (Rqueue.push q `B = `Ok 2);
  check bool "third sheds at depth 2" true (Rqueue.push q `C = `Overloaded 2);
  Rqueue.close q;
  check bool "FIFO" true (Rqueue.pop q = Some `A);
  check bool "FIFO again" true (Rqueue.pop q = Some `B);
  check bool "shed item was dropped" true (Rqueue.pop q = None)

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

(* One reply per cause, pinned byte for byte: the id (or null), the
   optional workload, the escaped message and each structured field.
   [estimate] and [ceiling] print as the message's [%.0f] does, a tie
   rounding to even (2.5 -> 2, 12.5 -> 12, 13.5 -> 14). *)
let test_error_replies_pinned () =
  let rows =
    Pipeline_error.
      [ ( Some 1,
          v ~workload:"akw" Lookup
            (Unknown_workload { name = "akw"; hint = Some "awk" }),
          {|{"id":1,"ok":false,"error":{"cause":"unknown_workload","code":2,"stage":"lookup","workload":"akw","message":"[lookup/akw] unknown workload \"akw\" (did you mean \"awk\"?); try the 'list' command"}}|}
        );
        ( None,
          v Lookup (Unknown_machine { name = "sp-cd-mg"; hint = None }),
          {|{"id":null,"ok":false,"error":{"cause":"unknown_machine","code":2,"stage":"lookup","message":"[lookup] unknown machine \"sp-cd-mg\""}}|}
        );
        ( Some 3,
          v Lookup
            (Invalid_machine_spec
               { spec = "sp,window=x"; msg = "window needs an integer" }),
          {|{"id":3,"ok":false,"error":{"cause":"invalid_machine_spec","code":2,"stage":"lookup","message":"[lookup] invalid machine spec \"sp,window=x\": window needs an integer"}}|}
        );
        ( Some 4,
          v ~workload:"gcc" Lookup
            (Unknown_fault { name = "bitflip"; hint = Some "bit-flip" }),
          {|{"id":4,"ok":false,"error":{"cause":"unknown_fault","code":2,"stage":"lookup","workload":"gcc","message":"[lookup/gcc] unknown fault kind \"bitflip\" (did you mean \"bit-flip\"?)"}}|}
        );
        ( Some 5,
          v ~workload:"adhoc" Compile
            (Compile_error
               "line 1:\tunexpected '+'\r\nnext\x01byte \"q\" \\ end"),
          {|{"id":5,"ok":false,"error":{"cause":"compile_error","code":3,"stage":"compile","workload":"adhoc","message":"[compile/adhoc] compile error: line 1:\tunexpected '+'\r\nnext\u0001byte \"q\" \\ end"}}|}
        );
        ( Some 6,
          v ~workload:"awk" Execute
            (Vm_fault (fault ~pc:17 ~detail:"r3 = 0" ~step:42 Div_by_zero)),
          {|{"id":6,"ok":false,"error":{"cause":"vm_fault","code":4,"stage":"execute","workload":"awk","message":"[execute/awk] VM fault: div_by_zero at pc 17 after 42 steps (r3 = 0)","fault_kind":"div_by_zero","pc":17,"step":42}}|}
        );
        ( Some 7,
          v Execute
            (Budget_exceeded { what = "fuel"; limit = 1000; requested = 5000 }),
          {|{"id":7,"ok":false,"error":{"cause":"budget_exceeded","code":5,"stage":"execute","message":"[execute] fuel budget exceeded: requested 5000, cap 1000","what":"fuel","limit":1000,"requested":5000}}|}
        );
        ( Some 8,
          v Execute (Invalid_request "fuel must be at least 1 (got -5)"),
          {|{"id":8,"ok":false,"error":{"cause":"invalid_request","code":2,"stage":"execute","message":"[execute] invalid request: fuel must be at least 1 (got -5)"}}|}
        );
        ( Some 9,
          v ~workload:"gcc" Execute
            (Deadline_exceeded { budget_ms = 1; elapsed_ms = 3 }),
          {|{"id":9,"ok":false,"error":{"cause":"deadline_exceeded","code":6,"stage":"execute","workload":"gcc","message":"[execute/gcc] deadline exceeded: 1 ms budget, 3 ms elapsed","budget_ms":1,"elapsed_ms":3}}|}
        );
        ( Some 10,
          v ~workload:"awk" Execute
            (Overloaded { depth = 3; limit = 4; retry_after_ms = 25 }),
          {|{"id":10,"ok":false,"error":{"cause":"overloaded","code":7,"stage":"execute","workload":"awk","message":"[execute/awk] overloaded: request queue full (3/4); retry after 25 ms","depth":3,"limit":4,"retry_after_ms":25}}|}
        );
        ( Some 11,
          v ~workload:"gcc" Analyze
            (Rejected_by_estimate
               { spec = "oracle"; estimate = infinity; ceiling = 2.5 }),
          {|{"id":11,"ok":false,"error":{"cause":"rejected_by_estimate","code":8,"stage":"analyze","workload":"gcc","message":"[analyze/gcc] rejected by static estimate: oracle estimated work unbounded exceeds ceiling 2","spec":"oracle","estimate":null,"ceiling":2}}|}
        );
        ( Some 12,
          v ~workload:"gcc" Analyze
            (Rejected_by_estimate
               { spec = "sp-cd-mf"; estimate = 12.5; ceiling = 13.5 }),
          {|{"id":12,"ok":false,"error":{"cause":"rejected_by_estimate","code":8,"stage":"analyze","workload":"gcc","message":"[analyze/gcc] rejected by static estimate: sp-cd-mf estimated work 12 exceeds ceiling 14","spec":"sp-cd-mf","estimate":12,"ceiling":14}}|}
        );
        ( Some 13,
          v Report (Failed "verification failed"),
          {|{"id":13,"ok":false,"error":{"cause":"failed","code":1,"stage":"report","message":"[report] verification failed"}}|}
        );
        ( Some 14,
          v ~workload:"awk" Analyze (Internal "Not_found"),
          {|{"id":14,"ok":false,"error":{"cause":"internal","code":1,"stage":"analyze","workload":"awk","message":"[analyze/awk] internal error (escaped exception): Not_found"}}|}
        ) ]
  in
  List.iter
    (fun (id, err, want) ->
      check string (Pipeline_error.cause_name err) want
        (Protocol.error_response ~id err))
    rows

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

let analyze_payload ?fuel ?step_budget ?deadline_ms ?inject ~id ~workload
    machines =
  Protocol.analyze_request ~id
    (Protocol.analyze ~workload ~machines ?fuel ?step_budget ?deadline_ms
       ?inject ())

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

(* A live scrape's Prometheus text, and one counter's value in it. *)
let scrape path =
  let resp = oneshot path (Protocol.metrics_request ~id:1) in
  let j = match Jsonx.parse resp with Ok j -> j | Error e -> fail e in
  Jsonx.(member "metrics" j |> Option.get |> to_str) |> Option.get

let scraped path name =
  let value line =
    match String.split_on_char ' ' line with
    | [ n; v ] when n = name -> int_of_string_opt v
    | _ -> None
  in
  match List.find_map value (String.split_on_char '\n' (scrape path)) with
  | Some v -> v
  | None -> fail (name ^ " not scraped")

let test_serve_metrics_scrape () =
  with_server "metrics" (fun _t path ->
      ignore
        (oneshot path
           (analyze_payload ~id:1 ~fuel:50_000 ~workload:"awk"
              [ "sp-cd-mf" ]));
      let body = scrape path in
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

(* An injected request without machines analyzes the one default
   [Request.exec] picks for it, SP-CD-MF, as [ilp-limits inject] does
   — not the first of the seven paper machines an un-injected request
   defaults to. *)
let test_serve_inject_default_machine () =
  with_server "inject-default" (fun _t path ->
      let resp =
        oneshot path
          (analyze_payload ~id:1 ~fuel:50_000 ~step_budget:10
             ~workload:"awk" ~inject:("bit-flip", 3) [])
      in
      let j = match Jsonx.parse resp with Ok j -> j | Error e -> fail e in
      let results =
        Jsonx.(member "results" j |> Option.get |> to_list) |> Option.get
      in
      check int "one result" 1 (List.length results);
      check (Alcotest.option string) "the injected default" (Some "SP-CD-MF")
        Jsonx.(member "machine" (List.hd results) |> Option.get |> to_str))

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
      (* a non-positive fuel or step budget is refused, never run *)
      expect
        (analyze_payload ~id:1 ~fuel:(-5) ~workload:"awk" [ "sp-cd-mf" ])
        "invalid_request" 2;
      expect
        (analyze_payload ~id:1 ~step_budget:(-2) ~workload:"awk"
           [ "sp-cd-mf" ])
        "invalid_request" 2;
      (* so is a deadline below 1 ms, by Request.exec's one check, not a
         request that expires at once *)
      expect
        (analyze_payload ~id:1 ~deadline_ms:0 ~workload:"awk" [ "sp-cd-mf" ])
        "invalid_request" 2;
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

(* A request that runs about a second: 8M steps on the seven paper
   machines.  Clients and server share one domain in these tests, so
   each stats poll or request arrival can wait a tick or two (~50 ms
   each) for the runtime lock; this outlasts both, and a registry
   workload at default fuel (~0.3 s) does not. *)
let long_source =
  {|int a[64];
    int main(void) {
      int i;
      for (i = 0; i < 1000000; i = i + 1)
        a[i % 64] = a[(i + 7) % 64] + 1;
      return a[0];
    }|}

(* Send the long request from its own thread, and return once stats
   show it running with nothing queued; the thread's reply lands in
   the returned cell. *)
let start_long path =
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
  let rec await_running () =
    match Jsonx.parse (oneshot path (Protocol.stats_request ~id:1)) with
    | Error e -> fail e
    | Ok json ->
      if stat json "queue_depth" = 0 && stat json "in_flight" = 1 then ()
      else if Atomic.get long <> None then
        fail "the long request finished before it was seen running"
      else begin
        Thread.delay 0.001;
        await_running ()
      end
  in
  await_running ();
  (long, long_t)

let test_serve_shed_under_burst () =
  with_server ~jobs:1 ~queue_limit:1 "shed" (fun _t path ->
      (* Overload is a precondition, not a race: the burst fires only
         once the long request has been seen holding the only worker. *)
      let long, long_t = start_long path in
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

(* One client's sequential requests each find the worker domain idle,
   so the worker runs every one: the dispatcher's own domain runs a
   request only while every worker is busy.  Forty rather than a few: a
   worker's pool future can resolve milliseconds after its reply
   reached the client, and a dispatcher that counted busy workers by
   unresolved futures then sent a request to its own domain. *)
let test_serve_dispatch_to_idle_worker () =
  let n = 40 in
  let workloads = [| "awk"; "eqntott"; "ccom"; "espresso" |] in
  with_server ~jobs:2 "dispatch" (fun _t path ->
      let fd = connect_raw path in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          for id = 0 to n - 1 do
            let w = workloads.(id mod Array.length workloads) in
            let r =
              decoded
                (roundtrip fd
                   (analyze_payload ~id ~fuel:50_000 ~workload:w
                      [ "sp-cd-mf" ]))
            in
            check bool (w ^ " answered ok") true r.Protocol.r_ok
          done);
      check int "the worker took every one" n
        (scraped path "pool_steals_total"))

(* Two clients in lockstep rounds: a round's two requests run at once,
   the worker taking at least one, and every reply is the bytes a
   one-domain daemon sends (modulo the cached flag). *)
let test_serve_two_clients_lockstep () =
  let rounds =
    [ ("eqntott", "awk"); ("ccom", "espresso"); ("awk", "gcc");
      ("latex", "eqntott") ]
  in
  let serve ~jobs name =
    with_server ~jobs name (fun _t path ->
        let a = connect_raw path and b = connect_raw path in
        Fun.protect
          ~finally:(fun () -> Unix.close a; Unix.close b)
          (fun () ->
            let send fd ~id w =
              match
                Protocol.write_frame fd
                  (analyze_payload ~id ~fuel:50_000 ~workload:w
                     [ "base"; "sp-cd-mf" ])
              with
              | Ok () -> ()
              | Error e -> fail ("write: " ^ e)
            in
            let recv fd =
              match Protocol.read_frame fd with
              | Ok s -> normalize_cached s
              | Error _ -> fail "no response frame"
            in
            let replies =
              List.concat
                (List.mapi
                   (fun id (wa, wb) ->
                     send a ~id wa;
                     send b ~id wb;
                     let ra = recv a in
                     [ ra; recv b ])
                   rounds)
            in
            (replies, scraped path "pool_steals_total")))
  in
  let want, _ = serve ~jobs:1 "lockstep-1" in
  let got, steals = serve ~jobs:2 "lockstep-2" in
  List.iteri
    (fun i (w, g) ->
      check bool (Printf.sprintf "reply %d ok" i) true (decoded g).Protocol.r_ok;
      check string (Printf.sprintf "reply %d == jobs 1" i) w g)
    (List.combine want got);
  check bool
    (Printf.sprintf "the worker took %d of 8, at least half" steals)
    true (steals >= 4)

(* A drain while a request runs on the worker: the dispatcher awaits it
   before the teardown goes on, so a connection still open meanwhile
   is answered (shed, typed) rather than cut, and the running request's
   reply lands. *)
let test_serve_drain_awaits_worker () =
  with_server ~jobs:2 "drain-worker" (fun t path ->
      let other = connect_raw path in
      Fun.protect
        ~finally:(fun () -> try Unix.close other with Unix.Unix_error _ -> ())
        (fun () ->
          let long, long_t = start_long path in
          (* the dispatcher has popped it; wait for the worker's take *)
          let rec await_worker () =
            if scraped path "pool_steals_total" = 1 then ()
            else if Atomic.get long <> None then
              fail "the long request finished before the worker took it"
            else begin
              Thread.delay 0.001;
              await_worker ()
            end
          in
          await_worker ();
          Server.drain t;
          (* past the teardown's start, well inside the long request *)
          Thread.delay 0.1;
          let r =
            match
              Protocol.write_frame other
                (analyze_payload ~id:1 ~fuel:50_000 ~workload:"awk"
                   [ "sp-cd-mf" ])
            with
            | Error e -> fail ("connection cut during the drain: " ^ e)
            | Ok () -> (
              match Protocol.read_frame other with
              | Ok resp -> decoded resp
              | Error _ -> fail "connection cut during the drain")
          in
          check bool "shed while draining" true
            (r.Protocol.r_error_cause = Some "overloaded");
          check bool "the long request was still running" true
            (Atomic.get long = None);
          Thread.join long_t;
          check bool "the running request's reply landed" true
            (decoded (Option.get (Atomic.get long))).Protocol.r_ok;
          Server.wait t))

(* A count below 1 is refused before the compile cache, admission and
   the queue: after a refused deadline and a refused fuel, the first
   valid request for the same workload still compiles. *)
(* Each refusal names its own workload, and the next valid request
   for that workload is its first compile: the refusal cost no compile
   and no cache slot. *)
let test_serve_refused_before_cache () =
  with_server "refused" (fun _t path ->
      let member_str name j = Jsonx.(Option.bind (member name j) to_str) in
      let refused ?(cause = "invalid_request") what workload payload =
        let resp = oneshot path (payload ~workload) in
        check (Alcotest.option string) (what ^ " refused") (Some cause)
          (error_cause resp);
        (match Jsonx.parse resp with
        | Ok j ->
          check (Alcotest.option string) (what ^ ": reply names its workload")
            (Some workload)
            (Option.bind (Jsonx.member "error" j) (member_str "workload"))
        | Error e -> fail e);
        let ok =
          oneshot path
            (analyze_payload ~id:1 ~fuel:50_000 ~workload [ "sp-cd-mf" ])
        in
        match Jsonx.parse ok with
        | Ok j ->
          check bool (what ^ ": valid request answered") true
            (decoded ok).Protocol.r_ok;
          check (Alcotest.option bool)
            (what ^ ": valid request compiled, not cached")
            (Some false)
            Jsonx.(Option.bind (member "cached" j) to_bool)
        | Error e -> fail e
      in
      let with_mem_words mem_words ~workload =
        Protocol.analyze_request ~id:1
          (Protocol.analyze ~workload ~machines:[ "sp-cd-mf" ] ~mem_words ())
      in
      refused "deadline 0" "awk"
        (analyze_payload ~id:1 ~deadline_ms:0 [ "sp-cd-mf" ]);
      refused "fuel 0" "eqntott" (analyze_payload ~id:1 ~fuel:0 [ "sp-cd-mf" ]);
      refused "mem_words 0" "ccom" (with_mem_words 0);
      refused ~cause:"budget_exceeded" "mem_words above the maximum"
        "espresso"
        (with_mem_words (Vm.Exec.max_mem_words + 1)))

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
  [ Alcotest.test_case "rqueue: sheds when full, FIFO" `Quick
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
    Alcotest.test_case "protocol: error replies pinned per cause" `Quick
      test_error_replies_pinned;
    Alcotest.test_case "serve: ping/stats, duplicate ids refused" `Quick
      test_serve_ping_and_stats;
    Alcotest.test_case "serve: reply == one-shot, cache flagged" `Slow
      test_serve_analyze_matches_oneshot;
    Alcotest.test_case "serve: metrics scrape exports counters" `Quick
      test_serve_metrics_scrape;
    Alcotest.test_case "serve: injected request defaults to SP-CD-MF" `Quick
      test_serve_inject_default_machine;
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
    Alcotest.test_case "serve: sequential requests all go to the worker"
      `Quick test_serve_dispatch_to_idle_worker;
    Alcotest.test_case "serve: two lockstep clients == jobs 1, worker busy"
      `Slow test_serve_two_clients_lockstep;
    Alcotest.test_case "serve: drain awaits the worker's request" `Slow
      test_serve_drain_awaits_worker;
    Alcotest.test_case "serve: counts below 1 refused before the cache"
      `Quick test_serve_refused_before_cache;
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
