(* Unit tests for the benchmark's own arithmetic: the percentile rule,
   reference-speed bracketing, span self time, and the expected-outputs
   table. *)

open Perfbench

let feq = Alcotest.float 1e-9

(* Nearest rank: the smallest sample with at least p% of the samples at
   or below it.  No interpolation between samples. *)
let percentile_nearest_rank () =
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  Alcotest.check feq "p50 of 1..10" 5.0 (Refclock.percentile 50.0 xs);
  Alcotest.check feq "p90 of 1..10" 9.0 (Refclock.percentile 90.0 xs);
  Alcotest.check feq "p91 of 1..10" 10.0 (Refclock.percentile 91.0 xs);
  Alcotest.check feq "p100" 10.0 (Refclock.percentile 100.0 xs);
  Alcotest.check feq "p0 is the minimum" 1.0 (Refclock.percentile 0.0 xs);
  Alcotest.check feq "one sample" 7.0 (Refclock.percentile 90.0 [| 7.0 |]);
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p90 of 1..100 leaves ten above" 90.0
    (Refclock.percentile 90.0 xs);
  Alcotest.check feq "median of an even count is the lower middle" 2.0
    (Refclock.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.check_raises "no samples" (Invalid_argument "percentile: no samples")
    (fun () -> ignore (Refclock.percentile 50.0 [||]))

let bracketing () =
  let n = Refclock.nominal_ms in
  Alcotest.check feq "host at reference speed" 100.0
    (Refclock.scale ~before:n ~after:n 100.0);
  Alcotest.check feq "host twice as slow" 50.0
    (Refclock.scale ~before:(2.0 *. n) ~after:(2.0 *. n) 100.0);
  Alcotest.check feq "mean of the two kernels" 80.0
    (Refclock.scale ~before:(n *. 1.0) ~after:(n *. 1.5) 100.0)

(* The kernel must not move the GC state of the ops it brackets. *)
let kernel_allocates_nothing () =
  ignore (Refclock.kernel_ms ~domains:1);
  let w0 = Gc.minor_words () in
  let ms = Refclock.kernel_ms ~domains:1 in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "took time" true (ms > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f words" words)
    true (words < 64.0)

let span id parent start stop =
  { Spans.id; name = string_of_int id; parent; op = 0;
    start_ns = Int64.of_int start; stop_ns = Int64.of_int stop }

let self_time () =
  let root = span 0 (-1) 0 100 in
  let all =
    [ root; span 1 0 10 30; span 2 0 20 50; span 3 0 60 70;
      span 4 1 12 14 (* a grandchild: covered by its parent already *);
      span 5 0 90 120 (* runs past the root: clipped *) ]
  in
  Alcotest.check feq "overlapping children counted once" 40.0
    (Spans.self_ns all root);
  Alcotest.check feq "leaf span" 30.0 (Spans.self_ns all (span 3 0 60 90));
  Alcotest.check feq "child self time" 18.0 (Spans.self_ns all (List.nth all 1))

let recorded_spans () =
  let t = Spans.create () in
  Spans.set_op t 3;
  Spans.with_span t "outer" (fun () ->
      Spans.with_span t "inner" (fun () -> ());
      (try Spans.with_span t "raises" (fun () -> failwith "x")
       with Failure _ -> ()));
  match Spans.spans t with
  | [ inner; raises; outer ] ->
    Alcotest.(check string) "closing order" "outer" outer.name;
    Alcotest.(check int) "inner's parent" outer.id inner.parent;
    Alcotest.(check int) "a raising span still closes" outer.id raises.parent;
    Alcotest.(check int) "root" (-1) outer.parent;
    Alcotest.(check int) "op id" 3 outer.op
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let table =
  [ "# program fuel spec counted cycles dyn_branches mispredicts completeness ret";
    "awk 100 sp-cd-mf,vp 90 40 12 3 out_of_fuel -";
    "gcc 100 base 80 70 10 2 complete 42" ]

let expected_table () =
  let t = Result.get_ok (Expected.of_lines table) in
  let row =
    { Expected.counted = 90; cycles = 40; dyn_branches = 12; mispredicts = 3;
      completeness = "out_of_fuel"; ret = "-" }
  in
  let ok r = Result.is_ok r in
  Alcotest.(check bool) "matching row" true
    (ok (Expected.check t ~program:"awk" ~fuel:100 ~spec:"sp-cd-mf,vp" row));
  Alcotest.(check bool) "one value off" false
    (ok (Expected.check t ~program:"awk" ~fuel:100 ~spec:"sp-cd-mf,vp"
           { row with cycles = 41 }));
  Alcotest.(check bool) "unknown key" false
    (ok (Expected.check t ~program:"awk" ~fuel:101 ~spec:"sp-cd-mf,vp" row));
  let halted = { row with counted = 80; cycles = 70; dyn_branches = 10;
                          mispredicts = 2; completeness = "complete" } in
  Alcotest.(check bool) "return value unseen" true
    (ok (Expected.check t ~program:"gcc" ~fuel:100 ~spec:"base" halted));
  Alcotest.(check bool) "return value seen" true
    (ok (Expected.check t ~program:"gcc" ~fuel:100 ~spec:"base" ~ret:"42" halted));
  Alcotest.(check bool) "wrong return value" false
    (ok (Expected.check t ~program:"gcc" ~fuel:100 ~spec:"base" ~ret:"41" halted));
  Alcotest.(check bool) "duplicate key refused" true
    (Result.is_error (Expected.of_lines (table @ [ List.nth table 1 ])));
  Alcotest.(check bool) "malformed row refused" true
    (Result.is_error (Expected.of_lines [ "awk 100 base 1 2 3" ]))

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "percentile is nearest-rank" `Quick
            percentile_nearest_rank;
          Alcotest.test_case "bracketing scales by the kernel mean" `Quick
            bracketing;
          Alcotest.test_case "the kernel allocates nothing" `Quick
            kernel_allocates_nothing;
          Alcotest.test_case "self time subtracts covered child time" `Quick
            self_time;
          Alcotest.test_case "spans nest and close" `Quick recorded_spans;
          Alcotest.test_case "expected table checks every field" `Quick
            expected_table ] ) ]
