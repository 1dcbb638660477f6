(* Diagnostics-engine framework tests: configuration (disable,
   strict), deterministic ordering, JSON rendering, timings, and
   observability wiring. *)

module I = Risc.Insn
module P = Asm.Program
module R = Risc.Reg
module E = Cfg.Engine

let main_halt body = { P.name = "main"; body = body @ [ P.Ins I.Halt ] }

let prog ?(procs = []) main_body =
  { P.procs = main_halt main_body :: procs; data = []; entry = "main" }

(* A program carrying two warning classes: a dead store at pc 0 and an
   unreachable block (the instruction jumped over). *)
let warny =
  prog
    [ P.Ins (I.Li (9, 5));
      P.Ins (I.J "skip");
      P.Ins (I.Li (8, 1));
      P.Label "skip";
      P.Ins (I.Li (9, 6));
      P.Ins (I.Alui (I.Add, R.rv, 9, 0)) ]

let run ?obs ?config p =
  E.run ?obs ?config Cfg.Verify.passes (Cfg.Analysis.analyze (P.resolve p))

let passes_hit r =
  List.sort_uniq compare (List.map (fun (d : E.diag) -> d.d_pass) r.E.diags)

let test_baseline () =
  let r = run warny in
  Alcotest.(check int) "no errors" 0 r.n_errors;
  Alcotest.(check bool) "has warnings" true (r.n_warnings > 0);
  Alcotest.(check bool) "dead-store fires" true
    (List.mem "dead-store" (passes_hit r));
  Alcotest.(check bool) "unreachable-block fires" true
    (List.mem "unreachable-block" (passes_hit r));
  Alcotest.(check bool) "max severity is warning" true
    (E.max_severity r = Some E.Warning)

let test_disable () =
  let config = { E.default_config with disabled = [ "dead-store" ] } in
  let r = run ~config warny in
  Alcotest.(check bool) "dead-store silenced" false
    (List.mem "dead-store" (passes_hit r));
  Alcotest.(check bool) "other passes still run" true
    (List.mem "unreachable-block" (passes_hit r));
  Alcotest.(check bool) "disabled pass is not timed" false
    (List.exists (fun (t : E.timing) -> t.t_pass = "dead-store") r.timings)

let test_strict () =
  let r = run ~config:{ E.default_config with strict = true } warny in
  Alcotest.(check int) "strict leaves no warnings" 0 r.n_warnings;
  Alcotest.(check bool) "strict promotes to errors" true (r.n_errors > 0)

(* Diagnostics in several procedures must come out sorted by
   (procedure, pc, pass name). *)
let test_ordering () =
  let p =
    prog
      ~procs:
        [ { P.name = "f";
            body =
              [ P.Ins (I.Li (9, 5));
                P.Ins (I.Li (9, 6));
                P.Ins (I.Alui (I.Add, R.rv, 9, 0));
                P.Ins (I.Jr R.ra) ] } ]
      [ P.Ins (I.Li (9, 5));
        P.Ins (I.J "skip");
        P.Ins (I.Li (8, 1));
        P.Label "skip";
        P.Ins (I.Li (9, 6));
        P.Ins (I.Alui (I.Add, R.rv, 9, 0));
        P.Ins (I.Jal "f") ]
  in
  let r = run p in
  Alcotest.(check bool) "diags span two procedures" true
    (List.exists (fun (d : E.diag) -> d.d_proc = 1) r.diags);
  let keys =
    List.map (fun (d : E.diag) -> (d.d_proc, d.d_pc, d.d_pass)) r.diags
  in
  Alcotest.(check bool) "sorted by (proc, pc, pass)" true
    (keys = List.sort compare keys)

let test_timings () =
  let r = run warny in
  Alcotest.(check int) "one timing per enabled pass"
    (List.length Cfg.Verify.passes)
    (List.length r.timings);
  let total_timed =
    List.fold_left (fun acc (t : E.timing) -> acc + t.t_diags) 0 r.timings
  in
  Alcotest.(check int) "timed diag counts add up"
    (List.length r.diags) total_timed;
  List.iter
    (fun (t : E.timing) ->
      Alcotest.(check bool) (t.t_pass ^ " has a duration") true
        (Int64.compare t.t_ns 0L >= 0))
    r.timings

let test_render_json () =
  let r = run warny in
  let s = Stdx.Jsonx.to_string (E.to_json r) in
  let has sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "diagnostics key" true (has "\"diagnostics\"");
  Alcotest.(check bool) "errors key" true (has "\"errors\"");
  Alcotest.(check bool) "warnings key" true (has "\"warnings\"");
  Alcotest.(check bool) "passes key" true (has "\"passes\"");
  Alcotest.(check bool) "dead-store class appears" true
    (has "\"dead-store\"")

let test_metrics_and_spans () =
  let registry = Obs.Metrics.create () in
  let obs = Obs.Ctx.create ~registry () in
  let r = run ~obs warny in
  let dead =
    List.length
      (List.filter (fun (d : E.diag) -> d.d_pass = "dead-store") r.diags)
  in
  Alcotest.(check bool) "a dead store was found" true (dead > 0);
  let c =
    Obs.Metrics.counter registry "verify_diagnostics_total{class=\"dead-store\"}"
  in
  Alcotest.(check int) "diag counter matches report" dead
    (Obs.Metrics.counter_value c);
  let ns =
    Obs.Metrics.counter registry "static_pass_ns{pass=\"dead-store\"}"
  in
  Alcotest.(check bool) "pass time recorded" true
    (Obs.Metrics.counter_value ns >= 0);
  let spans = Obs.Ctx.spans obs in
  Alcotest.(check bool) "per-pass spans recorded" true
    (Array.length spans >= List.length Cfg.Verify.passes)

let suite =
  [ Alcotest.test_case "baseline run" `Quick test_baseline;
    Alcotest.test_case "disable a pass" `Quick test_disable;
    Alcotest.test_case "strict promotion" `Quick test_strict;
    Alcotest.test_case "deterministic ordering" `Quick test_ordering;
    Alcotest.test_case "per-pass timings" `Quick test_timings;
    Alcotest.test_case "json rendering" `Quick test_render_json;
    Alcotest.test_case "metrics and spans" `Quick test_metrics_and_spans ]
