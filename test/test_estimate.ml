(* Static parallelism estimator: soundness of the machine bounds
   (static >= measured, for every workload x paper machine and for
   qcheck-random lattice points), run-length facts and component
   goldens on hand-built programs, and the dynamic cross-checks of the
   branch classification — statically-decided branches never change
   direction at run time, unreachable code never executes, and loop
   trip bounds hold per activation. *)

module I = Risc.Insn
module P = Asm.Program
module R = Risc.Reg

let check ty = Alcotest.check ty
let bool = Alcotest.bool
let int = Alcotest.int

let prepare w = Harness.prepare w

let estimate_of flat = Cfg.Estimate.compute (Cfg.Analysis.analyze flat)

let main_halt body = { P.name = "main"; body = body @ [ P.Ins I.Halt ] }

let prog ?(procs = []) main_body =
  { P.procs = main_halt main_body :: procs; data = []; entry = "main" }

(* --- soundness: bound >= measured parallelism ---------------------- *)

(* One prepared execution per workload (truncated for speed), analyzed
   for every paper machine; the static bound compiled from the same
   flat program must dominate each measured parallelism. *)
let soundness_workloads () =
  let fuel = 40_000 in
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let specs =
        List.map (fun m -> Harness.spec m) Ilp.Machine.all_paper
      in
      match
        Harness.Run.exec
          (Harness.Run.config ~fuel specs)
          [ w ]
      with
      | Error e ->
        Alcotest.failf "%s: %a" w.name Pipeline_error.pp e
      | Ok [ { it_outcome = Error e; _ } ] ->
        Alcotest.failf "%s: %a" w.name Pipeline_error.pp e
      | Ok [ { it_outcome = Ok results; _ } ] ->
        let p = prepare w in
        let est = estimate_of p.flat in
        List.iter2
          (fun (m : Ilp.Machine.t) (r : Ilp.Analyze.result) ->
            let b = Ilp.Static_bound.compile est p.info m in
            if r.parallelism > b.bound +. 1e-9 then
              Alcotest.failf "%s/%s: measured %.2f > static bound %s"
                w.name r.machine r.parallelism
                (Ilp.Static_bound.value_to_string b.bound))
          Ilp.Machine.all_paper results
      | Ok _ -> Alcotest.fail "one workload in, one item out")
    Workloads.Registry.all

(* The same property at qcheck-random machine lattice points, over
   small compiled programs: whatever combination of control model,
   flows, window, fetch and latencies the generator picks, the static
   bound must dominate the measured parallelism. *)
let small_sources =
  [ ( "branchy",
      {|int main(void) { int i; int s = 0;
         for (i = 0; i < 120; i = i + 1) {
           if (i % 3 == 0) s = s + i;
           else if (i % 5 == 0) s = s - 1;
         }
         return s; }|} );
    ( "recursive",
      {|int fib(int n) {
         if (n < 2) return n;
         return fib(n - 1) + fib(n - 2);
       }
       int main(void) { return fib(12); }|} );
    ( "memory",
      {|int a[32];
        int main(void) { int i; int s = 0;
         for (i = 0; i < 32; i = i + 1) a[i] = i * i;
         for (i = 1; i < 32; i = i + 1) s = s + a[i] - a[i - 1];
         return s; }|} ) ]

let prepared_small =
  lazy
    (List.map
       (fun (name, src) ->
         let p = Harness.prepare_source ~name src in
         (name, p, estimate_of p.flat))
       small_sources)

let test_random_machines_sound =
  QCheck.Test.make ~name:"random machines: static bound >= measured"
    ~count:60
    QCheck.(make Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let m = Ilp.Machine.random seed in
      let progs = Lazy.force prepared_small in
      let name, p, est = List.nth progs (seed mod List.length progs) in
      let b = Ilp.Static_bound.compile est p.info m in
      match Harness.Run.on_prepared p [ Harness.spec m ] with
      | [ r ] ->
        if r.parallelism > b.bound +. 1e-9 then
          QCheck.Test.fail_reportf
            "%s on %s: measured %.3f > static bound %s" name
            (Ilp.Machine.to_spec m) r.parallelism
            (Ilp.Static_bound.value_to_string b.bound);
        true
      | _ -> QCheck.Test.fail_report "one spec in, one result out")

(* --- run-length and component goldens ------------------------------ *)

(* Straight-line code: every non-halt instruction is counted, none is
   a breaker, so M is the whole program. *)
let test_straightline_m () =
  let est =
    estimate_of
      (P.resolve
         (prog
            [ P.Ins (I.Li (8, 1));
              P.Ins (I.Li (9, 2));
              P.Ins (I.Alu (I.Add, 10, 8, 9));
              P.Ins (I.Alu (I.Mul, 11, 10, 10));
              P.Ins (I.Alu (I.Sub, 12, 11, 8));
              P.Ins (I.Alui (I.Add, R.rv, 12, 0)) ]))
  in
  (match est.max_run with
  | Cfg.Estimate.Finite m -> check int "M = counted straightline" 6 m
  | Cfg.Estimate.Unbounded -> Alcotest.fail "straightline M unbounded");
  check bool "halt is not counted" false
    (Cfg.Estimate.counted est ~pc:6);
  check bool "alu is not a breaker" false
    (Cfg.Estimate.breaker est ~pc:2)

(* A data-dependent branch is a breaker and caps M on each side. *)
let test_branch_breaks_runs () =
  let flat =
    P.resolve
      (prog
         [ P.Ins (I.Lw (8, R.sp, 0));
           P.Ins (I.Li (9, 1));
           P.Ins (I.Bi (I.Eq, 8, 0, "yes"));
           P.Ins (I.Li (10, 111));
           P.Label "yes";
           P.Ins (I.Li (11, 222)) ])
  in
  let est = estimate_of flat in
  check bool "branch is a breaker" true (Cfg.Estimate.breaker est ~pc:2);
  match est.max_run with
  | Cfg.Estimate.Finite m ->
    (* longest run: the 3 counted instructions up to and including the
       branch *)
    check bool "runs are capped by the breaker" true (m <= 3)
  | Cfg.Estimate.Unbounded -> Alcotest.fail "bounded program, unbounded M"

(* Fetch golden: an oracle machine with fetch 2 and unit latencies is
   bounded by exactly 2, with "fetch" the limiting component, and the
   measured parallelism respects it. *)
let test_fetch_bound_golden () =
  let _, p, est =
    match Lazy.force prepared_small with x :: _ -> x | [] -> assert false
  in
  let m =
    Ilp.Machine.of_constraints
      [ Ilp.Machine.Control Ilp.Machine.Oracle;
        Ilp.Machine.Fetch (Some 2) ]
  in
  let b = Ilp.Static_bound.compile est p.info m in
  check (Alcotest.float 1e-9) "fetch-2 oracle bound" 2.0 b.bound;
  check (Alcotest.option Alcotest.string) "limiting component"
    (Some "fetch") b.limiting;
  match Harness.Run.on_prepared p [ Harness.spec m ] with
  | [ r ] ->
    check bool "measured <= 2" true (r.parallelism <= 2.0 +. 1e-9)
  | _ -> Alcotest.fail "one spec in, one result out"

(* A machine with every constraint at the ideal has no static bound. *)
let test_oracle_unbounded () =
  let _, p, est =
    match Lazy.force prepared_small with x :: _ -> x | [] -> assert false
  in
  let b = Ilp.Static_bound.compile est p.info Ilp.Machine.oracle in
  check bool "oracle is statically unbounded" true (b.bound = infinity);
  check (Alcotest.option Alcotest.string) "nothing limits" None b.limiting

(* --- dynamic cross-checks of the classification (S3) --------------- *)

(* Replay a prepared trace against the static classification:
   - a Decided branch must take its predicted direction on every
     dynamic execution;
   - an Unreachable branch (SCCP-pruned block) must never appear;
   - no instruction of an unexecutable block may retire;
   - a Loop_exit trip bound caps header visits per loop activation
     (activation = entry into the loop body from outside). *)
let cross_check_prepared name (p : Harness.prepared) =
  let a = Cfg.Analysis.analyze p.flat in
  let sccp = Cfg.Sccp.run a in
  let classes = Cfg.Classify.classify a ~sccp in
  let g = a.graph in
  (* branch pc -> class *)
  let klass = Hashtbl.create 64 in
  Array.iter
    (fun (b : Cfg.Classify.branch) ->
      Hashtbl.replace klass b.b_pc b.b_class)
    classes.Cfg.Classify.branches;
  (* global block id -> executable? *)
  let executable =
    Array.map
      (fun (b : Cfg.Graph.block) ->
        let v = a.views.(b.proc) in
        match Cfg.View.local v b.id with
        | Some l -> Cfg.Sccp.executable sccp.(b.proc) l
        | None -> true)
      g.blocks
  in
  (* loops with a static trip bound *)
  let bounded_loops =
    List.filter_map
      (fun (l : Cfg.Loops.loop) ->
        match Hashtbl.find_opt classes.Cfg.Classify.trips l.header with
        | Some k ->
          let body = Hashtbl.create 8 in
          List.iter (fun b -> Hashtbl.replace body b ()) l.body;
          Some (l.header, g.blocks.(l.header).start, body, k, ref 0)
        | None -> None)
      a.loops.Cfg.Loops.loops
  in
  let checked = ref 0 in
  Vm.Trace.iter
    (fun ~pc ~aux ->
      (match Hashtbl.find_opt klass pc with
      | Some (Cfg.Classify.Decided d) ->
        incr checked;
        if aux = 1 <> d then
          Alcotest.failf
            "%s: decided branch at pc %d went %s, predicted %s" name pc
            (if aux = 1 then "taken" else "fallthrough")
            (if d then "taken" else "fallthrough")
      | Some Cfg.Classify.Unreachable ->
        Alcotest.failf "%s: SCCP-unreachable branch at pc %d executed"
          name pc
      | Some _ | None -> ());
      let blk = g.block_of.(pc) in
      if not executable.(blk) then
        Alcotest.failf "%s: pc %d retired in unexecutable block %d" name
          pc blk;
      List.iter
        (fun (header, header_pc, body, k, count) ->
          if Hashtbl.mem body blk then begin
            if pc = header_pc then begin
              incr count;
              if !count > k then
                Alcotest.failf
                  "%s: loop at block %d ran %d headers in one \
                   activation, static trip bound %d"
                  name header !count k
            end
          end
          else count := 0)
        bounded_loops)
    (Recorded.trace p);
  !checked

let test_workload_classification_dynamic () =
  List.iter
    (fun (w : Workloads.Registry.t) ->
      ignore (cross_check_prepared w.name (Harness.prepare ~fuel:60_000 w)))
    Workloads.Registry.all

(* Synthetic decided branches: SCCP folds with the VM's own eval_cond,
   so on any generated constant pair the static direction must equal
   the dynamic one. *)
let gen_decided =
  QCheck.Gen.(
    let cond = oneofl [ I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge ] in
    triple cond (int_range (-5) 5) (int_range (-5) 5))

let print_decided (c, a, b) =
  Printf.sprintf "(%s, %d, %d)"
    (match c with
    | I.Eq -> "Eq" | I.Ne -> "Ne" | I.Lt -> "Lt"
    | I.Le -> "Le" | I.Gt -> "Gt" | I.Ge -> "Ge")
    a b

let test_synthetic_decided =
  QCheck.Test.make ~name:"synthetic decided branches match the VM"
    ~count:100
    (QCheck.make gen_decided ~print:print_decided)
    (fun (cond, c1, c2) ->
      let flat =
        P.resolve
          (prog
             [ P.Ins (I.Li (8, c1));
               P.Ins (I.Li (9, c2));
               P.Ins (I.B (cond, 8, 9, "yes"));
               P.Ins (I.Alui (I.Add, 10, 10, 1));
               P.Label "yes";
               P.Ins (I.Alui (I.Add, 11, 11, 1)) ])
      in
      let a = Cfg.Analysis.analyze flat in
      let sccp = Cfg.Sccp.run a in
      let expected = I.eval_cond cond c1 c2 in
      (match Cfg.Sccp.decided_branch sccp.(0) ~pc:2 with
      | Some d when d = expected -> ()
      | Some d ->
        QCheck.Test.fail_reportf "folded %b, eval_cond says %b" d expected
      | None -> QCheck.Test.fail_report "constant branch not decided");
      let outcome = Vm.Exec.run ~fuel:100 flat in
      (match outcome.status with
      | Vm.Exec.Halted _ -> ()
      | s ->
        QCheck.Test.fail_reportf "vm: %s" (Vm.Exec.status_string s));
      let agreed = ref false in
      Vm.Trace.iter
        (fun ~pc ~aux ->
          if pc = 2 then begin
            agreed := true;
            if aux = 1 <> expected then
              QCheck.Test.fail_reportf
                "dynamic direction %b, static %b" (aux = 1) expected
          end)
        outcome.trace;
      !agreed)

let suite =
  [ Alcotest.test_case "soundness: all workloads x paper machines" `Slow
      soundness_workloads;
    QCheck_alcotest.to_alcotest test_random_machines_sound;
    Alcotest.test_case "straightline M" `Quick test_straightline_m;
    Alcotest.test_case "branches break runs" `Quick
      test_branch_breaks_runs;
    Alcotest.test_case "fetch-2 oracle golden" `Quick
      test_fetch_bound_golden;
    Alcotest.test_case "oracle statically unbounded" `Quick
      test_oracle_unbounded;
    Alcotest.test_case "classification holds dynamically (all \
                        workloads)" `Slow
      test_workload_classification_dynamic;
    QCheck_alcotest.to_alcotest test_synthetic_decided ]
