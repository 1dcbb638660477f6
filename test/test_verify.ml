(* Static verifier tests: generated and registry programs must verify
   clean; hand-built negative programs must each trip exactly the
   diagnostic class they were built to trip.  The dynamic checker is
   exercised both ways too: a clean loop replays with zero violations,
   and a path-sensitive uninitialized read that statics can only warn
   about is caught at run time. *)

module I = Risc.Insn
module P = Asm.Program
module R = Risc.Reg
module V = Cfg.Verify
module E = Cfg.Engine

let verify flat = E.run V.passes (Cfg.Analysis.analyze flat)
let report_of (prog : P.t) = verify (P.resolve prog)

let with_severity sev (r : E.report) =
  List.filter (fun (d : E.diag) -> d.d_severity = sev) r.diags

(* Passes are named by their diagnostic class, so a diagnostic's pass
   name identifies the class it trips. *)
let check_only_error kind prog =
  let r = report_of prog in
  Alcotest.(check (list string))
    ("errors are " ^ V.kind_name kind)
    [ V.kind_name kind ]
    (List.map (fun (d : E.diag) -> d.d_pass) (with_severity E.Error r))

let main_halt body = { P.name = "main"; body = body @ [ P.Ins I.Halt ] }

let prog ?(procs = []) main_body =
  { P.procs = main_halt main_body :: procs; data = []; entry = "main" }

(* --- negatives: one program per error class ------------------------- *)

let test_bad_branch_target () =
  (* Label scope is global, so a branch can name a label in another
     procedure; the verifier must reject the resolved target. *)
  check_only_error V.Bad_branch_target
    (prog
       ~procs:
         [ { P.name = "other";
             body =
               [ P.Label "elsewhere"; P.Ins (I.Li (9, 1)); P.Ins (I.Jr R.ra) ]
           } ]
       [ P.Ins (I.Li (8, 1)); P.Ins (I.Bi (I.Eq, 8, 0, "elsewhere")) ])

let test_bad_jtab_target () =
  check_only_error V.Bad_jtab_target
    (prog
       ~procs:
         [ { P.name = "other";
             body =
               [ P.Label "case_x"; P.Ins (I.Li (9, 1)); P.Ins (I.Jr R.ra) ]
           } ]
       [ P.Ins (I.Li (8, 0));
         P.Ins (I.Jtab (8, [| "case_home"; "case_x" |]));
         P.Label "case_home";
         P.Ins (I.Li (10, 1)) ])

let test_bad_call_target () =
  check_only_error V.Bad_call_target
    (prog
       ~procs:
         [ { P.name = "f";
             body =
               [ P.Ins (I.Li (8, 1)); P.Label "mid"; P.Ins (I.Jr R.ra) ]
           } ]
       [ P.Ins (I.Jal "mid") ])

let test_fallthrough_off_end () =
  check_only_error V.Fallthrough_off_end
    (prog ~procs:[ { P.name = "f"; body = [ P.Ins (I.Li (9, 1)) ] } ] [])

let test_ret_discipline () =
  check_only_error V.Ret_discipline
    (prog
       ~procs:
         [ { P.name = "f";
             body = [ P.Ins (I.Li (8, 100)); P.Ins (I.Jr 8) ] } ]
       [])

let test_sp_discipline () =
  check_only_error V.Sp_discipline (prog [ P.Ins (I.Li (R.sp, 100)) ])

let test_sp_imbalance () =
  (* Frame opened, never closed before the return. *)
  check_only_error V.Sp_imbalance
    (prog
       ~procs:
         [ { P.name = "f";
             body =
               [ P.Ins (I.Alui (I.Add, R.sp, R.sp, -8)); P.Ins (I.Jr R.ra) ]
           } ]
       [])

let test_uninit_read () =
  (* A temporary is not live across calls, so a fresh procedure reading
     one sees an uninitialized register on every path. *)
  check_only_error V.Uninit_read
    (prog
       ~procs:
         [ { P.name = "f";
             body = [ P.Ins (I.Alui (I.Add, 2, 8, 0)); P.Ins (I.Jr R.ra) ] } ]
       [])

let has_warning kind r =
  List.exists
    (fun (d : E.diag) -> d.d_pass = V.kind_name kind)
    (with_severity E.Warning r)

let test_unreachable_block () =
  let r =
    report_of
      (prog [ P.Ins (I.J "skip"); P.Ins (I.Li (8, 1)); P.Label "skip" ])
  in
  Alcotest.(check int) "no errors" 0 r.n_errors;
  Alcotest.(check bool) "unreachable block flagged" true
    (has_warning V.Unreachable_block r)

let test_dead_store () =
  let r =
    report_of
      (prog
         [ P.Ins (I.Li (8, 5));
           P.Ins (I.Li (8, 6));
           P.Ins (I.Alui (I.Add, R.rv, 8, 0)) ])
  in
  Alcotest.(check int) "no errors" 0 r.n_errors;
  Alcotest.(check bool) "overwritten store flagged" true
    (List.exists
       (fun (d : E.diag) -> d.d_pass = V.kind_name V.Dead_store && d.d_pc = 0)
       (with_severity E.Warning r))

(* --- positives ------------------------------------------------------ *)

let test_random_programs_verify_clean =
  QCheck.Test.make ~name:"generated programs verify clean" ~count:40
    (QCheck.make ~print:(fun s -> s) Gen_minic.gen_program)
    (fun src ->
      let flat = Codegen.Compile.compile_flat src in
      let r = verify flat in
      if r.n_errors <> 0 then
        QCheck.Test.fail_reportf "verifier errors on generated program:@ %a"
          (Format.pp_print_list E.pp_diag)
          (with_severity E.Error r);
      true)

let test_workloads_verify_clean () =
  List.iter
    (fun (w : Workloads.Registry.t) ->
      match Harness.check w with
      | Ok res ->
        Alcotest.(check int)
          (w.name ^ " verifies without errors")
          0 res.c_engine.n_errors
      | Error e -> Alcotest.fail (Pipeline_error.to_string e))
    Workloads.Registry.all

(* --- dynamic cross-validation --------------------------------------- *)

let run_dynamic flat =
  let a = Cfg.Analysis.analyze flat in
  let d = V.Dynamic.create a in
  let outcome =
    Vm.Exec.run ~fuel:100_000 ~record:false ~sink:(V.Dynamic.sink d)
      ~observe:(V.Dynamic.observe d) flat
  in
  (match outcome.status with
  | Vm.Exec.Fault f ->
    Alcotest.fail
      (Format.asprintf "VM fault: %a" Pipeline_error.pp_fault f)
  | Halted _ | Out_of_fuel -> ());
  d

let test_dynamic_clean_loop () =
  let src =
    {|int main(void) { int i; int s = 0;
       for (i = 0; i < 10; i = i + 1) s = s + i;
       return s; }|}
  in
  let d = run_dynamic (Codegen.Compile.compile_flat src) in
  Alcotest.(check bool) "entries checked" true (V.Dynamic.entries d > 0);
  Alcotest.(check int) "no violations" 0 (V.Dynamic.n_violations d)

let test_dynamic_catches_uninit_path () =
  (* Statically r9 is initialized on one path, so the verifier only
     warns; dynamically the taken path skips the write and the read is
     a hard violation. *)
  let flat =
    P.resolve
      (prog
         [ P.Ins (I.Bi (I.Eq, R.zero, 0, "skip"));
           P.Ins (I.Li (9, 1));
           P.Label "skip";
           P.Ins (I.Alui (I.Add, 10, 9, 0)) ])
  in
  let r = verify flat in
  Alcotest.(check int) "static: no errors" 0 r.n_errors;
  Alcotest.(check bool) "static: warns" true
    (has_warning V.Maybe_uninit_read r);
  let d = run_dynamic flat in
  Alcotest.(check bool) "dynamic: violation caught" true
    (V.Dynamic.n_violations d > 0)

let suite =
  [ Alcotest.test_case "bad branch target" `Quick test_bad_branch_target;
    Alcotest.test_case "bad jtab target" `Quick test_bad_jtab_target;
    Alcotest.test_case "bad call target" `Quick test_bad_call_target;
    Alcotest.test_case "fallthrough off end" `Quick test_fallthrough_off_end;
    Alcotest.test_case "ret discipline" `Quick test_ret_discipline;
    Alcotest.test_case "sp discipline" `Quick test_sp_discipline;
    Alcotest.test_case "sp imbalance" `Quick test_sp_imbalance;
    Alcotest.test_case "uninit read" `Quick test_uninit_read;
    Alcotest.test_case "unreachable block" `Quick test_unreachable_block;
    Alcotest.test_case "dead store" `Quick test_dead_store;
    QCheck_alcotest.to_alcotest test_random_programs_verify_clean;
    Alcotest.test_case "workloads verify clean" `Quick
      test_workloads_verify_clean;
    Alcotest.test_case "dynamic clean loop" `Quick test_dynamic_clean_loop;
    Alcotest.test_case "dynamic uninit path" `Quick
      test_dynamic_catches_uninit_path ]
