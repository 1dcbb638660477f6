(* Robustness layer: typed VM faults, truncated-trace analysis,
   resource guards, deterministic fault injection, and the pipeline
   invariant (no exception ever escapes — fuzzed). *)

module I = Risc.Insn
module P = Asm.Program
module E = Pipeline_error

let run_insns ?fuel insns =
  let items = List.map (fun i -> P.Ins i) insns in
  let prog =
    { P.procs = [ { P.name = "main"; body = items } ]; data = []; entry = "main" }
  in
  Vm.Exec.run ?fuel ~mem_words:4096 (P.resolve prog)

let fault_kind_of = function
  | Vm.Exec.Fault f -> Some f.E.f_kind
  | Halted _ | Out_of_fuel -> None

let kind = Alcotest.testable (Fmt.of_to_string E.fault_kind_name) ( = )

(* One workload record per VM fault class, driven through the same
   Harness entry points the real registry uses. *)
let faulty_workload name source =
  { Workloads.Registry.name; description = "fault-class test"; lang = "C";
    numeric = false; source; fuel = 100_000; expected_result = None }

let div_workload =
  faulty_workload "divzero"
    "int main(void) { int i; int s = 1; for (i = 3; i + 3; i = i - 1) s = s \
     + 100 / i; return s; }"

let mem_workload =
  faulty_workload "memoob"
    "int a[4]; int main(void) { int i; int s = 0; for (i = 0; i < \
     100000000; i = i * 8 + 1) s = s + a[i]; return s; }"

(* --- VM fault classes ---------------------------------------------- *)

let test_vm_fault_classes () =
  let check name expected insns =
    let o = run_insns insns in
    Alcotest.(check (option kind)) name (Some expected)
      (fault_kind_of o.status);
    (* the typed fault also tags completeness for the analyzer *)
    match Vm.Exec.completeness_of o with
    | E.Truncated f ->
      Alcotest.(check kind) (name ^ " completeness") expected f.E.f_kind;
      Alcotest.(check int) (name ^ " step") o.steps f.E.f_step
    | E.Complete -> Alcotest.fail (name ^ ": expected Truncated")
  in
  check "div by zero" E.Div_by_zero
    [ I.Li (8, 3); I.Li (9, 0); I.Alu (I.Div, 2, 8, 9); I.Halt ];
  check "rem by zero" E.Div_by_zero
    [ I.Li (8, 3); I.Li (9, 0); I.Alu (I.Rem, 2, 8, 9); I.Halt ];
  check "load out of range" E.Mem_out_of_range
    [ I.Li (8, 1_000_000); I.Lw (9, 8, 0); I.Halt ];
  check "store out of range" E.Mem_out_of_range
    [ I.Li (8, -3); I.Sw (8, 8, 0); I.Halt ];
  check "pc out of range" E.Pc_out_of_range
    [ I.Li (8, 999_999); I.Jr 8 ]

let test_jtab_fault () =
  let prog =
    { P.procs =
        [ { P.name = "main";
            body =
              [ P.Ins (I.Li (8, 7));
                P.Ins (I.Jtab (8, [| "l0"; "l1" |]));
                P.Label "l0"; P.Ins I.Halt;
                P.Label "l1"; P.Ins I.Halt ] } ];
      data = []; entry = "main" }
  in
  let o = Vm.Exec.run ~mem_words:4096 (P.resolve prog) in
  Alcotest.(check (option kind)) "jtab" (Some E.Jtab_out_of_range)
    (fault_kind_of o.status)

(* --- faulting workloads through prepare / Run.exec ------------------ *)

let spec1 = [ Harness.spec Ilp.Machine.sp_cd_mf ]

(* One workload through Run.exec, as a result. *)
let exec_result ?fuel ?mem_words w specs =
  match
    Harness.Run.exec (Harness.Run.config ?fuel ?mem_words specs) [ w ]
  with
  | Ok [ it ] -> it.Harness.Run.it_outcome
  | Ok _ -> Alcotest.fail "one workload, one item"
  | Error e -> Error e

let exec ?fuel w specs =
  match exec_result ?fuel w specs with
  | Ok rs -> rs
  | Error e -> Alcotest.fail (E.to_string e)

let completeness_kind = function
  | E.Complete -> None
  | E.Truncated f -> Some f.E.f_kind

let test_prepare_faulting () =
  List.iter
    (fun (w, expected) ->
      let p = Harness.prepare w in
      Alcotest.(check (option kind)) (w.Workloads.Registry.name ^ " status")
        (Some expected) (fault_kind_of p.Harness.status);
      let results = Harness.Run.on_prepared p spec1 in
      List.iter
        (fun (r : Ilp.Analyze.result) ->
          Alcotest.(check (option kind))
            (w.Workloads.Registry.name ^ " analysis tag") (Some expected)
            (completeness_kind r.completeness);
          Alcotest.(check bool)
            (w.Workloads.Registry.name ^ " analyzed a prefix") true
            (r.counted > 0))
        results)
    [ (div_workload, E.Div_by_zero); (mem_workload, E.Mem_out_of_range) ]

let test_streaming_faulting () =
  List.iter
    (fun (w, expected) ->
      match exec_result w spec1 with
      | Error e -> Alcotest.fail (E.to_string e)
      | Ok [ r ] ->
        Alcotest.(check (option kind)) (w.Workloads.Registry.name ^ " tag")
          (Some expected)
          (completeness_kind r.Ilp.Analyze.completeness)
      | Ok _ -> Alcotest.fail "one spec, one result")
    [ (div_workload, E.Div_by_zero); (mem_workload, E.Mem_out_of_range) ]

(* Acceptance: a fuel-truncated run of every registry workload analyzes
   to Truncated (out_of_fuel) instead of raising. *)
let test_fuel_truncation_all () =
  List.iter
    (fun w ->
      match exec ~fuel:2_000 w spec1 with
      | [ r ] ->
        Alcotest.(check (option kind)) (w.Workloads.Registry.name ^ " fuel")
          (Some E.Out_of_fuel)
          (completeness_kind r.Ilp.Analyze.completeness)
      | _ -> Alcotest.fail "one spec, one result")
    Workloads.Registry.all

(* the replay and a scan of the recorded trace must agree on the tag
   too *)
let test_truncated_equivalence () =
  let w = Workloads.Registry.find "eqntott" in
  let p = Harness.prepare ~fuel:3_000 w in
  let o = Vm.Exec.run ~fuel:3_000 p.flat in
  let a =
    Ilp.Analyze.run_many ~completeness:(Vm.Exec.completeness_of o)
      [ Ilp.Analyze.config ~mem_words:Vm.Exec.default_mem_words
          Ilp.Machine.sp_cd_mf (Harness.profile_predictor p) ]
      p.info o.trace
  in
  let b = exec ~fuel:3_000 w spec1 in
  List.iter2
    (fun (x : Ilp.Analyze.result) (y : Ilp.Analyze.result) ->
      Alcotest.(check (float 1e-9)) "parallelism" x.parallelism y.parallelism;
      Alcotest.(check (option kind)) "tag"
        (completeness_kind x.completeness)
        (completeness_kind y.completeness))
    a b

(* --- resource guards ----------------------------------------------- *)

let test_step_budget () =
  let w = Workloads.Registry.find "awk" in
  let budget = 500 in
  match
    exec ~fuel:20_000 w
      [ Harness.spec ~step_budget:budget Ilp.Machine.sp_cd_mf ]
  with
  | [ r ] ->
    Alcotest.(check (option kind)) "budget tag" (Some E.Step_budget)
      (completeness_kind r.Ilp.Analyze.completeness);
    Alcotest.(check bool) "counted within budget" true
      (r.counted <= budget);
    Alcotest.(check bool) "still produced a number" true
      (r.parallelism > 0.)
  | _ -> Alcotest.fail "one spec, one result"

let test_mem_words_guard () =
  let w = Workloads.Registry.find "awk" in
  (match Harness.prepare_result ~mem_words:(Vm.Exec.max_mem_words + 1) w with
  | Error e ->
    (match e.E.cause with
    | E.Budget_exceeded { limit; requested; _ } ->
      Alcotest.(check int) "limit" Vm.Exec.max_mem_words limit;
      Alcotest.(check int) "requested" (Vm.Exec.max_mem_words + 1) requested
    | _ -> Alcotest.fail ("wrong cause: " ^ E.to_string e));
    Alcotest.(check int) "exit code" 5 (E.exit_code e)
  | Ok _ -> Alcotest.fail "cap not enforced");
  (match exec_result ~mem_words:0 w spec1 with
  | Error { E.cause = E.Invalid_request _; _ } -> ()
  | Error e -> Alcotest.fail ("wrong cause: " ^ E.to_string e)
  | Ok _ -> Alcotest.fail "zero memory accepted");
  (* A memory smaller than the data segment (awk, ccom, latex) or the
     stack (the rest) truncates every workload; none escapes. *)
  match
    Harness.Run.exec (Harness.Run.config ~mem_words:16 spec1)
      Workloads.Registry.all
  with
  | Error e -> Alcotest.fail (E.to_string e)
  | Ok items ->
    List.iter
      (fun (it : Harness.Run.item) ->
        let name = it.it_workload.Workloads.Registry.name in
        match it.it_outcome with
        | Ok [ r ] -> (
          match r.Ilp.Analyze.completeness with
          | E.Truncated f ->
            Alcotest.(check kind) (name ^ " at 16 words")
              E.Mem_out_of_range f.E.f_kind;
            if name = "awk" then begin
              Alcotest.(check int) "awk faults before its first step"
                0 f.E.f_step;
              Alcotest.(check int) "at the entry pc"
                (Workloads.Registry.compile w).Asm.Program.entry_pc
                f.E.f_pc
            end
          | E.Complete -> Alcotest.fail (name ^ ": complete at 16 words"))
        | Ok _ -> Alcotest.fail "one spec, one result"
        | Error e -> Alcotest.fail (name ^ ": " ^ E.to_string e))
      items

(* --- typed lookups and compile errors ------------------------------ *)

let test_unknown_names () =
  (match Workloads.Registry.find_result "akw" with
  | Error { E.cause = E.Unknown_workload { hint = Some h; _ }; _ } ->
    Alcotest.(check string) "did you mean" "awk" h
  | Error e -> Alcotest.fail ("no hint: " ^ E.to_string e)
  | Ok _ -> Alcotest.fail "akw resolved");
  (match Workloads.Registry.find_result "zzz" with
  | Error e -> Alcotest.(check int) "exit code" 2 (E.exit_code e)
  | Ok _ -> Alcotest.fail "zzz resolved");
  Alcotest.(check bool) "fault kind spelling" true
    (Fault.Injector.kind_of_string "bit_flip" = Some Fault.Injector.Bit_flip);
  Alcotest.(check bool) "fault kind unknown" true
    (Fault.Injector.kind_of_string "rowhammer" = None)

(* Fuel, step budgets and deadlines below 1 are typed invalid requests
   (exit code 2) at every entry point that takes them, never a
   degenerate run. *)
let test_nonpositive_budgets () =
  let w = Workloads.Registry.find "awk" in
  let expect what want = function
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
    | Error (e : E.t) ->
      (match e.cause with
      | E.Invalid_request msg -> Alcotest.(check string) what want msg
      | _ -> Alcotest.fail (what ^ ": wrong cause " ^ E.to_string e));
      Alcotest.(check int) (what ^ " exit code") 2 (E.exit_code e)
  in
  let fuel n = Printf.sprintf "fuel must be at least 1 (got %d)" n in
  let budget n = Printf.sprintf "step budget must be at least 1 (got %d)" n in
  let deadline n = Printf.sprintf "deadline_ms must be at least 1 (got %d)" n in
  List.iter
    (fun f ->
      expect "prepare_result" (fuel f) (Harness.prepare_result ~fuel:f w);
      expect "Run.exec" (fuel f)
        (Harness.Run.exec (Harness.Run.config ~fuel:f spec1) [ w ]);
      expect "Request.exec" (fuel f)
        (Harness.Request.exec ~fuel:f ~specs:spec1 w);
      expect "Request.exec injected" (fuel f)
        (Harness.Request.exec ~fuel:f ~inject:(Fault.Injector.Fuel_cut, 1)
           ~specs:[] w);
      expect "Fuzz.run" (fuel f)
        (Harness.Fuzz.run ~fuel:f ~workloads:[ w ] ~seed:1 ~cases:1 ());
      expect "check" (fuel f) (Harness.check ~fuel:f w);
      expect "check dynamic" (fuel f) (Harness.check ~fuel:f ~dynamic:true w);
      (* The raising entry points refuse it too, with the same message,
         instead of replaying a zero-step execution. *)
      let raises what run =
        match run () with
        | (_ : Harness.prepared) -> Alcotest.fail (what ^ ": accepted")
        | exception Invalid_argument msg ->
          Alcotest.(check string) what (fuel f) msg
      in
      raises "prepare" (fun () -> Harness.prepare ~fuel:f w);
      raises "prepare_source" (fun () ->
          Harness.prepare_source ~fuel:f ~name:"src"
            "int main(void) { return 0; }"))
    [ 0; -5 ];
  List.iter
    (fun b ->
      expect "Run.exec budget" (budget b)
        (Harness.Run.exec (Harness.Run.config ~step_budget:b spec1) [ w ]);
      expect "spec budget" (budget b)
        (Harness.Run.exec
           (Harness.Run.config
              [ Harness.spec ~step_budget:b Ilp.Machine.sp_cd_mf ])
           [ w ]);
      expect "Request.exec budget" (budget b)
        (Harness.Request.exec ~step_budget:b ~specs:spec1 w))
    [ 0; -3 ];
  (* An injected request with no spec analyzes SP-CD-MF under the
     request's own budget, refused like any other. *)
  List.iter
    (fun b ->
      expect "Request.exec injected budget" (budget b)
        (Harness.Request.exec ~step_budget:b
           ~inject:(Fault.Injector.Bit_flip, 3) ~specs:[] w))
    [ 0; -3 ];
  (* A deadline below 1 is refused before anything runs, not a run
     that expires at once. *)
  List.iter
    (fun d ->
      expect "Run.exec deadline" (deadline d)
        (Harness.Run.exec (Harness.Run.config ~deadline_ms:d spec1) [ w ]);
      expect "Request.exec deadline" (deadline d)
        (Harness.Request.exec ~deadline_ms:d ~specs:spec1 w);
      expect "Request.exec injected deadline" (deadline d)
        (Harness.Request.exec ~deadline_ms:d
           ~inject:(Fault.Injector.Bit_flip, 3) ~specs:[] w))
    [ 0; -5 ]

(* An injected request's analysis stops at its step budget, as an
   un-injected one does: for every fault kind, with the budget on the
   request (inherited by its spec) and with no spec at all. *)
let test_inject_step_budget () =
  let w = Workloads.Registry.find "awk" in
  List.iter
    (fun kind ->
      List.iter
        (fun (what, specs) ->
          let what = Fault.Injector.kind_name kind ^ " " ^ what in
          match
            Harness.Request.exec ~fuel:50_000 ~step_budget:10
              ~inject:(kind, 3) ~specs w
          with
          | Ok { Harness.Request.r_results = [ r ]; _ } ->
            Alcotest.(check int) (what ^ " counted") 10 r.counted;
            Alcotest.(check string) (what ^ " completeness") "step_budget"
              (E.completeness_tag r.completeness)
          | Ok _ -> Alcotest.fail (what ^ ": not one result")
          | Error e -> Alcotest.fail (what ^ ": " ^ E.to_string e))
        [ ("spec", spec1); ("no spec", []) ])
    Fault.Injector.all_kinds

let test_compile_error_typed () =
  let bad = faulty_workload "bad" "int main(void) { return 1 +; }" in
  (match Workloads.Registry.compile_result bad with
  | Error e ->
    (match e.E.cause with
    | E.Compile_error _ -> ()
    | _ -> Alcotest.fail ("wrong cause: " ^ E.to_string e));
    Alcotest.(check int) "exit code" 3 (E.exit_code e)
  | Ok _ -> Alcotest.fail "bad source compiled");
  match Harness.prepare_result bad with
  | Error { E.cause = E.Compile_error _; _ } -> ()
  | Error e -> Alcotest.fail ("wrong cause: " ^ E.to_string e)
  | Ok _ -> Alcotest.fail "bad source prepared"

(* --- fault injection ----------------------------------------------- *)

let small_fuel = 20_000

(* One injected run through the one pipeline, with the default machine;
   its one result alongside the reply. *)
let inject ~fuel ~seed ~kind w =
  Result.map
    (fun (r : Harness.Request.reply) -> (r, List.hd r.r_results))
    (Harness.Request.exec ~fuel ~inject:(kind, seed) ~specs:[] w)

let test_inject_deterministic () =
  let w = Workloads.Registry.find "eqntott" in
  List.iter
    (fun k ->
      let a = inject ~fuel:small_fuel ~seed:42 ~kind:k w in
      let b = inject ~fuel:small_fuel ~seed:42 ~kind:k w in
      match (a, b) with
      | Ok (x, rx), Ok (y, ry) ->
        Alcotest.(check (option string))
          (Fault.Injector.kind_name k ^ " description")
          x.r_injected y.r_injected;
        Alcotest.(check int) "steps" x.r_steps y.r_steps;
        Alcotest.(check (float 0.))
          (Fault.Injector.kind_name k ^ " parallelism")
          rx.Ilp.Analyze.parallelism ry.Ilp.Analyze.parallelism
      | Error x, Error y ->
        Alcotest.(check string) "same error" (E.to_string x) (E.to_string y)
      | _ -> Alcotest.fail "same seed, different shape")
    Fault.Injector.all_kinds

(* An injected reply names the perturbation the injector plans for the
   same seed, kind and fuel; an un-injected reply names none. *)
let test_injected_reply_names_plan () =
  let w = Workloads.Registry.find "awk" in
  let flat = Workloads.Registry.compile w in
  List.iter
    (fun k ->
      let plan = Fault.Injector.plan ~seed:7 ~fuel:small_fuel k flat in
      match inject ~fuel:small_fuel ~seed:7 ~kind:k w with
      | Ok (r, _) ->
        Alcotest.(check (option string))
          (Fault.Injector.kind_name k ^ " description")
          (Some plan.Fault.Injector.description) r.r_injected
      | Error e -> Alcotest.fail (E.to_string e))
    Fault.Injector.all_kinds;
  match Harness.Request.exec ~fuel:small_fuel ~specs:spec1 w with
  | Ok r ->
    Alcotest.(check (option string)) "un-injected" None
      r.Harness.Request.r_injected
  | Error e -> Alcotest.fail (E.to_string e)

let test_inject_kinds_behave () =
  let w = Workloads.Registry.find "eqntott" in
  (* fuel-cut always lowers the budget below the run's length, so the
     result must be truncated *)
  (match inject ~fuel:small_fuel ~seed:3 ~kind:Fuel_cut w with
  | Ok (_, r) ->
    Alcotest.(check bool) "fuel-cut truncates" true
      (completeness_kind r.Ilp.Analyze.completeness <> None)
  | Error e -> Alcotest.fail (E.to_string e));
  (* mem-corrupt: the described word, folded into the memory's size,
     takes the value at the planned step *)
  List.iter
    (fun words ->
      let app =
        Fault.Injector.plan ~seed:9 ~fuel:small_fuel Mem_corrupt
          (Workloads.Registry.compile w)
      in
      let step, addr, value =
        Scanf.sscanf app.description "mem-corrupt at step %d: mem[%d] <- %d"
          (fun s a v -> (s, a, v))
      in
      let mem = Stdx.Mem_table.create words in
      let regs = Array.make 32 0 and fregs = Array.make 32 0. in
      let observe s =
        Option.iter (fun f -> f ~pc:0 ~step:s ~regs ~fregs ~mem) app.observe
      in
      for s = 0 to step - 1 do
        observe s
      done;
      Alcotest.(check int) "untouched before its step" 0
        (Stdx.Mem_table.get mem (addr mod words));
      observe step;
      Alcotest.(check int)
        (Printf.sprintf "mem-corrupt lands in %d words" words)
        value
        (Stdx.Mem_table.get mem (addr mod words)))
    [ Vm.Exec.default_mem_words; 1000 ];
  (* trace-cut: the analyzer sees at most the kept prefix while the
     execution runs to its own end *)
  match inject ~fuel:small_fuel ~seed:5 ~kind:Trace_cut w with
  | Ok (reply, r) ->
    Alcotest.(check bool) "analyzer prefix bounded" true
      (r.Ilp.Analyze.counted <= reply.r_steps)
  | Error e -> Alcotest.fail (E.to_string e)

let test_fuzz_no_escape () =
  let r =
    match Harness.Fuzz.run ~fuel:small_fuel ~seed:1 ~cases:64 () with
    | Ok r -> r
    | Error e -> Alcotest.fail (E.to_string e)
  in
  Alcotest.(check int) "all cases ran" 64 r.Harness.Fuzz.cases;
  Alcotest.(check int) "categories partition the cases" 64
    (r.complete + r.truncated + r.structured_errors + r.internal_errors
    + List.length r.escaped);
  Alcotest.(check int) "no escaped exceptions" 0 (List.length r.escaped);
  Alcotest.(check int) "no internal errors" 0 r.internal_errors

(* qcheck: for arbitrary seeds and kinds the invariant holds — an
   injected request returns Ok or a structured Error, never an
   exception. *)
let prop_no_escape =
  let w = Workloads.Registry.find "awk" in
  QCheck.Test.make ~count:60 ~name:"injected faults never escape"
    (QCheck.pair QCheck.small_nat (QCheck.int_range 0 3))
    (fun (seed, ki) ->
      let kind = List.nth Fault.Injector.all_kinds ki in
      match inject ~fuel:10_000 ~seed ~kind w with
      | Ok (_, r) ->
        (* and analysis numbers stay well-formed *)
        r.Ilp.Analyze.parallelism >= 0. && r.counted >= 0
      | Error _ -> true)

let suite =
  [ Alcotest.test_case "vm fault classes" `Quick test_vm_fault_classes;
    Alcotest.test_case "jtab fault" `Quick test_jtab_fault;
    Alcotest.test_case "prepare analyzes faulting run" `Quick
      test_prepare_faulting;
    Alcotest.test_case "streaming analyzes faulting run" `Quick
      test_streaming_faulting;
    Alcotest.test_case "fuel truncation, every workload" `Quick
      test_fuel_truncation_all;
    Alcotest.test_case "truncated paths agree" `Quick
      test_truncated_equivalence;
    Alcotest.test_case "analysis step budget" `Quick test_step_budget;
    Alcotest.test_case "memory words guard" `Quick test_mem_words_guard;
    Alcotest.test_case "unknown names get hints" `Quick test_unknown_names;
    Alcotest.test_case "compile errors are typed" `Quick
      test_compile_error_typed;
    Alcotest.test_case "non-positive fuel and step budgets are typed"
      `Quick test_nonpositive_budgets;
    Alcotest.test_case "injected request honours its step budget" `Quick
      test_inject_step_budget;
    Alcotest.test_case "inject is deterministic" `Quick
      test_inject_deterministic;
    Alcotest.test_case "inject kinds behave" `Quick test_inject_kinds_behave;
    Alcotest.test_case "an injected reply names its plan" `Quick
      test_injected_reply_names_plan;
    Alcotest.test_case "fuzz: nothing escapes" `Quick test_fuzz_no_escape;
    QCheck_alcotest.to_alcotest prop_no_escape ]
