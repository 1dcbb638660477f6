(* Branch predictor tests. *)

let mk_trace entries =
  let t = Vm.Trace.create () in
  List.iter (fun (pc, aux) -> Vm.Trace.push t ~pc ~aux) entries;
  t

(* A trace with one static branch at pc 0: taken 3 times, not taken
   once, plus unrelated instructions. *)
let branch_trace () =
  mk_trace [ (0, 1); (1, -1); (0, 1); (0, 0); (0, 1) ]

let is_cond pc = pc = 0

let test_profile_majority () =
  let p =
    Predict.Predictor.profile ~n_static:2 ~is_cond (branch_trace ())
  in
  Alcotest.(check bool) "predicts taken" true (p.predict ~pc:0 ~taken:false);
  let stats = Predict.Predictor.measure p ~is_cond (branch_trace ()) in
  Alcotest.(check int) "branches" 4 stats.branches;
  Alcotest.(check int) "correct" 3 stats.correct;
  Alcotest.(check (float 1e-6)) "rate" 75. stats.rate

let test_profile_tie_breaks_not_taken () =
  let t = mk_trace [ (0, 1); (0, 0) ] in
  let p = Predict.Predictor.profile ~n_static:1 ~is_cond t in
  Alcotest.(check bool) "tie -> not taken" false
    (p.predict ~pc:0 ~taken:true)

let test_profile_unseen_branch () =
  let p =
    Predict.Predictor.profile ~n_static:4 ~is_cond:(fun _ -> true)
      (mk_trace [])
  in
  Alcotest.(check bool) "unseen -> not taken" false
    (p.predict ~pc:3 ~taken:true)

let test_perfect () =
  let p = Predict.Predictor.perfect in
  Alcotest.(check bool) "matches outcome" true (p.predict ~pc:9 ~taken:true);
  Alcotest.(check bool) "matches outcome 2" false
    (p.predict ~pc:9 ~taken:false)

let test_always_taken () =
  let stats =
    Predict.Predictor.measure Predict.Predictor.always_taken ~is_cond
      (branch_trace ())
  in
  Alcotest.(check int) "correct" 3 stats.correct

let test_btfn () =
  let p =
    Predict.Predictor.backward_taken ~is_backward:(fun pc -> pc = 0)
  in
  Alcotest.(check bool) "backward taken" true (p.predict ~pc:0 ~taken:false);
  Alcotest.(check bool) "forward not taken" false
    (p.predict ~pc:1 ~taken:true)

let test_two_bit_hysteresis () =
  let p = Predict.Predictor.two_bit ~n_static:1 in
  (* Starts weakly not-taken. *)
  Alcotest.(check bool) "initial" false (p.predict ~pc:0 ~taken:true);
  (* Now weakly taken after one taken outcome. *)
  Alcotest.(check bool) "trained" true (p.predict ~pc:0 ~taken:true);
  (* Saturated taken; a single not-taken must not flip it. *)
  Alcotest.(check bool) "strong" true (p.predict ~pc:0 ~taken:false);
  Alcotest.(check bool) "hysteresis" true (p.predict ~pc:0 ~taken:false);
  (* Two consecutive not-taken outcomes flip the prediction. *)
  Alcotest.(check bool) "flipped" false (p.predict ~pc:0 ~taken:false)

let test_profile_beats_static_on_workload () =
  let w = Workloads.Registry.find "espresso" in
  let p = Harness.prepare ~fuel:80_000 w in
  let is_cond = Ilp.Program_info.is_cond_branch p.info in
  let profile_rate =
    (Predict.Predictor.measure (Harness.profile_predictor p) ~is_cond
       p.trace)
      .rate
  in
  let taken_rate =
    (Predict.Predictor.measure Predict.Predictor.always_taken ~is_cond
       p.trace)
      .rate
  in
  Alcotest.(check bool) "profile >= always-taken" true
    (profile_rate >= taken_rate);
  Alcotest.(check bool) "profile is accurate" true (profile_rate > 70.)

(* --- last-value predictability trainer --- *)

let test_value_trainer_majority () =
  (* One static instruction defining r1.  Repeating the same value is
     predictable; alternating values are not; a single instance (no
     prediction ever made) is not. *)
  let observe_values b ~pc values =
    let regs = Array.make 32 0 and fregs = Array.make 32 0. in
    List.iter
      (fun v ->
        regs.(1) <- v;
        Predict.Predictor.Value.observe b ~pc ~step:0 ~regs ~fregs
          ~mem:(Stdx.Mem_table.create 1))
      values
  in
  let mk () =
    Predict.Predictor.Value.builder ~n_static:3
      ~defs:[| [| 1 |]; [| 1 |]; [||] |]
  in
  let b = mk () in
  observe_values b ~pc:0 [ 42; 42; 42 ];
  observe_values b ~pc:1 [ 1; 2; 3; 4 ];
  let t = Predict.Predictor.Value.table b in
  Alcotest.(check bool) "constant def predictable" true t.(0);
  Alcotest.(check bool) "changing def not" false t.(1);
  Alcotest.(check bool) "no-def pc not" false t.(2);
  Alcotest.(check int) "dyn defs" 7 (Predict.Predictor.Value.dyn_defs b);
  Alcotest.(check int) "repeats" 2 (Predict.Predictor.Value.repeats b);
  Alcotest.(check int) "predictable statics" 1
    (Predict.Predictor.Value.predictable_static b);
  let single = mk () in
  observe_values single ~pc:0 [ 9 ];
  Alcotest.(check bool) "single instance not predictable" false
    (Predict.Predictor.Value.table single).(0)

let test_value_trainer_float_defs () =
  (* Float destinations live at uid 32+f and compare by bit pattern. *)
  let b = Predict.Predictor.Value.builder ~n_static:1 ~defs:[| [| 33 |] |] in
  let regs = Array.make 32 0 and fregs = Array.make 32 0. in
  List.iter
    (fun v ->
      fregs.(1) <- v;
      Predict.Predictor.Value.observe b ~pc:0 ~step:0 ~regs ~fregs
        ~mem:(Stdx.Mem_table.create 1))
    [ 1.5; 1.5; 1.5 ];
  Alcotest.(check bool) "constant float predictable" true
    (Predict.Predictor.Value.table b).(0)

let test_value_trainer_via_vm () =
  (* The harness trains the profile through the VM observe hook during
     the one profiling execution; a loop full of constant stores must
     surface at least one predictable static instruction. *)
  let p =
    Harness.prepare_source ~train_values:true ~name:"vp-train"
      {|int main(void) { int i; int s = 0;
         for (i = 0; i < 80; i = i + 1) s = s + 0 * i + 1 - 1;
         return s; }|}
  in
  match p.Harness.values with
  | None -> Alcotest.fail "train_values did not build a value profile"
  | Some b ->
    Alcotest.(check int) "table sized to the program" p.info.n
      (Array.length (Predict.Predictor.Value.table b));
    Alcotest.(check bool) "observed dynamic defs" true
      (Predict.Predictor.Value.dyn_defs b > 0);
    Alcotest.(check bool) "found predictable instructions" true
      (Predict.Predictor.Value.predictable_static b > 0)

let test_value_trainer_off_by_default () =
  let p = Harness.prepare_source ~name:"vp-off" "int main(void){return 3;}" in
  Alcotest.(check bool) "no builder without train_values" true
    (p.Harness.values = None)

let suite =
  [ Alcotest.test_case "profile majority" `Quick test_profile_majority;
    Alcotest.test_case "profile tie" `Quick test_profile_tie_breaks_not_taken;
    Alcotest.test_case "profile unseen" `Quick test_profile_unseen_branch;
    Alcotest.test_case "perfect" `Quick test_perfect;
    Alcotest.test_case "always taken" `Quick test_always_taken;
    Alcotest.test_case "btfn" `Quick test_btfn;
    Alcotest.test_case "two-bit hysteresis" `Quick test_two_bit_hysteresis;
    Alcotest.test_case "profile on workload" `Quick
      test_profile_beats_static_on_workload;
    Alcotest.test_case "value trainer majority" `Quick
      test_value_trainer_majority;
    Alcotest.test_case "value trainer floats" `Quick
      test_value_trainer_float_defs;
    Alcotest.test_case "value trainer via vm" `Quick
      test_value_trainer_via_vm;
    Alcotest.test_case "value trainer off by default" `Quick
      test_value_trainer_off_by_default ]
