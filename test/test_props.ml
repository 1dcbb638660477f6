(* Cross-machine invariants checked on real compiled programs.

   These hold by construction of the machine models:
   - every machine counts the same instructions (the transformations
     do not depend on the machine);
   - relaxing a constraint never slows the schedule:
       ORACLE <= SP-CD-MF <= SP-CD <= SP <= BASE   (cycles)
       ORACLE <= CD-MF <= CD <= BASE
       SP-CD <= CD
   - a larger window or more flows never hurts;
   - non-unit latencies never speed things up;
   - parallelism is at least 1. *)

let small_sources =
  [ ( "branchy",
      {|int main(void) { int i; int s = 0;
         for (i = 0; i < 200; i = i + 1) {
           if (i % 3 == 0) s = s + i;
           else if (i % 5 == 0) s = s - 1;
         }
         return s; }|} );
    ( "recursive",
      {|int ack(int m, int n) {
         if (m == 0) return n + 1;
         if (n == 0) return ack(m - 1, 1);
         return ack(m - 1, ack(m, n - 1));
       }
       int main(void) { return ack(2, 3); }|} );
    ( "memory",
      {|int a[64];
        int main(void) { int i; int s = 0;
         for (i = 0; i < 64; i = i + 1) a[i] = i * i;
         for (i = 1; i < 64; i = i + 1) a[i] = a[i] + a[i - 1];
         for (i = 0; i < 64; i = i + 8) s = s + a[i];
         return s; }|} );
    ( "floats",
      {|float v[32];
        int main(void) { int i; float s = 0.0;
         for (i = 0; i < 32; i = i + 1) v[i] = i * 0.5;
         for (i = 0; i < 32; i = i + 1)
           if (v[i] > 4.0) s = s + v[i];
         return s; }|} ) ]

let prepared_small =
  lazy
    (List.map
       (fun (name, src) -> (name, Harness.prepare_source ~name src))
       small_sources)

let prepared_workloads =
  lazy
    (List.map
       (fun w ->
         (w.Workloads.Registry.name, Harness.prepare ~fuel:60_000 w))
       Workloads.Registry.all)

let all_prepared () =
  Lazy.force prepared_small @ Lazy.force prepared_workloads

let analyze ?unroll ?predictor p m =
  List.hd (Harness.Run.on_prepared p [ Harness.spec ?unroll ?predictor m ])

let cycles p m = (analyze p m).Ilp.Analyze.cycles

let test_counted_identical () =
  let check (name, p) =
    let counts =
      List.map
        (fun m -> (analyze p m).Ilp.Analyze.counted)
        Ilp.Machine.all_paper
    in
    match counts with
    | c :: rest ->
      List.iter
        (fun c' -> Alcotest.(check int) (name ^ " counted") c c')
        rest
    | [] -> ()
  in
  List.iter check (all_prepared ())

let test_machine_ordering () =
  let open Ilp.Machine in
  let check (name, p) =
    let c = cycles p in
    let le a b am bm =
      if not (a <= b) then
        Alcotest.failf "%s: cycles(%s)=%d > cycles(%s)=%d" name am a bm b
    in
    le (c oracle) (c sp_cd_mf) "ORACLE" "SP-CD-MF";
    le (c sp_cd_mf) (c sp_cd) "SP-CD-MF" "SP-CD";
    le (c sp_cd) (c sp) "SP-CD" "SP";
    le (c sp) (c base) "SP" "BASE";
    le (c oracle) (c cd_mf) "ORACLE" "CD-MF";
    le (c cd_mf) (c cd) "CD-MF" "CD";
    le (c cd) (c base) "CD" "BASE";
    le (c sp_cd) (c cd) "SP-CD" "CD"
  in
  List.iter check (all_prepared ())

let test_window_monotone () =
  let check (name, p) =
    let widths = [ 8; 64; 512 ] in
    let cs =
      List.map
        (fun w -> cycles p (Ilp.Machine.with_window w Ilp.Machine.sp))
        widths
    in
    let unlimited = cycles p Ilp.Machine.sp in
    let rec mono = function
      | a :: (b :: _ as rest) ->
        if a < b then
          Alcotest.failf "%s: smaller window beat larger one" name
        else mono rest
      | _ -> ()
    in
    mono (cs @ [ unlimited ])
  in
  List.iter check (Lazy.force prepared_small)

let test_flows_monotone () =
  let check (name, p) =
    let ks = [ 1; 2; 4 ] in
    let cs =
      List.map
        (fun k -> cycles p (Ilp.Machine.with_flows (Some k) Ilp.Machine.cd))
        ks
    in
    let unbounded = cycles p Ilp.Machine.cd_mf in
    let rec mono = function
      | a :: (b :: _ as rest) ->
        if a < b then Alcotest.failf "%s: fewer flows beat more" name
        else mono rest
      | _ -> ()
    in
    mono (cs @ [ unbounded ])
  in
  List.iter check (Lazy.force prepared_small)

let test_latency_never_faster () =
  let check (name, p) =
    List.iter
      (fun m ->
        let unit = cycles p m in
        let lat =
          cycles p
            (Ilp.Machine.with_latencies Ilp.Machine.realistic_latencies m)
        in
        if lat < unit then
          Alcotest.failf "%s/%s: latencies sped things up" name
            m.Ilp.Machine.name)
      [ Ilp.Machine.base; Ilp.Machine.sp_cd_mf; Ilp.Machine.oracle ]
  in
  List.iter check (Lazy.force prepared_small)

let test_parallelism_at_least_one () =
  let check (name, p) =
    List.iter
      (fun m ->
        let r = analyze p m in
        if r.Ilp.Analyze.parallelism < 1. -. 1e-9 then
          Alcotest.failf "%s/%s: parallelism %f < 1" name r.machine
            r.parallelism;
        if r.cycles > r.counted then
          Alcotest.failf "%s/%s: cycles exceed instruction count" name
            r.machine)
      Ilp.Machine.all_paper
  in
  List.iter check (all_prepared ())

let test_unrolling_reduces_counted () =
  (* Removing loop overhead can only shrink the counted instructions. *)
  let check (name, p) =
    let with_u = analyze ~unroll:true p Ilp.Machine.oracle in
    let without = analyze ~unroll:false p Ilp.Machine.oracle in
    if with_u.Ilp.Analyze.counted > without.Ilp.Analyze.counted then
      Alcotest.failf "%s: unrolling grew the trace" name;
    if with_u.Ilp.Analyze.cycles > without.Ilp.Analyze.cycles then
      Alcotest.failf "%s: unrolling slowed the oracle" name
  in
  List.iter check (all_prepared ())

let test_oracle_equals_data_chain () =
  (* The oracle schedule must not depend on the predictor. *)
  let _, p = List.hd (Lazy.force prepared_small) in
  let bad = { Predict.Predictor.name = "always-wrong";
              predict = (fun ~pc:_ ~taken -> not taken);
              stateful = false } in
  let with_profile = analyze p Ilp.Machine.oracle in
  let with_bad = analyze ~predictor:(`Custom bad) p Ilp.Machine.oracle in
  Alcotest.(check int) "oracle ignores predictor" with_profile.cycles
    with_bad.cycles

let test_perfect_prediction_sp_between () =
  (* With a perfect predictor, SP has no mispredictions left. *)
  let check (name, p) =
    let r =
      analyze ~predictor:`Perfect p Ilp.Machine.sp
    in
    (* Computed jumps still count as mispredictions under SP. *)
    let cjumps =
      let count = ref 0 in
      Vm.Trace.iter
        (fun ~pc ~aux:_ ->
          match p.Harness.info.kind.(pc) with
          | Risc.Insn.Computed_jump -> incr count
          | _ -> ())
        (Recorded.trace p);
      !count
    in
    Alcotest.(check int) (name ^ " only cjump mispredicts") cjumps
      r.Ilp.Analyze.mispredicts
  in
  List.iter check (Lazy.force prepared_small)

(* Value-trained copy of "branchy", so the vp dimension of the lattice
   is live (untrained, vp machines degrade to their base point and the
   property below would hold vacuously on that axis). *)
let prepared_trained =
  lazy
    (Harness.prepare_source ~train_values:true ~name:"branchy-trained"
       (List.assoc "branchy" small_sources))

let test_lattice_monotone =
  (* Adding a constraint combinator never speeds the schedule: for any
     random lattice point and any relaxation of it, leq holds and the
     more constrained machine takes at least as many cycles. *)
  QCheck.Test.make ~name:"lattice order bounds cycles" ~count:60
    QCheck.(pair int int)
    (fun (a, b) ->
      let open Ilp.Machine in
      let ma = random a in
      let relaxations =
        [ Window None; Fetch None; Flows None; Value_predict true;
          Control Oracle ]
      in
      let chosen =
        List.filteri (fun i _ -> (b lsr i) land 1 = 1) relaxations
      in
      let mb = of_constraints (constraints ma @ chosen) in
      let p = Lazy.force prepared_trained in
      leq ma mb && cycles p ma >= cycles p mb)

let gen_random_program = Gen_minic.gen_program

let test_random_program_invariants =
  QCheck.Test.make ~name:"machine ordering on random programs" ~count:40
    (QCheck.make ~print:(fun s -> s) gen_random_program)
    (fun src ->
      let p = Harness.prepare_source ~name:"random" src in
      let c m = (analyze p m).Ilp.Analyze.cycles in
      let open Ilp.Machine in
      c oracle <= c sp_cd_mf
      && c sp_cd_mf <= c sp_cd
      && c sp_cd <= c sp
      && c sp <= c base
      && c oracle <= c cd_mf
      && c cd_mf <= c cd
      && c cd <= c base)

let suite =
  [ Alcotest.test_case "counted identical" `Quick test_counted_identical;
    Alcotest.test_case "machine ordering" `Quick test_machine_ordering;
    Alcotest.test_case "window monotone" `Quick test_window_monotone;
    Alcotest.test_case "flows monotone" `Quick test_flows_monotone;
    Alcotest.test_case "latency never faster" `Quick
      test_latency_never_faster;
    Alcotest.test_case "parallelism >= 1" `Quick
      test_parallelism_at_least_one;
    Alcotest.test_case "unrolling shrinks trace" `Quick
      test_unrolling_reduces_counted;
    Alcotest.test_case "oracle ignores predictor" `Quick
      test_oracle_equals_data_chain;
    Alcotest.test_case "perfect prediction" `Quick
      test_perfect_prediction_sp_between;
    QCheck_alcotest.to_alcotest test_lattice_monotone;
    QCheck_alcotest.to_alcotest test_random_program_invariants ]
