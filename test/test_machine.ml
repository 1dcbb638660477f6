(* The compositional machine lattice: golden alias <-> spec mappings
   for the seven paper machines, canonical printing, parser error
   typing, qcheck round-trips over random lattice points, the partial
   order, and hand-scheduled goldens for the fetch-rate and
   value-prediction constraints. *)

module M = Ilp.Machine
module K = Risc.Insn

let machine = Alcotest.testable (fun ppf m -> Format.pp_print_string ppf
    (M.describe m)) ( = )

let ok_machine = function
  | Ok m -> m
  | Error e -> Alcotest.failf "unexpected parse error: %s"
      (Pipeline_error.to_string e)

(* --- the seven paper machines are named lattice points --- *)

let paper_goldens =
  [ (M.base, "base", "BASE");
    (M.cd, "cd", "CD");
    (M.cd_mf, "cd-mf", "CD-MF");
    (M.sp, "sp", "SP");
    (M.sp_cd, "sp-cd", "SP-CD");
    (M.sp_cd_mf, "sp-cd-mf", "SP-CD-MF");
    (M.oracle, "oracle", "ORACLE") ]

let test_paper_specs () =
  List.iter
    (fun (m, spec, name) ->
      Alcotest.(check string) (spec ^ " prints") spec (M.to_spec m);
      Alcotest.(check string) (spec ^ " display name") name m.M.name;
      Alcotest.check machine (spec ^ " parses back") m
        (ok_machine (M.of_spec spec));
      (* case-insensitive: the display name is itself a valid spec *)
      Alcotest.check machine (name ^ " parses") m
        (ok_machine (M.of_spec name)))
    paper_goldens;
  Alcotest.(check (list string)) "paper_names"
    [ "BASE"; "CD"; "CD-MF"; "SP"; "SP-CD"; "SP-CD-MF"; "ORACLE" ]
    M.paper_names

(* --- canonical printing --- *)

let test_canonical_printing () =
  (* items apply left to right; printing uses one fixed order *)
  let m = ok_machine (M.of_spec "sp-cd,fetch=2,window=256,vp") in
  Alcotest.(check string) "canonical order" "sp-cd,vp,window=256,fetch=2"
    (M.to_spec m);
  Alcotest.(check string) "name is the canonical spec"
    "sp-cd,vp,window=256,fetch=2" m.M.name;
  (* (control, flows) pairs collapse back to alias tokens *)
  Alcotest.check machine "cd,mf = cd-mf" M.cd_mf
    (ok_machine (M.of_spec "cd,mf"));
  Alcotest.check machine "sp-cd,flows=mf = sp-cd-mf" M.sp_cd_mf
    (ok_machine (M.of_spec "sp-cd,flows=mf"));
  (* a later item overrides an earlier one per dimension *)
  Alcotest.check machine "override window" M.sp
    (ok_machine (M.of_spec "sp,window=64,window=inf"));
  (* the oracle serializes no branches: a flows bound is dead *)
  Alcotest.check machine "oracle,flows=2 = oracle" M.oracle
    (ok_machine (M.of_spec "oracle,flows=2"));
  (* explicit defaults are identities *)
  Alcotest.check machine "base,lat=unit = base" M.base
    (ok_machine (M.of_spec "base,lat=unit"));
  Alcotest.(check string) "sp,mf prints sp,mf" "sp,mf"
    (M.to_spec (ok_machine (M.of_spec "sp,mf")))

let test_combinators_match_parser () =
  let built =
    M.sp_cd_mf
    |> M.with_window 256
    |> M.with_fetch (Some 4)
    |> M.with_value_predict true
  in
  Alcotest.check machine "combinators = parsed spec" built
    (ok_machine (M.of_spec "sp-cd-mf,vp,window=256,fetch=4"));
  Alcotest.check machine "with_latency Realistic"
    (M.with_latency M.Realistic M.oracle)
    (ok_machine (M.of_spec "oracle,lat=real"))

(* --- parser errors are typed, exit code 2, with hints --- *)

let test_errors () =
  let err spec =
    match M.of_spec spec with
    | Ok m -> Alcotest.failf "%S parsed to %s" spec (M.describe m)
    | Error e -> e
  in
  (* bare typo'd name: the familiar unknown-machine error, with hint *)
  let e = err "spcd" in
  (match e.Pipeline_error.cause with
  | Pipeline_error.Unknown_machine { hint = Some "sp-cd"; _ } -> ()
  | _ -> Alcotest.failf "spcd: wrong cause: %s" (Pipeline_error.to_string e));
  Alcotest.(check int) "unknown exit code" 2 (Pipeline_error.exit_code e);
  (* malformed composed specs are Invalid_machine_spec *)
  List.iter
    (fun spec ->
      let e = err spec in
      (match e.Pipeline_error.cause with
      | Pipeline_error.Invalid_machine_spec _ -> ()
      | _ ->
        Alcotest.failf "%S: wrong cause: %s" spec
          (Pipeline_error.to_string e));
      Alcotest.(check int) (spec ^ " exit code") 2
        (Pipeline_error.exit_code e))
    [ "sp-cd,bogus"; "sp-cd,window=0"; "sp-cd,window=abc";
      "sp-cd,lat=weird"; "sp-cd,widnow=64"; "sp-cd,,vp" ];
  (* item-level hints survive into the message *)
  let contains ~sub s =
    let n = String.length sub and len = String.length s in
    let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let msg = Pipeline_error.to_string (err "sp-cd,widnow=64") in
  if not (contains ~sub:"window" msg) then
    Alcotest.failf "no hint in %S" msg

(* --- round-trip: print then parse is the identity --- *)

let test_roundtrip_random =
  QCheck.Test.make ~name:"of_spec (to_spec m) = m on random lattice points"
    ~count:300 QCheck.int
    (fun bits ->
      let m = M.random bits in
      match M.of_spec (M.to_spec m) with
      | Ok m' -> m = m'
      | Error _ -> false)

(* --- the partial order --- *)

let test_leq_goldens () =
  let check name b = Alcotest.(check bool) name true b in
  (* BASE is bottom and ORACLE is top of the paper chain *)
  List.iter
    (fun m ->
      check ("base <= " ^ m.M.name) (M.leq M.base m);
      check (m.M.name ^ " <= oracle") (M.leq m M.oracle))
    M.all_paper;
  check "cd <= sp-cd" (M.leq M.cd M.sp_cd);
  check "sp <= sp-cd" (M.leq M.sp M.sp_cd);
  Alcotest.(check bool) "cd || sp incomparable" false
    (M.leq M.cd M.sp || M.leq M.sp M.cd);
  (* adding a constraint moves down the lattice *)
  check "windowed <= unwindowed" (M.leq (M.with_window 256 M.sp) M.sp);
  Alcotest.(check bool) "unwindowed </= windowed" false
    (M.leq M.sp (M.with_window 256 M.sp));
  check "fetch-limited <= unlimited"
    (M.leq (M.with_fetch (Some 4) M.sp_cd_mf) M.sp_cd_mf);
  check "no-vp <= vp"
    (M.leq M.sp_cd_mf (M.with_value_predict true M.sp_cd_mf))

let test_leq_order_random =
  QCheck.Test.make ~name:"leq is reflexive and antisymmetric" ~count:300
    QCheck.(pair int int)
    (fun (a, b) ->
      let ma = M.random a and mb = M.random b in
      M.leq ma ma
      && M.leq mb mb
      && ((not (M.leq ma mb && M.leq mb ma)) || ma = mb))

(* --- fetch-rate constraint: hand-computed schedules --- *)

let scripted = Test_analyze.scripted_predictor []

let fetch_cycles ?value_table m info trace =
  let cfg = Ilp.Analyze.config ?value_table ~mem_words:64 m scripted in
  (Ilp.Analyze.run cfg info trace).Ilp.Analyze.cycles

let test_fetch_schedule () =
  (* 8 independent instructions: an f-wide fetch issues instruction i
     no earlier than cycle i/f + 1, so the span is ceil(8/f). *)
  let n = 8 in
  (* keep them independent: distinct destinations, no uses *)
  let info =
    Test_analyze.mk_info
      ~defs:(Array.init n (fun i -> [| 1 + i |]))
      (Array.make n K.Plain)
  in
  let trace =
    Test_analyze.mk_trace (List.init n (fun pc -> (pc, -1)))
  in
  let cyc f = fetch_cycles (M.with_fetch f M.oracle) info trace in
  Alcotest.(check int) "unlimited" 1 (cyc None);
  Alcotest.(check int) "fetch=1" 8 (cyc (Some 1));
  Alcotest.(check int) "fetch=2" 4 (cyc (Some 2));
  Alcotest.(check int) "fetch=3" 3 (cyc (Some 3));
  Alcotest.(check int) "fetch=8" 1 (cyc (Some 8));
  (* a width below 1, which only the library API can build, is unlimited *)
  Alcotest.(check int) "fetch=0" 1 (cyc (Some 0));
  (* fetch composes with data dependence: a serial chain is unmoved *)
  let chain =
    Test_analyze.mk_info
      ~uses:[| [||]; [| 1 |]; [| 2 |] |]
      ~defs:[| [| 1 |]; [| 2 |]; [| 3 |] |]
      [| K.Plain; K.Plain; K.Plain |]
  in
  let ctrace = Test_analyze.mk_trace [ (0, -1); (1, -1); (2, -1) ] in
  Alcotest.(check int) "chain unmoved by fetch=4" 3
    (fetch_cycles (M.with_fetch (Some 4) M.oracle) chain ctrace)

(* --- value prediction: breaking the serial chain --- *)

let test_value_prediction_schedule () =
  let chain =
    Test_analyze.mk_info
      ~uses:[| [||]; [| 1 |]; [| 2 |] |]
      ~defs:[| [| 1 |]; [| 2 |]; [| 3 |] |]
      [| K.Plain; K.Plain; K.Plain |]
  in
  let trace () = Test_analyze.mk_trace [ (0, -1); (1, -1); (2, -1) ] in
  let vp = M.with_value_predict true M.oracle in
  (* every producer predictable: the chain collapses to one cycle *)
  Alcotest.(check int) "all predictable" 1
    (fetch_cycles ~value_table:[| true; true; true |] vp chain (trace ()));
  (* only the first link broken: 0 -> free, 1 -> cycle 1, 2 -> cycle 2 *)
  Alcotest.(check int) "first predictable" 2
    (fetch_cycles ~value_table:[| true; false; false |] vp chain (trace ()));
  (* vp machine without training degrades to the plain schedule *)
  Alcotest.(check int) "no table" 3 (fetch_cycles vp chain (trace ()));
  Alcotest.(check int) "undersized table" 3
    (fetch_cycles ~value_table:[| true |] vp chain (trace ()));
  Alcotest.(check int) "all-false table" 3
    (fetch_cycles ~value_table:[| false; false; false |] vp chain
       (trace ()));
  (* a table never helps a machine without the vp constraint *)
  Alcotest.(check int) "table ignored without vp" 3
    (fetch_cycles ~value_table:[| true; true; true |] M.oracle chain
       (trace ()))

(* --- end-to-end: a parsed spec is the machine it names --- *)

let small_source =
  {|int main(void) { int i; int s = 0; int c = 0;
     for (i = 0; i < 120; i = i + 1) {
       c = 7;
       if (i % 4 == 0) s = s + c;
       else s = s + 1;
     }
     return s; }|}

let test_spec_equals_alias_end_to_end () =
  let p =
    Harness.prepare_source ~train_values:true ~name:"lattice-e2e"
      small_source
  in
  let results ms = Harness.Run.on_prepared p (List.map Harness.spec ms) in
  (match
     results [ M.sp_cd; ok_machine (M.of_spec "sp-cd") ]
   with
  | [ a; b ] ->
    if a <> b then Alcotest.fail "parsed sp-cd diverged from the alias"
  | _ -> assert false);
  (* the vp corner of the lattice is never slower than its base point *)
  match
    results [ M.sp_cd; ok_machine (M.of_spec "sp-cd,vp") ]
  with
  | [ plain; vp ] ->
    if vp.Ilp.Analyze.cycles > plain.Ilp.Analyze.cycles then
      Alcotest.failf "vp slowed sp-cd: %d > %d" vp.cycles plain.cycles;
    Alcotest.(check int) "same counted" plain.counted vp.counted
  | _ -> assert false

let suite =
  [ Alcotest.test_case "paper machine specs" `Quick test_paper_specs;
    Alcotest.test_case "canonical printing" `Quick test_canonical_printing;
    Alcotest.test_case "combinators = parser" `Quick
      test_combinators_match_parser;
    Alcotest.test_case "typed parse errors" `Quick test_errors;
    QCheck_alcotest.to_alcotest test_roundtrip_random;
    Alcotest.test_case "lattice order goldens" `Quick test_leq_goldens;
    QCheck_alcotest.to_alcotest test_leq_order_random;
    Alcotest.test_case "fetch-rate schedule" `Quick test_fetch_schedule;
    Alcotest.test_case "value-prediction schedule" `Quick
      test_value_prediction_schedule;
    Alcotest.test_case "spec = alias end to end" `Quick
      test_spec_equals_alias_end_to_end ]
