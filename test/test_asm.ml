(* Tests of assembly program representation and linking. *)

module I = Risc.Insn
module P = Asm.Program

let simple_program () =
  { P.procs =
      [ { P.name = "__start";
          body = [ P.Ins (I.Jal "main"); P.Ins I.Halt ] };
        { P.name = "main";
          body =
            [ P.Ins (I.Li (2, 5));
              P.Label "loop";
              P.Ins (I.Alui (I.Add, 2, 2, -1));
              P.Ins (I.Bi (I.Gt, 2, 0, "loop"));
              P.Ins (I.Jr 31) ] } ];
    data = [ (16, [| P.Int_cell 7 |]) ];
    entry = "__start" }

let test_resolve () =
  let flat = P.resolve (simple_program ()) in
  Alcotest.(check int) "code size" 6 (Array.length flat.code);
  Alcotest.(check int) "entry pc" 0 flat.entry_pc;
  (match flat.code.(0) with
  | I.Jal 2 -> ()
  | _ -> Alcotest.fail "jal resolves to main at 2");
  (match flat.code.(4) with
  | I.Bi (I.Gt, 2, 0, 3) -> ()
  | _ -> Alcotest.fail "backward branch resolves to loop at 3");
  Alcotest.(check string) "proc of 0" "__start" (P.proc_of_pc flat 0);
  Alcotest.(check string) "proc of 4" "main" (P.proc_of_pc flat 4);
  Alcotest.(check (list (pair string int))) "bounds"
    [ ("__start", 0); ("main", 2) ]
    (Array.to_list
       (Array.map2
          (fun n (s, _) -> (n, s))
          flat.proc_names flat.proc_bounds))

let test_duplicate_label () =
  let prog =
    { P.procs =
        [ { P.name = "main";
            body = [ P.Label "x"; P.Ins I.Halt; P.Label "x" ] } ];
      data = [];
      entry = "main" }
  in
  match P.resolve prog with
  | exception P.Link_error msg ->
    Alcotest.(check bool) "mentions label" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected Link_error"

let test_undefined_label () =
  let prog =
    { P.procs = [ { P.name = "main"; body = [ P.Ins (I.J "nowhere") ] } ];
      data = [];
      entry = "main" }
  in
  match P.resolve prog with
  | exception P.Link_error _ -> ()
  | _ -> Alcotest.fail "expected Link_error"

let test_missing_entry () =
  let prog =
    { P.procs = [ { P.name = "main"; body = [ P.Ins I.Halt ] } ];
      data = [];
      entry = "start" }
  in
  match P.resolve prog with
  | exception P.Link_error _ -> ()
  | _ -> Alcotest.fail "expected Link_error"

let test_empty_program () =
  let prog = { P.procs = []; data = []; entry = "main" } in
  match P.resolve prog with
  | exception P.Link_error _ -> ()
  | _ -> Alcotest.fail "expected Link_error"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_disassembly_listing () =
  let flat = P.resolve (simple_program ()) in
  let text = Format.asprintf "%a" P.pp_flat flat in
  Alcotest.(check bool) "mentions main" true (contains text "main:");
  Alcotest.(check bool) "mentions halt" true (contains text "halt")

let suite =
  [ Alcotest.test_case "resolve" `Quick test_resolve;
    Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
    Alcotest.test_case "undefined label" `Quick test_undefined_label;
    Alcotest.test_case "missing entry" `Quick test_missing_entry;
    Alcotest.test_case "empty program" `Quick test_empty_program;
    Alcotest.test_case "disassembly" `Quick test_disassembly_listing ]
