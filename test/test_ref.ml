(* The analyzer against the naive reference in ref_analyze.ml: the two
   share the trace, the static program facts and the predictor, and
   nothing of the hot loop. *)

(* Results compare on everything but the execution's completeness tag:
   the reference only times entries. *)
let pp_result = Test_pipeline.pp_result
let equal_result = Test_pipeline.equal_result
let result_t = Test_pipeline.result_t

let fuel = 20_000

(* Every workload at 20k steps, recorded once. *)
let prepared =
  lazy
    (List.map
       (fun (w : Workloads.Registry.t) ->
         let p = Harness.prepare ~fuel ~train_values:true w in
         (w.name, p, Recorded.trace p))
       Workloads.Registry.all)

let test_paper_machines () =
  List.iter
    (fun (name, (p : Harness.prepared), trace) ->
      let predictor = Harness.profile_predictor p in
      let configs =
        List.map
          (fun m -> Ilp.Analyze.config ~collect_segments:true m predictor)
          Ilp.Machine.all_paper
      in
      let got = Ilp.Analyze.run_many configs p.info trace in
      List.iter2
        (fun m r ->
          Alcotest.check result_t
            (Printf.sprintf "%s %s" name m.Ilp.Machine.name)
            (Ref_analyze.analyze ~collect_segments:true ~predictor m p.info
               trace)
            r)
        Ilp.Machine.all_paper got)
    (Lazy.force prepared)

(* One decode group of twelve machines: the paper seven plus one
   carrying each optional constraint (window, fetch, value prediction,
   latency with finite flows, a window on a speculative machine).  One
   machine collects segments, and two have step budgets that cut the
   trace a third and two thirds of the way through.  Each machine must
   equal the reference run alone, budget included. *)
let mixed_specs =
  [ "sp-cd-mf,window=256"; "sp-cd-mf,fetch=4"; "sp-cd-mf,vp";
    "cd,lat=real,flows=2"; "sp,window=64" ]

let test_mixed_group () =
  let machines =
    Ilp.Machine.all_paper
    @ List.map (fun s -> Result.get_ok (Ilp.Machine.of_spec s)) mixed_specs
  in
  List.iter
    (fun (name, (p : Harness.prepared), trace) ->
      let predictor = Harness.profile_predictor p in
      let value_table =
        Option.map Predict.Predictor.Value.table p.Harness.values
      in
      let counted =
        (Ref_analyze.analyze ~predictor Ilp.Machine.base p.info trace).counted
      in
      let plan =
        List.mapi
          (fun i m ->
            let step_budget =
              if i = 2 then Some (counted / 3)
              else if i = 9 then Some (2 * counted / 3)
              else None
            in
            (m, step_budget, i = 10))
          machines
      in
      let configs =
        List.map
          (fun (m, step_budget, collect_segments) ->
            Ilp.Analyze.config ~collect_segments ?step_budget ?value_table m
              predictor)
          plan
      in
      List.iter2
        (fun (m, step_budget, collect_segments) (r : Ilp.Analyze.result) ->
          let what = Printf.sprintf "%s %s" name m.Ilp.Machine.name in
          Alcotest.check result_t what
            (Ref_analyze.analyze ~collect_segments ?step_budget ?value_table
               ~predictor m p.info trace)
            r;
          Alcotest.(check bool) (what ^ ": cut") (step_budget <> None)
            (r.completeness <> p.completeness))
        plan
        (Ilp.Analyze.run_many ~completeness:p.completeness configs p.info
           trace))
    (Lazy.force prepared)

(* The group keeps machine [m]'s last write of address [a] at word
   [a * nm + m] of one paged table, so a group's words straddle two
   pages when [(a * nm) land 4095 > 4096 - nm].  The workloads reach
   such an address in under 0.2% of their loads and stores; this
   program loads and stores nothing else, besides the addresses whose
   words end a page exactly.  Groups of 3, 7 and 8 machines (8 divides
   a page: no address straddles). *)
let test_page_straddle () =
  let open Ilp.Program_info in
  (* Block 0: load, dependent store, second load, branch on it; block 1:
     a store of the first load's result. *)
  let kind = Risc.Insn.[| Plain; Plain; Plain; Cond_branch; Plain |] in
  let mem = [| Mem_load; Mem_store; Mem_load; No_mem; Mem_store |] in
  let info =
    make ~kind
      ~uses:[| [| 2 |]; [| 1 |]; [| 3 |]; [| 3 |]; [| 1; 3 |] |]
      ~defs:[| [| 1 |]; [||]; [| 3 |]; [||]; [||] |]
      ~mem ~sp_adjust:(Array.make 5 false) ~loop_overhead:(Array.make 5 false)
      ~lat:[| Lat_mem; Lat_mem; Lat_mem; Lat_int; Lat_mem |]
      ~block_of:[| 0; 0; 0; 0; 1 |] ~block_start:[| 0; 4 |] ~n_blocks:2
      ~rdf:[| [||]; [| 0 |] |]
  in
  let predictor =
    { Predict.Predictor.name = "taken";
      predict = (fun ~pc:_ ~taken:_ -> true);
      stateful = false }
  in
  let machines =
    Ilp.Machine.all_paper
    @ [ Result.get_ok (Ilp.Machine.of_spec "sp-cd-mf,lat=real,window=4") ]
  in
  List.iter
    (fun nm ->
      let edge =
        List.filter
          (fun a -> (a * nm) land 4095 >= 4096 - nm)
          (List.init (3 * 4096) Fun.id)
      in
      let addrs = Array.of_list edge in
      let k = Array.length addrs in
      let trace = Vm.Trace.create () in
      for i = 0 to 599 do
        Array.iteri
          (fun pc m ->
            let aux =
              if kind.(pc) = Risc.Insn.Cond_branch then (i / 3) land 1
              else if m <> No_mem then addrs.((i * 7 + pc) mod k)
              else -1
            in
            Vm.Trace.push trace ~pc ~aux)
          mem
      done;
      let ms = List.filteri (fun i _ -> i < nm) (List.rev machines) in
      let configs =
        List.map
          (fun m ->
            Ilp.Analyze.config ~collect_segments:true ~mem_words:8 m
              predictor)
          ms
      in
      List.iter2
        (fun m r ->
          Alcotest.check result_t
            (Printf.sprintf "%d machines (%d edge addresses): %s" nm k
               m.Ilp.Machine.name)
            (Ref_analyze.analyze ~collect_segments:true ~predictor m info
               trace)
            r)
        ms
        (Ilp.Analyze.run_many configs info trace))
    [ 3; 7; 8 ]

(* Random lattice points (window, fetch, flows, realistic latency,
   value prediction) on a random workload, with inlining and unrolling
   drawn too. *)
let prop_random_machines =
  QCheck.Test.make ~count:40 ~name:"reference == analyzer (random machines)"
    QCheck.(
      quad (int_bound 0x3FFFFFFF) (int_bound 9) bool bool)
    (fun (mseed, wi, inline, unroll) ->
      let machine = Ilp.Machine.random mseed in
      let name, (p : Harness.prepared), trace =
        List.nth (Lazy.force prepared) wi
      in
      let predictor = Harness.profile_predictor p in
      let value_table =
        Option.map Predict.Predictor.Value.table p.Harness.values
      in
      let cfg =
        Ilp.Analyze.config ~inline ~unroll ~collect_segments:true ?value_table
          machine predictor
      in
      let want =
        Ref_analyze.analyze ~inline ~unroll ~collect_segments:true
          ?value_table ~predictor machine p.info trace
      in
      let got = Ilp.Analyze.run cfg p.info trace in
      if equal_result got want then true
      else
        QCheck.Test.fail_reportf "%s, %s, inline=%b unroll=%b: want %a, got %a"
          name (Ilp.Machine.describe machine) inline unroll pp_result want
          pp_result got)

(* Random straight-line programs and random traces over them.  Compiled
   code never shows the analyzer some shapes its resolution cache must
   get right: a block re-entered right after its own branch, or after a
   return from inside it.  Here any instruction may follow any other;
   the trace only starts at a block's first instruction. *)
let gen_case =
  let open QCheck.Gen in
  let* n = int_range 2 10 in
  let* kinds =
    array_repeat n
      (frequency
         [ (6, return Risc.Insn.Plain); (3, return Risc.Insn.Cond_branch);
           (1, return Risc.Insn.Jump); (1, return Risc.Insn.Computed_jump);
           (2, return Risc.Insn.Call); (2, return Risc.Insn.Ret);
           (1, return Risc.Insn.Stop) ])
  in
  let* cuts = array_repeat n (frequencyl [ (1, true); (2, false) ]) in
  let block_of = Array.make n 0 in
  for pc = 1 to n - 1 do
    block_of.(pc) <- (block_of.(pc - 1) + if cuts.(pc) then 1 else 0)
  done;
  let n_blocks = block_of.(n - 1) + 1 in
  let block_start = Array.make n_blocks 0 in
  for pc = n - 1 downto 0 do
    block_start.(block_of.(pc)) <- pc
  done;
  let regs = array_size (int_bound 2) (int_range 1 4) in
  let* uses = array_repeat n regs in
  let* defs = array_repeat n regs in
  let* rdf =
    array_repeat n_blocks (array_size (int_bound 2) (int_bound (n_blocks - 1)))
  in
  let* mem =
    array_repeat n
      (frequencyl
         [ (3, Ilp.Program_info.No_mem); (1, Mem_load); (1, Mem_store) ])
  in
  let mem =
    Array.mapi
      (fun pc m ->
        if kinds.(pc) = Risc.Insn.Plain then m else Ilp.Program_info.No_mem)
      mem
  in
  let* sp_adjust = array_repeat n (frequencyl [ (1, true); (5, false) ]) in
  let* overhead = array_repeat n (frequencyl [ (1, true); (4, false) ]) in
  let* lat =
    array_repeat n
      (oneofl Ilp.Program_info.[ Lat_int; Lat_mul; Lat_div; Lat_mem; Lat_fadd ])
  in
  let info =
    Ilp.Program_info.make ~kind:kinds ~uses ~defs ~mem ~sp_adjust
      ~loop_overhead:overhead ~lat ~block_of ~block_start ~n_blocks ~rdf
  in
  (* Each step jumps anywhere, repeats the last pc, or restarts the
     last pc's block, so blocks are often re-entered straight away. *)
  let* len = int_range 1 300 in
  let* moves = list_repeat len (pair (int_bound 4) (int_bound (n - 1))) in
  let* auxs = list_repeat (len + 1) (int_bound 7) in
  let _, rev_pcs =
    List.fold_left
      (fun (last, acc) (move, pc) ->
        let pc =
          match move with
          | 0 -> last
          | 1 -> block_start.(block_of.(last))
          | _ -> pc
        in
        (pc, pc :: acc))
      (0, [ 0 ]) moves
  in
  let trace = Vm.Trace.create () in
  List.iter2
    (fun pc a ->
      let aux =
        if kinds.(pc) = Risc.Insn.Cond_branch then a land 1
        else if mem.(pc) <> Ilp.Program_info.No_mem then a
        else -1
      in
      Vm.Trace.push trace ~pc ~aux)
    (List.rev rev_pcs) auxs;
  let* wrong = int_bound 0xFFFF in
  let* vp = array_repeat n bool in
  return (info, trace, wrong, vp)

let prop_random_traces =
  QCheck.Test.make ~count:1000 ~name:"reference == analyzer (random traces)"
    QCheck.(
      quad (make gen_case) (int_bound 0x3FFFFFFF) bool bool)
    (fun ((info, trace, wrong, vp), mseed, inline, unroll) ->
      let machine = Ilp.Machine.random mseed in
      (* Pure in (pc, taken): each pc is mispredicted always or never. *)
      let predictor =
        { Predict.Predictor.name = "scripted";
          predict =
            (fun ~pc ~taken -> if (wrong lsr pc) land 1 = 1 then not taken
              else taken);
          stateful = false }
      in
      let cfg =
        Ilp.Analyze.config ~inline ~unroll ~collect_segments:true ~mem_words:8
          ~value_table:vp machine predictor
      in
      let want =
        Ref_analyze.analyze ~inline ~unroll ~collect_segments:true
          ~value_table:vp ~predictor machine info trace
      in
      let got = Ilp.Analyze.run cfg info trace in
      if equal_result got want then true
      else
        QCheck.Test.fail_reportf "%s, inline=%b unroll=%b: want %a, got %a"
          (Ilp.Machine.describe machine) inline unroll pp_result want
          pp_result got)

let suite =
  [ Alcotest.test_case "ten workloads x seven machines" `Quick
      test_paper_machines;
    Alcotest.test_case "ten workloads x one mixed group with budgets" `Quick
      test_mixed_group;
    Alcotest.test_case "group words straddling a memory page" `Quick
      test_page_straddle;
    QCheck_alcotest.to_alcotest prop_random_machines;
    QCheck_alcotest.to_alcotest prop_random_traces ]
