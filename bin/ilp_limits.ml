(* ilp-limits: command-line driver for the reproduction.

   Subcommands:
     list        the benchmark suite (paper Table 1)
     machines    machine aliases, the spec grammar, and a spec fuzzer
     run         parallelism limits for chosen workloads and machines
     stats       branch statistics (Table 2) and misprediction distances
     check       static diagnostic passes (and dynamic cross-validation)
     estimate    static parallelism bounds, no execution
     disasm      compiled assembly of a workload, flag-annotated
     blocks      basic blocks, control dependences and loops
     trace       the head of a dynamic trace
     inject      run one seeded fault through the pipeline
     fuzz        bulk seeded fault injection (pipeline invariant check)
     serve       long-running analysis daemon (framed JSON over a socket)
     client      one request against a running serve daemon

   Every command returns (unit, Pipeline_error.t) result; the error's
   cause class selects the process exit code (see Pipeline_error.exit_code):
   1 generic/internal, 2 unknown name or bad request, 3 compile error,
   4 VM fault, 5 resource budget, 6 deadline, 7 overloaded,
   8 rejected by the admission estimate. *)

let ( let* ) = Result.bind

let err ?workload stage cause = Error (Pipeline_error.v ?workload stage cause)

module Jsonx = Stdx.Jsonx

(* [f] over [xs] in order, stopping at the first error. *)
let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let workloads_of_names = function
  | [] -> Ok Workloads.Registry.all
  | names -> map_result Workloads.Registry.find_result names

let fault_of_name name =
  match Fault.Injector.kind_of_string name with
  | Some k -> Ok k
  | None ->
    err Lookup
      (Unknown_fault
         { name;
           hint = Pipeline_error.suggest name Fault.Injector.kind_names })

(* ------------------------------------------------------------------ *)

let cmd_list () =
  let rows =
    List.map
      (fun (w : Workloads.Registry.t) ->
        [ w.name; w.lang; (if w.numeric then "numeric" else "non-numeric");
          w.description ])
      Workloads.Registry.all
  in
  print_string
    (Report.Table.render ~title:"Benchmark programs (Table 1)"
       ~header:[ "Program"; "Language"; "Class"; "Description" ]
       ~align:[ Left; Left; Left; Left ] rows);
  Ok ()

(* The machine lattice: aliases, grammar, and a parser fuzzer.  The
   fuzzer asserts the spec layer's own invariant — every string yields
   a machine or a typed error, and canonical specs round-trip — over
   deterministically seeded lattice points and mutations of them. *)

let cmd_machines_fuzz ~seed ~cases =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  for i = 0 to cases - 1 do
    let bits = Fault.Injector.Rng.derive ~seed ~index:i in
    (* A random lattice point's canonical spec must parse back to the
       same machine. *)
    (try
       let m = Ilp.Machine.random bits in
       let spec = Ilp.Machine.to_spec m in
       match Ilp.Machine.of_spec spec with
       | Ok m' when m' = m -> ()
       | Ok m' ->
         fail "case %d: %S reparsed as %S" i spec (Ilp.Machine.to_spec m')
       | Error e ->
         fail "case %d: canonical spec %S rejected: %s" i spec
           (Pipeline_error.to_string e)
     with e ->
       fail "case %d: ESCAPED on canonical spec: %s" i
         (Printexc.to_string e));
    (* A deterministic mutation of it must yield a machine or a typed
       error — never an exception. *)
    let spec = Ilp.Machine.to_spec (Ilp.Machine.random bits) in
    let mbits = Fault.Injector.Rng.derive ~seed:bits ~index:1 in
    let mutated =
      match mbits land 3 with
      | 0 -> spec ^ ",bogus"
      | 1 -> String.map (fun c -> if c = '=' then '%' else c) spec
      | 2 -> "zz" ^ spec
      | _ -> String.sub spec 0 ((mbits lsr 2) mod String.length spec)
    in
    match Ilp.Machine.of_spec mutated with
    | Ok _ | Error _ -> ()
    | exception e ->
      fail "case %d: ESCAPED on mutated spec %S: %s" i mutated
        (Printexc.to_string e)
  done;
  let failures = List.rev !failures in
  Format.printf
    "machine-spec fuzz: %d cases (seed %d): %d round-trips, %d mutations, \
     %d failures@."
    cases seed cases cases (List.length failures);
  List.iter (fun f -> Format.printf "  %s@." f) failures;
  if failures <> [] then
    err Report
      (Failed
         (Printf.sprintf "%d machine-spec fuzz failures"
            (List.length failures)))
  else Ok ()

let cmd_machines fuzz seed =
  match fuzz with
  | Some cases -> cmd_machines_fuzz ~seed ~cases
  | None ->
    let rows =
      List.map
        (fun (m : Ilp.Machine.t) ->
          [ m.name; Ilp.Machine.to_spec m; Ilp.Machine.describe m ])
        Ilp.Machine.all_paper
    in
    print_string
      (Report.Table.render ~title:"Named machines (paper Table 3 order)"
         ~header:[ "Machine"; "Spec"; "Constraints" ]
         ~align:[ Left; Left; Left ] rows);
    print_newline ();
    print_endline Ilp.Machine.grammar;
    Ok ()

(* A truncated result's cell gets a star; the legend under the table
   says where and why each starred execution stopped. *)
let truncation_note (r : Ilp.Analyze.result) =
  match r.completeness with
  | Pipeline_error.Complete -> None
  | Pipeline_error.Truncated f ->
    Some (Format.asprintf "%a" Pipeline_error.pp_fault f)

(* ------------------------------------------------------------------ *)
(* Observability surfaces: --trace-out FILE (JSON-lines spans +
   metrics), --metrics (human tree on stdout), --prom-out FILE
   (Prometheus text).  Any of them enables the context; none keeps the
   pipeline on the zero-cost disabled path. *)

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc s)

let obs_ctx trace_out metrics prom_out =
  if trace_out <> None || metrics || prom_out <> None then Obs.Ctx.create ()
  else Obs.Ctx.disabled

let obs_report ~trace_out ~metrics ~prom_out obs =
  if Obs.Ctx.enabled obs then begin
    let spans = Obs.Ctx.spans obs in
    let snap = Obs.Ctx.snapshot obs in
    let render f =
      let buf = Buffer.create 4096 in
      f buf;
      Buffer.contents buf
    in
    Option.iter
      (fun path ->
        write_file path
          (render (fun b -> Obs.Export.jsonl b ~spans ~metrics:snap)))
      trace_out;
    if metrics then
      print_string (render (fun b -> Obs.Export.tree b ~metrics:snap spans));
    Option.iter
      (fun path ->
        write_file path (render (fun b -> Obs.Export.prometheus b snap)))
      prom_out
  end

let cmd_run names machine_names no_inline no_unroll fuel step_budget
    mem_words deadline_ms jobs split_trace trace_out metrics prom_out =
  let* ws = workloads_of_names names in
  let* machines = Ilp.Machine.of_specs machine_names in
  let header =
    "Program"
    :: List.map (fun (m : Ilp.Machine.t) -> m.name) machines
  in
  let specs =
    List.map
      (fun m ->
        Harness.spec ~inline:(not no_inline) ~unroll:(not no_unroll)
          ?step_budget m)
      machines
  in
  let jobs = Cli.Parallel.resolve_jobs jobs in
  let obs = obs_ctx trace_out metrics prom_out in
  (* Each workload trains, then replays straight into all machines in
     a single pass, holding O(program) state whatever the fuel; with
     more than one worker domain, whole workloads also fan out over a
     pool, merged back in workload order so the table is identical for
     every --jobs value; --split-trace splits each workload's replay
     across the pool instead. *)
  let cfg =
    Harness.Run.config ~jobs ?fuel ?step_budget ?mem_words
      ?deadline_ms ~obs
      ~segment_steps:(if split_trace then `Auto else `Off)
      specs
  in
  let* items = Harness.Run.exec cfg ws in
  let* per_workload =
    map_result
      (fun (it : Harness.Run.item) ->
        let* results = it.it_outcome in
        Ok (it.it_workload, results))
      items
  in
  let notes = ref [] in
  let rows =
    List.map
      (fun ((w : Workloads.Registry.t), results) ->
        (match results with
        | r :: _ -> (
          match truncation_note r with
          | Some note -> notes := (w.name, note) :: !notes
          | None -> ())
        | [] -> ());
        w.name
        :: List.map
             (fun (r : Ilp.Analyze.result) ->
               Report.Table.fnum r.parallelism
               ^ (match r.completeness with
                 | Pipeline_error.Complete -> ""
                 | Pipeline_error.Truncated _ -> "*"))
             results)
      per_workload
  in
  print_string
    (Report.Table.render ~title:"Parallelism limits"
       ~header
       ~align:(Left :: List.map (fun _ -> Report.Table.Right) machines)
       rows);
  List.iter
    (fun (name, note) -> Printf.printf "  * %s: truncated (%s)\n" name note)
    (List.rev !notes);
  obs_report ~trace_out ~metrics ~prom_out obs;
  Ok ()

let cmd_stats names fuel =
  let* ws = workloads_of_names names in
  let row w =
    let* p = Harness.prepare_result ?fuel w in
    let bs = Harness.branch_stats p in
    let sp =
      List.hd
        (Harness.Run.on_prepared p
           [ Harness.spec ~segments:true Ilp.Machine.sp ])
    in
    let dists = Ilp.Stats.cumulative_distances sp.segments in
    let under n =
      let rec last acc = function
        | [] -> acc
        | (d, f) :: rest -> if d <= n then last f rest else acc
      in
      100. *. last 0. dists
    in
    Ok
      [ w.Workloads.Registry.name;
        Printf.sprintf "%.2f" bs.rate;
        Printf.sprintf "%.1f" bs.instrs_between;
        string_of_int sp.mispredicts;
        Printf.sprintf "%.1f" (under 100);
        Printf.sprintf "%.1f" (under 1000) ]
  in
  let* rows = map_result row ws in
  print_string
    (Report.Table.render ~title:"Branch statistics (Table 2 + Figure 6)"
       ~header:
         [ "Program"; "Prediction %"; "Instrs/branch"; "Mispredicts";
           "dist<=100 %"; "dist<=1000 %" ]
       ~align:[ Left; Right; Right; Right; Right; Right ]
       rows);
  Ok ()

(* Listings carry the packed per-pc flags of Program_info, so verifier
   diagnostics (which report pcs and blocks) can be eyeballed against
   the exact facts the analyzer consumes. *)
let print_annotated ~indent flat info pc =
  Format.printf "%s%5d  %s  %a@." indent pc
    (Ilp.Program_info.flags_string info pc)
    Risc.Insn.pp_resolved
    flat.Asm.Program.code.(pc)

let cmd_disasm name =
  let* w = Workloads.Registry.find_result name in
  let* flat = Workloads.Registry.compile_result w in
  let info = Ilp.Program_info.analyze_flat flat in
  Format.printf "flags: B=block-start c/j/C/R/H=kind O=loop-overhead \
                 S=sp-adjust l/s=load/store@.";
  Array.iteri
    (fun p (start, stop) ->
      Format.printf "@.%s:@." flat.Asm.Program.proc_names.(p);
      for pc = start to stop - 1 do
        print_annotated ~indent:"" flat info pc
      done)
    flat.Asm.Program.proc_bounds;
  Ok ()

let cmd_blocks name =
  let* w = Workloads.Registry.find_result name in
  let* flat = Workloads.Registry.compile_result w in
  let cfg = Cfg.Analysis.analyze flat in
  let info = Ilp.Program_info.of_flat flat cfg in
  Array.iter
    (fun (b : Cfg.Graph.block) ->
      Format.printf "block %d (proc %s) [%d,%d) succs=[%s]@." b.id
        flat.Asm.Program.proc_names.(b.proc) b.start b.stop
        (String.concat "," (List.map string_of_int b.succs));
      for pc = b.start to b.stop - 1 do
        print_annotated ~indent:"  " flat info pc
      done)
    cfg.graph.blocks;
  Array.iteri
    (fun b deps ->
      if Array.length deps > 0 then
        Format.printf "block %d control dependent on branches of %s@." b
          (String.concat ","
             (List.map string_of_int (Array.to_list deps))))
    cfg.rdf;
  List.iter
    (fun (l : Cfg.Loops.loop) ->
      Format.printf "loop header=%d blocks=[%s] induction=[%s]@." l.header
        (String.concat "," (List.map string_of_int l.body))
        (String.concat ","
           (List.map
              (fun r -> Format.asprintf "%a" Risc.Reg.pp_uid r)
              l.induction)))
    cfg.loops.loops;
  Ok ()

let cmd_check names fuel dynamic warnings_too strict disabled fmt trace_out
    metrics prom_out =
  let* ws = workloads_of_names names in
  let config = { Cfg.Engine.disabled; strict } in
  let obs = obs_ctx trace_out metrics prom_out in
  let* results =
    map_result (fun w -> Harness.check ~config ~obs ?fuel ~dynamic w) ws
  in
  (match fmt with
  | `Json ->
    let workload (r : Harness.check_result) =
      let dynamic_fields =
        if dynamic then
          [ ("dynamic",
             Jsonx.Obj
               [ ("entries", Jsonx.Int r.c_dyn_entries);
                 ("violations", Jsonx.Int r.c_dyn_total);
                 ("status",
                  Jsonx.Str
                    (Option.fold ~none:"" ~some:Vm.Exec.status_string
                       r.c_status)) ]) ]
        else []
      in
      Jsonx.Obj
        (("workload", Jsonx.Str r.c_workload)
        :: ("report", Cfg.Engine.to_json r.c_engine) :: dynamic_fields)
    in
    print_endline
      (Jsonx.to_string
         (Jsonx.Obj [ ("workloads", Jsonx.List (List.map workload results)) ]))
  | `Text ->
    List.iter
      (fun (r : Harness.check_result) ->
        let rep = r.Harness.c_engine in
        if dynamic then
          Format.printf "%-10s %d errors, %d warnings; dynamic: %d entries \
                         checked, %d violations%s@."
            r.c_workload rep.Cfg.Engine.n_errors rep.Cfg.Engine.n_warnings
            r.c_dyn_entries r.c_dyn_total
            (match r.c_status with
            | Some (Vm.Exec.Halted _) | None -> ""
            | Some s -> Printf.sprintf " [%s]" (Vm.Exec.status_string s))
        else
          Format.printf "%-10s %d errors, %d warnings@." r.c_workload
            rep.Cfg.Engine.n_errors rep.Cfg.Engine.n_warnings;
        List.iter
          (fun (d : Cfg.Engine.diag) ->
            if d.d_severity = Cfg.Engine.Error || warnings_too then
              Format.printf "  %a@." Cfg.Engine.pp_diag d)
          rep.Cfg.Engine.diags;
        List.iter
          (fun (v : Cfg.Verify.Dynamic.violation) ->
            Format.printf "  violation at entry %d (pc %d): %s@." v.index
              v.pc v.message)
          r.c_dyn_violations)
      results);
  obs_report ~trace_out ~metrics ~prom_out obs;
  if
    List.exists
      (fun (r : Harness.check_result) ->
        r.c_engine.Cfg.Engine.n_errors > 0 || r.c_dyn_total > 0)
      results
  then err Report (Failed "verification failed")
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Static parallelism estimates (no execution). *)

let bound_cell (b : Ilp.Static_bound.t) =
  Ilp.Static_bound.value_to_string b.bound
  ^ match b.limiting with Some l -> " (" ^ l ^ ")" | None -> ""

let estimate_json (es : Harness.estimated list) =
  let bound (b : Ilp.Static_bound.t) =
    Jsonx.Obj
      [ ("spec", Jsonx.Str b.spec); ("bound", Jsonx.Float b.bound);
        ("limiting",
         Option.fold ~none:Jsonx.Null ~some:(fun l -> Jsonx.Str l) b.limiting) ]
  in
  let workload (e : Harness.estimated) =
    let est = e.e_est in
    let d, l, x, u = Cfg.Classify.counts est.Cfg.Estimate.classes in
    Jsonx.Obj
      [ ("workload", Jsonx.Str e.e_workload);
        ("branches",
         Jsonx.Obj
           [ ("decided", Jsonx.Int d); ("loop_exit", Jsonx.Int l);
             ("data", Jsonx.Int x); ("unreachable", Jsonx.Int u) ]);
        ("max_run",
         match est.Cfg.Estimate.max_run with
         | Cfg.Estimate.Finite m -> Jsonx.Int m
         | Cfg.Estimate.Unbounded -> Jsonx.Null);
        ("bounds", Jsonx.List (List.map bound e.e_bounds)) ]
  in
  Jsonx.Obj [ ("workloads", Jsonx.List (List.map workload es)) ]

let cmd_estimate names machine_names no_inline no_unroll detail fmt =
  let* ws = workloads_of_names names in
  let* machines = Ilp.Machine.of_specs machine_names in
  let* es =
    map_result
      (Harness.estimate ~inline:(not no_inline) ~unroll:(not no_unroll)
         ~machines)
      ws
  in
  (match fmt with
  | `Json -> print_endline (Jsonx.to_string (estimate_json es))
  | `Text ->
    let header =
      "Program" :: List.map (fun (m : Ilp.Machine.t) -> m.name) machines
    in
    let rows =
      List.map
        (fun (e : Harness.estimated) ->
          e.e_workload :: List.map bound_cell e.e_bounds)
        es
    in
    print_string
      (Report.Table.render
         ~title:"Static parallelism bounds (no execution)"
         ~header
         ~align:(Left :: List.map (fun _ -> Report.Table.Right) machines)
         rows);
    print_newline ();
    let facts =
      List.map
        (fun (e : Harness.estimated) ->
          let est = e.e_est in
          let d, l, x, u = Cfg.Classify.counts est.Cfg.Estimate.classes in
          [ e.e_workload; string_of_int d; string_of_int l;
            string_of_int x; string_of_int u;
            Cfg.Estimate.bound_to_string est.Cfg.Estimate.max_run ])
        es
    in
    print_string
      (Report.Table.render ~title:"Static facts"
         ~header:
           [ "Program"; "Decided"; "Loop-exit"; "Data-dep"; "Unreach";
             "Max run M" ]
         ~align:[ Left; Right; Right; Right; Right; Right ]
         facts);
    if detail then
      List.iter
        (fun (e : Harness.estimated) ->
          Format.printf "@.%s procedures:@." e.e_workload;
          Array.iter
            (fun (p : Cfg.Estimate.proc_facts) ->
              Format.printf
                "  %-16s counted=%-5d height=%-4d head=%s thru=%s tail=%s \
                 runs=%s@."
                p.pf_name p.pf_counted p.pf_height
                (Cfg.Estimate.bound_to_string p.pf_head)
                (match p.pf_thru with
                | Some b -> Cfg.Estimate.bound_to_string b
                | None -> "-")
                (Cfg.Estimate.bound_to_string p.pf_tail)
                (Cfg.Estimate.bound_to_string p.pf_runs))
            e.e_est.Cfg.Estimate.procs;
          List.iter
            (fun (l : Cfg.Estimate.loop_facts) ->
              Format.printf
                "  loop header=%-4d blocks=%-3d counted=%-4d trip=%s@."
                l.lf_header l.lf_blocks l.lf_counted
                (match l.lf_trip with
                | Some t -> string_of_int t
                | None -> "unbounded"))
            e.e_est.Cfg.Estimate.loops)
        es);
  Ok ()

let cmd_trace name count =
  let* w = Workloads.Registry.find_result name in
  let* flat = Workloads.Registry.compile_result w in
  let outcome = Vm.Exec.run ~fuel:w.Workloads.Registry.fuel flat in
  let trace = outcome.trace in
  let n = min count (Vm.Trace.length trace) in
  for i = 0 to n - 1 do
    let pc = Vm.Trace.pc trace i in
    Format.printf "%8d  %4d  %-30s %s@." i pc
      (Format.asprintf "%a" Risc.Insn.pp_resolved flat.code.(pc))
      (let aux = Vm.Trace.aux trace i in
       if aux < 0 then ""
       else
         match Risc.Insn.kind flat.code.(pc) with
         | Risc.Insn.Cond_branch ->
           if aux = 1 then "taken" else "not-taken"
         | _ -> Printf.sprintf "addr=%d" aux)
  done;
  (match outcome.status with
  | Vm.Exec.Halted _ -> ()
  | s ->
    Format.printf "-- execution ended: %a after %d instructions@."
      Vm.Exec.pp_status s outcome.steps);
  Ok ()

(* ------------------------------------------------------------------ *)
(* Fault injection. *)

let cmd_inject names seed fault_name fuel =
  let* kind = fault_of_name fault_name in
  let* ws = workloads_of_names names in
  let rec go = function
    | [] -> Ok ()
    | w :: rest ->
      let* inj = Harness.inject ?fuel ~seed ~kind w in
      Format.printf "%-10s seed=%d %s@." inj.Harness.i_workload inj.i_seed
        inj.i_description;
      Format.printf "           status=%a steps=%d counted=%d \
                     parallelism=%.2f completeness=%s@."
        Vm.Exec.pp_status inj.i_status inj.i_steps
        inj.i_result.Ilp.Analyze.counted inj.i_result.Ilp.Analyze.parallelism
        (Pipeline_error.completeness_tag
           inj.i_result.Ilp.Analyze.completeness);
      go rest
  in
  go ws

(* With --serve the fuzzer switches target: instead of seeded faults
   through the in-process pipeline, it fires mutated frames at a live
   daemon (Wire_fuzz) and asserts the serve analogue of the same
   invariant — every frame draws a typed error or a clean close, never
   a hang, and the server answers a ping afterwards. *)
let cmd_wire_fuzz ~socket ~seed ~cases =
  let r = Serve.Wire_fuzz.run ~cases ~seed (Serve.Client.Unix_sock socket) in
  Format.printf
    "wire fuzz: %d cases (seed %d): %d structured errors, %d ok replies, \
     %d closed, %d hung, %d unexpected ok, alive=%b@."
    r.Serve.Wire_fuzz.cases seed r.structured r.ok_replies r.closed r.hung
    r.unexpected_ok r.alive;
  if Serve.Wire_fuzz.passed r then Ok ()
  else
    err Report
      (Failed
         (Printf.sprintf
            "wire fuzz violations (%d hung, %d unexpected ok, alive=%b)"
            r.Serve.Wire_fuzz.hung r.unexpected_ok r.alive))

let cmd_fuzz names seed cases fuel jobs random_machines segments
    serve_sock trace_out metrics prom_out =
  match serve_sock with
  | Some socket -> cmd_wire_fuzz ~socket ~seed ~cases
  | None ->
  let* ws = workloads_of_names names in
  let obs = obs_ctx trace_out metrics prom_out in
  let* r =
    Harness.Fuzz.run ?fuel ~workloads:ws ?jobs ~obs
      ~random_machines ~segments ~seed ~cases ()
  in
  obs_report ~trace_out ~metrics ~prom_out obs;
  Format.printf
    "fuzz: %d cases (seed %d): %d complete, %d truncated, %d structured \
     errors, %d internal errors, %d escaped exceptions@."
    r.Harness.Fuzz.cases seed r.complete r.truncated r.structured_errors
    r.internal_errors
    (List.length r.escaped);
  List.iter
    (fun (e : Harness.Fuzz.escaped) ->
      Format.printf "  ESCAPED seed=%d fault=%s workload=%s: %s@." e.e_seed
        (Fault.Injector.kind_name e.e_kind)
        e.e_workload e.e_exn)
    r.escaped;
  if r.escaped <> [] then
    err Report
      (Failed
         (Printf.sprintf "%d exceptions escaped the pipeline barrier"
            (List.length r.escaped)))
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Analysis as a service: the serve daemon and its client. *)

module Protocol = Serve.Protocol

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> err Lookup (Invalid_request "--tcp wants HOST:PORT")
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 -> Ok (host, p)
    | _ ->
      err Lookup
        (Invalid_request (Printf.sprintf "--tcp: bad port %S" port)))

let parse_admission = function
  | "off" -> Ok Serve.Server.Admit_off
  | s -> (
    match String.index_opt s ':' with
    | Some i -> (
      let mode = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match (mode, float_of_string_opt v) with
      | "reject", Some c when c > 0. -> Ok (Serve.Server.Admit_reject c)
      | "budget", Some c when c > 0. -> Ok (Serve.Server.Admit_budget c)
      | _ ->
        err Lookup
          (Invalid_request
             (Printf.sprintf
                "--admit: %S is not off, reject:CEILING or budget:CEILING"
                s)))
    | None ->
      err Lookup
        (Invalid_request
           (Printf.sprintf
              "--admit: %S is not off, reject:CEILING or budget:CEILING" s)))

let serve_once cfg =
  match Serve.Server.start cfg with
  | Error e -> err Report (Failed ("serve: " ^ e))
  | Ok t ->
    let drain _ = Serve.Server.drain t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    Printf.printf "ilp-limits: serving on %s%s (jobs=%d queue=%d)\n%!"
      cfg.Serve.Server.socket_path
      (match cfg.Serve.Server.tcp with
      | Some (h, p) -> Printf.sprintf " and %s:%d" h p
      | None -> "")
      cfg.Serve.Server.jobs cfg.Serve.Server.queue_limit;
    Serve.Server.wait t;
    Ok ()

(* Crash-only supervision: the parent only forks, waits and restarts;
   the server itself always runs in a disposable child.  SIGTERM and
   SIGINT are forwarded to the child (whose handler drains) and stop
   the restart loop; any other exit is logged and restarted with a
   capped backoff. *)
let supervise cfg =
  let stopping = ref false in
  let child = ref 0 in
  let forward sg = fun _ ->
    stopping := true;
    if !child > 0 then try Unix.kill !child sg with Unix.Unix_error _ -> ()
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (forward Sys.sigterm));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (forward Sys.sigint));
  let rec waitpid pid =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
  in
  let rec loop restarts =
    if !stopping then Ok ()
    else
      match Unix.fork () with
      | 0 ->
        child := 0;
        Stdlib.exit
          (match serve_once cfg with
          | Ok () -> 0
          | Error e ->
            prerr_endline ("ilp-limits: " ^ Pipeline_error.to_string e);
            Pipeline_error.exit_code e)
      | pid -> (
        child := pid;
        let status = waitpid pid in
        child := 0;
        match status with
        | Unix.WEXITED 0 -> Ok ()
        | _ when !stopping -> Ok ()
        | status ->
          Printf.eprintf "ilp-limits: server %s; restart %d\n%!"
            (let signal_name sg =
               if sg = Sys.sigkill then "SIGKILL"
               else if sg = Sys.sigsegv then "SIGSEGV"
               else if sg = Sys.sigabrt then "SIGABRT"
               else if sg = Sys.sigbus then "SIGBUS"
               else string_of_int sg
             in
             match status with
            | Unix.WEXITED c -> Printf.sprintf "exited %d" c
            | Unix.WSIGNALED sg ->
              Printf.sprintf "killed by signal %s" (signal_name sg)
            | Unix.WSTOPPED sg ->
              Printf.sprintf "stopped by signal %s" (signal_name sg))
            (restarts + 1);
          Unix.sleepf (min 2.0 (0.1 *. float_of_int (1 lsl min restarts 4)));
          loop (restarts + 1))
  in
  loop 0

let cmd_serve socket tcp jobs queue_limit cache_capacity admit
    max_fuel max_step_budget default_deadline_ms idle_timeout_ms
    retry_after_ms split_trace supervise_flag =
  let* admission = parse_admission admit in
  let* jobs = Cli.Parallel.validate_jobs (Cli.Parallel.resolve_jobs jobs) in
  let* tcp =
    match tcp with
    | None -> Ok None
    | Some s ->
      let* hp = parse_host_port s in
      Ok (Some hp)
  in
  let cfg =
    Serve.Server.config ?tcp ~jobs ?queue_limit ?cache_capacity
      ~admission ?max_fuel ?max_step_budget ?default_deadline_ms
      ?idle_timeout_ms ?retry_after_ms ~split_trace ~socket_path:socket ()
  in
  if supervise_flag then supervise cfg else serve_once cfg

let client_addr socket tcp =
  match tcp with
  | None -> Ok (Serve.Client.Unix_sock socket)
  | Some s ->
    let* h, p = parse_host_port s in
    Ok (Serve.Client.Tcp (h, p))

(* The client prints the response object verbatim (metrics unwrap to
   the exposition text) and exits with the error's own [code] field, so
   scripting against a remote daemon sees the same exit discipline as
   the in-process commands. *)
let cmd_client op socket tcp workload source_file machines fuel step_budget
    mem_words deadline_ms inject_kind seed attempts base_ms =
  let* addr = client_addr socket tcp in
  let* make_payload =
    match op with
    | `Ping -> Ok (fun ~id -> Protocol.ping_request ~id)
    | `Stats -> Ok (fun ~id -> Protocol.stats_request ~id)
    | `Metrics -> Ok (fun ~id -> Protocol.metrics_request ~id)
    | `Analyze ->
      let* source =
        match source_file with
        | None -> Ok None
        | Some path -> (
          match In_channel.with_open_bin path In_channel.input_all with
          | s -> Ok (Some s)
          | exception Sys_error e -> err Lookup (Invalid_request e))
      in
      let* () =
        if workload = None && source = None then
          err Lookup
            (Invalid_request "analyze wants --workload or --source-file")
        else Ok ()
      in
      let inject = Option.map (fun k -> (k, seed)) inject_kind in
      let a =
        Protocol.analyze ?source ~machines ?fuel ?step_budget ?mem_words
          ?deadline_ms ?inject ?workload ()
      in
      Ok (fun ~id -> Protocol.analyze_request ~id a)
  in
  match Serve.Client.call_retry ~attempts ~base_ms ~seed addr ~make_payload with
  | Error e -> err Report (Failed ("client: " ^ e))
  | Ok { o_response = r; o_attempts } ->
    if attempts > 1 && o_attempts > 1 then
      Printf.eprintf "ilp-limits: answered after %d attempts\n%!" o_attempts;
    if r.Protocol.r_ok then begin
      (match
         (op, Option.bind (Jsonx.member "metrics" r.r_body) Jsonx.to_str)
       with
      | `Metrics, Some text -> print_string text
      | _ -> print_endline (Jsonx.to_string r.r_body));
      Ok ()
    end
    else begin
      print_endline (Jsonx.to_string r.r_body);
      let code =
        match
          Option.bind
            (Option.bind (Jsonx.member "error" r.r_body)
               (Jsonx.member "code"))
            Jsonx.to_int
        with
        | Some c when c > 0 -> c
        | _ -> 1
      in
      Stdlib.exit code
    end

(* ------------------------------------------------------------------ *)

open Cmdliner

let handle = function
  | Ok () -> 0
  | Error e ->
    prerr_endline ("ilp-limits: " ^ Pipeline_error.to_string e);
    Pipeline_error.exit_code e

let workloads_arg =
  Arg.(value & opt_all string [] & info [ "w"; "workload" ] ~docv:"NAME"
         ~doc:"Workload to use (repeatable; default: all).")

let jobs_arg = Cli.Parallel.jobs_arg
let split_trace_arg = Cli.Parallel.split_trace_arg ()

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write the observability trace — one JSON object per line: \
               a span per pipeline stage per workload, then every metric \
               — to $(docv).")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the human-readable observability summary (span tree \
               with durations, then metric values) after the report.")

let prom_out_arg =
  Arg.(value & opt (some string) None & info [ "prom-out" ] ~docv:"FILE"
         ~doc:"Write the metrics in Prometheus text exposition format to \
               $(docv).")

let format_arg =
  Arg.(value
       & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: $(b,text) (human tables) or $(b,json) \
                 (machine-parseable, one object on stdout).")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite (Table 1).")
    Term.(const (fun () -> handle (cmd_list ())) $ const ())

let machines_cmd =
  let fuzz =
    Arg.(value & opt (some int) None & info [ "fuzz" ] ~docv:"N"
           ~doc:"Instead of listing, fuzz the spec parser over N seeded \
                 random machines: canonical specs must round-trip and \
                 mutated specs must yield typed errors, never \
                 exceptions.  Nonzero exit on any failure.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Base seed for $(b,--fuzz); same seed, same cases.")
  in
  Cmd.v
    (Cmd.info "machines"
       ~doc:"List the named machine aliases with their canonical spec \
             strings and the machine-spec grammar.")
    Term.(const (fun f s -> handle (cmd_machines f s)) $ fuzz $ seed)

let run_cmd =
  let machines =
    Arg.(value & opt_all string [] & info [ "m"; "machine" ] ~docv:"MACHINE"
           ~doc:"Machine model: a named alias (base, cd, cd-mf, sp, \
                 sp-cd, sp-cd-mf, oracle) or a composed spec such as \
                 $(b,sp-cd-mf,vp,window=256,fetch=4) — see the \
                 $(b,machines) subcommand for the grammar.  Repeatable; \
                 default: all seven paper machines.")
  in
  let no_inline =
    Arg.(value & flag & info [ "no-inline" ]
           ~doc:"Disable simulated perfect inlining.")
  in
  let no_unroll =
    Arg.(value & flag & info [ "no-unroll" ]
           ~doc:"Disable simulated perfect loop unrolling.")
  in
  let fuel =
    Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N"
           ~doc:"Cap the trace at N instructions.")
  in
  let step_budget =
    Arg.(value & opt (some int) None & info [ "step-budget" ] ~docv:"N"
           ~doc:"Resource guard: analyze at most N counted instructions \
                 per machine, then degrade the result to a truncated \
                 (starred) prefix instead of running unboundedly.")
  in
  let mem_words =
    Arg.(value & opt (some int) None & info [ "mem-words" ] ~docv:"N"
           ~doc:"VM data memory size in words (guarded; requests beyond \
                 the cap exit with code 5).")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Wall-clock budget per workload, observed by both \
                 executions so the clock covers analysis too; expiry \
                 degrades to a typed deadline error (exit code 6), never \
                 a hung run.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure parallelism limits (Table 3).")
    Term.(
      const (fun ws ms ni nu f sb mw dl j ss tr mx pr ->
          handle (cmd_run ws ms ni nu f sb mw dl j ss tr mx pr))
      $ workloads_arg $ machines $ no_inline $ no_unroll $ fuel
      $ step_budget $ mem_words $ deadline_ms $ jobs_arg
      $ split_trace_arg $ trace_out_arg $ metrics_arg
      $ prom_out_arg)

let stats_cmd =
  let fuel =
    Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N"
           ~doc:"Cap the trace at N instructions.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Branch prediction statistics and misprediction distances.")
    Term.(const (fun ws f -> handle (cmd_stats ws f)) $ workloads_arg $ fuel)

let check_cmd =
  let fuel =
    Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N"
           ~doc:"Cap the dynamically checked trace at N instructions.")
  in
  let dynamic =
    Arg.(value & flag & info [ "dynamic" ]
           ~doc:"Also execute each workload and cross-check every retired \
                 instruction against the static facts (reachability, CFG \
                 successors, register initialization, induction steps).")
  in
  let warnings_too =
    Arg.(value & flag & info [ "warnings" ]
           ~doc:"Print warnings as well as errors.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Promote warnings to errors: any diagnostic fails the \
                 check.")
  in
  let disable =
    Arg.(value & opt_all string [] & info [ "disable" ] ~docv:"PASS"
           ~doc:"Skip a diagnostic pass by name (repeatable), e.g. \
                 $(b,--disable unreachable-block).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the static diagnostic passes over workloads; nonzero \
             exit on any error or dynamic violation (with $(b,--strict), \
             on any diagnostic at all).")
    Term.(
      const (fun ws f d v s dis fmt tr mx pr ->
          handle (cmd_check ws f d v s dis fmt tr mx pr))
      $ workloads_arg $ fuel $ dynamic $ warnings_too $ strict $ disable
      $ format_arg $ trace_out_arg $ metrics_arg $ prom_out_arg)

let estimate_cmd =
  let machines =
    Arg.(value & opt_all string [] & info [ "m"; "machine" ] ~docv:"MACHINE"
           ~doc:"Machine model to bound (alias or composed spec; \
                 repeatable; default: all seven paper machines).")
  in
  let no_inline =
    Arg.(value & flag & info [ "no-inline" ]
           ~doc:"Bound without the perfect-inlining assumption.")
  in
  let no_unroll =
    Arg.(value & flag & info [ "no-unroll" ]
           ~doc:"Bound without the perfect-unrolling assumption.")
  in
  let detail =
    Arg.(value & flag & info [ "detail" ]
           ~doc:"Also print per-procedure run summaries and per-loop trip \
                 bounds.")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Bound oracle parallelism statically — no execution: branch \
             classification (SCCP-decided / known-trip loop exits / \
             data-dependent), the maximum breaker-free run M, and the \
             per-machine bound min(fetch, control) compiled from them.")
    Term.(
      const (fun ws ms ni nu d fmt ->
          handle (cmd_estimate ws ms ni nu d fmt))
      $ workloads_arg $ machines $ no_inline $ no_unroll $ detail
      $ format_arg)

let name_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let disasm_cmd =
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a compiled workload.")
    Term.(const (fun n -> handle (cmd_disasm n)) $ name_pos)

let blocks_cmd =
  Cmd.v
    (Cmd.info "blocks"
       ~doc:"Dump basic blocks, control dependences and loops.")
    Term.(const (fun n -> handle (cmd_blocks n)) $ name_pos)

let trace_cmd =
  let count =
    Arg.(value & opt int 200 & info [ "n" ] ~docv:"N"
           ~doc:"Number of trace entries to print.")
  in
  Cmd.v (Cmd.info "trace" ~doc:"Print the head of a dynamic trace.")
    Term.(const (fun n c -> handle (cmd_trace n c)) $ name_pos $ count)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
         ~doc:"Base seed; the same seed always reproduces the same \
               perturbation and report.")

let inject_fuel =
  Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N"
         ~doc:"Instruction budget for the injected execution (default: \
               the workload's own).")

let inject_cmd =
  let fault =
    Arg.(required & opt (some string) None & info [ "fault" ] ~docv:"KIND"
           ~doc:"Fault kind: bit-flip, mem-corrupt, trace-cut or \
                 fuel-cut.")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Run one deterministically injected fault through the full \
             pipeline and report the (completeness-tagged) analysis.")
    Term.(
      const (fun ws s f fu -> handle (cmd_inject ws s f fu))
      $ workloads_arg $ seed_arg $ fault $ inject_fuel)

let fuzz_cmd =
  let cases =
    Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N"
           ~doc:"Number of seeded cases (cycling workloads and fault \
                 kinds).")
  in
  let random_machines =
    Arg.(value & flag & info [ "random-machines" ]
           ~doc:"Analyze each case under a seeded random machine-lattice \
                 point instead of always sp-cd-mf, fuzzing the \
                 compositional machine model end to end.")
  in
  let segments =
    Arg.(value & flag & info [ "segments" ]
           ~doc:"Differential mode: also analyze every perturbed trace \
                 through the segment pipeline (intra-trace parallel \
                 analysis, run inline), with a per-case segment stride \
                 drawn from the seed stream, and treat any divergence \
                 from the sequential result as an escaped invariant \
                 violation.")
  in
  let serve_sock =
    Arg.(value & opt (some string) None & info [ "serve" ] ~docv:"SOCKET"
           ~doc:"Fuzz the wire instead of the pipeline: fire mutated \
                 frames (torn headers, oversized declarations, garbage, \
                 bad shapes) at the daemon on this Unix socket and \
                 require a typed error or clean close for every one — \
                 no hangs, no ok-to-garbage, server alive afterwards.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Bulk seeded fault injection asserting the pipeline \
             invariant: every input yields a result or a structured \
             error.  Nonzero exit if any exception escapes.")
    Term.(
      const (fun ws s c fu j rm sg sv tr mx pr ->
          handle (cmd_fuzz ws s c fu j rm sg sv tr mx pr))
      $ workloads_arg $ seed_arg $ cases $ inject_fuel $ jobs_arg
      $ random_machines $ segments $ serve_sock
      $ trace_out_arg $ metrics_arg $ prom_out_arg)

let socket_arg =
  Arg.(value & opt string "/tmp/ilp-limits.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path.")

let tcp_arg ~doc = Arg.(value & opt (some string) None
                        & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let serve_cmd =
  let queue_limit =
    Arg.(value & opt (some int) None & info [ "queue-limit" ] ~docv:"N"
           ~doc:"Backpressure bound: admitted requests waiting for a \
                 domain beyond this are shed with a typed overloaded \
                 error and a retry hint (default 64).")
  in
  let cache =
    Arg.(value & opt (some int) None & info [ "cache" ] ~docv:"N"
           ~doc:"Compiled-program LRU capacity (default 32).")
  in
  let admit =
    Arg.(value & opt string "off" & info [ "admit" ] ~docv:"MODE"
           ~doc:"Admission control: $(b,off), $(b,reject:CEILING) \
                 (refuse requests the static estimator prices above \
                 CEILING — unbounded breaker-free runs price as \
                 infinity), or $(b,budget:CEILING) (clamp their fuel \
                 and step budget instead).")
  in
  let max_fuel =
    Arg.(value & opt (some int) None & info [ "max-fuel" ] ~docv:"N"
           ~doc:"Per-request fuel quota ceiling (default 100M).")
  in
  let max_step_budget =
    Arg.(value & opt (some int) None & info [ "max-step-budget" ] ~docv:"N"
           ~doc:"Per-request analysis-step ceiling (default 100M).")
  in
  let deadline =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Default wall-clock deadline applied to requests that \
                 name none.")
  in
  let idle =
    Arg.(value & opt (some int) None & info [ "idle-timeout-ms" ] ~docv:"MS"
           ~doc:"Self-drain after this long with no connections and no \
                 work.")
  in
  let retry_after =
    Arg.(value & opt (some int) None & info [ "retry-after-ms" ] ~docv:"MS"
           ~doc:"Backoff hint carried by overloaded responses (default \
                 50).")
  in
  let split_trace =
    Cli.Parallel.split_trace_arg
      ~doc:
        "Split each request's trace across the pool: the request's \
         domain runs the VM while idle worker domains apply the \
         previous 16384-entry segment, at most two segments at a time \
         (replies stay bit-identical to unsplit analysis)."
      ()
  in
  let supervise =
    Arg.(value & flag & info [ "supervise" ]
           ~doc:"Crash-only operation: run the server in a child process \
                 and restart it (capped backoff) on any abnormal exit; \
                 SIGTERM/SIGINT drain the child and stop the loop.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve analysis requests over a Unix-domain socket (and \
             optionally TCP): framed JSON in, a result or a typed error \
             out — with per-request quotas and deadlines, static \
             admission control, bounded-queue backpressure, a \
             compiled-program cache, and graceful drain on \
             SIGTERM/SIGINT.")
    Term.(
      const (fun s t j q c a mf msb d i ra ss sup ->
          handle (cmd_serve s t j q c a mf msb d i ra ss sup))
      $ socket_arg
      $ tcp_arg ~doc:"Also listen on HOST:PORT."
      $ jobs_arg $ queue_limit $ cache $ admit $ max_fuel
      $ max_step_budget $ deadline $ idle $ retry_after $ split_trace
      $ supervise)

let client_cmd =
  let op =
    let ops =
      [ ("ping", `Ping); ("stats", `Stats); ("metrics", `Metrics);
        ("analyze", `Analyze) ]
    in
    Arg.(required & pos 0 (some (enum ops)) None & info [] ~docv:"OP"
           ~doc:"One of $(b,ping), $(b,stats), $(b,metrics), \
                 $(b,analyze).")
  in
  let workload =
    Arg.(value & opt (some string) None & info [ "w"; "workload" ]
           ~docv:"NAME" ~doc:"Workload to analyze (registry name).")
  in
  let source_file =
    Arg.(value & opt (some string) None & info [ "source-file" ]
           ~docv:"FILE"
           ~doc:"Analyze ad-hoc Mini-C source read from $(docv) instead \
                 of a registry workload.")
  in
  let machines =
    Arg.(value & opt_all string [] & info [ "m"; "machine" ] ~docv:"MACHINE"
           ~doc:"Machine spec (repeatable; default: the paper seven).")
  in
  let fuel =
    Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N"
           ~doc:"Per-request instruction budget.")
  in
  let step_budget =
    Arg.(value & opt (some int) None & info [ "step-budget" ] ~docv:"N"
           ~doc:"Per-request analysis-step budget.")
  in
  let mem_words =
    Arg.(value & opt (some int) None & info [ "mem-words" ] ~docv:"N"
           ~doc:"VM data memory size in words.")
  in
  let deadline =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request wall-clock deadline.")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"KIND"
           ~doc:"Seeded fault to inject server-side (with $(b,--seed)).")
  in
  let attempts =
    Arg.(value & opt int 5 & info [ "retries" ] ~docv:"N"
           ~doc:"Connection attempts before giving up; overloaded \
                 responses retry with the server's hint plus seeded \
                 exponential backoff.")
  in
  let base_ms =
    Arg.(value & opt int 10 & info [ "retry-base-ms" ] ~docv:"MS"
           ~doc:"Base of the exponential backoff between retries.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running serve daemon and print the \
             response; remote typed errors map to the same exit codes \
             as local ones.")
    Term.(
      const (fun o s t w sf m f sb mw d i sd a b ->
          handle (cmd_client o s t w sf m f sb mw d i sd a b))
      $ op $ socket_arg
      $ tcp_arg ~doc:"Connect over TCP instead of the Unix socket."
      $ workload $ source_file $ machines $ fuel $ step_budget $ mem_words
      $ deadline $ inject $ seed_arg $ attempts $ base_ms)

let () =
  let info =
    Cmd.info "ilp-limits" ~version:"1.0.0"
      ~doc:
        "Limits of control flow on parallelism (Lam & Wilson, ISCA 1992): \
         trace-driven limit analysis over seven abstract machines."
  in
  let group =
    Cmd.group info
      [ list_cmd; machines_cmd; run_cmd; stats_cmd; check_cmd;
        estimate_cmd; disasm_cmd; blocks_cmd; trace_cmd; inject_cmd;
        fuzz_cmd; serve_cmd; client_cmd ]
  in
  exit (Cmd.eval' group)
