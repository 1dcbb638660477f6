type severity = Error | Warning

type diag = {
  d_proc : int;
  d_proc_name : string;
  d_pc : int;
  d_block : int;
  d_severity : severity;
  d_pass : string;
  d_message : string;
  d_disasm : string;
}

type ctx = {
  analysis : Analysis.t;
  sccp : Sccp.t array Lazy.t;
  uninit : Dataflow.Uninit.t array Lazy.t;
  liveness : Dataflow.Liveness.t array Lazy.t;
}

(* Registers a procedure may read before writing without that being a
   bug: the ABI guarantees sp everywhere, and ra/args/fargs on entry to
   every procedure that can be called (the program entry gets only
   sp — nothing has set up arguments for it). *)
let assumed_regs ~is_entry =
  let open Risc in
  if is_entry then [ Reg.sp ]
  else
    Reg.sp :: Reg.ra
    :: (List.init Reg.n_arg_regs Reg.arg
       @ List.init 4 (fun i -> Reg.uid_of_float (Reg.farg i)))

let create_ctx (a : Analysis.t) =
  let flat = a.graph.flat in
  let entry_proc = flat.proc_of.(flat.entry_pc) in
  { analysis = a;
    sccp = lazy (Sccp.run a);
    uninit =
      lazy
        (Array.mapi
           (fun p v ->
             Dataflow.Uninit.compute v
               ~assumed:(assumed_regs ~is_entry:(p = entry_proc)))
           a.views);
    liveness = lazy (Array.map Dataflow.Liveness.compute a.views) }

type pass = {
  p_name : string;
  p_help : string;
  p_severity : severity;
  p_run : ctx -> emit:(pc:int -> string -> unit) -> unit;
}

type config = {
  disabled : string list;
  strict : bool;
}

let default_config = { disabled = []; strict = false }

type timing = { t_pass : string; t_ns : int64; t_diags : int }

type report = {
  diags : diag list;
  n_errors : int;
  n_warnings : int;
  timings : timing list;
}

let severity_name = function Error -> "error" | Warning -> "warning"

let run ?(obs = Obs.Ctx.disabled) ?(config = default_config)
    ?(workload = "") passes (a : Analysis.t) =
  let flat = a.graph.flat in
  let code = flat.code in
  let n_code = Array.length code in
  let ctx = create_ctx a in
  let enabled =
    List.filter (fun p -> not (List.mem p.p_name config.disabled)) passes
  in
  (* Spans go to the caller's context when it records; timings are
     read back from a private buffer so they exist either way. *)
  let obs_buf =
    if Obs.Ctx.enabled obs then
      Obs.Ctx.task_buffer obs ~index:0 ~label:"static-passes"
    else Obs.Span.disabled
  in
  let tbuf = Obs.Span.buffer ~label:"static-passes" () in
  let registry =
    if Obs.Ctx.enabled obs then Obs.Ctx.metrics obs else Obs.Metrics.global
  in
  let diags = ref [] in
  let n_total = ref 0 in
  let run_pass p =
    let eff =
      if config.strict && p.p_severity = Warning then Error
      else p.p_severity
    in
    let before = !n_total in
    let emit ~pc message =
      let in_range = pc >= 0 && pc < n_code in
      let d =
        { d_proc = (if in_range then flat.proc_of.(pc) else -1);
          d_proc_name =
            (if in_range then flat.proc_names.(flat.proc_of.(pc))
             else "<none>");
          d_pc = pc;
          d_block = (if in_range then a.graph.block_of.(pc) else -1);
          d_severity = eff;
          d_pass = p.p_name;
          d_message = message;
          d_disasm =
            (if in_range then
               Format.asprintf "%a" Risc.Insn.pp_resolved code.(pc)
             else "<no instruction>") }
      in
      incr n_total;
      diags := d :: !diags
    in
    Obs.Span.with_span obs_buf ~workload p.p_name (fun () ->
        Obs.Span.with_span tbuf ~workload p.p_name (fun () ->
            p.p_run ctx ~emit));
    !n_total - before
  in
  let counts = List.map (fun p -> (p, run_pass p)) enabled in
  let spans = Obs.Span.spans tbuf in
  let timings =
    List.mapi
      (fun i (p, n) ->
        let ns =
          if i < Array.length spans then Obs.Span.dur_ns spans.(i) else 0L
        in
        Obs.Metrics.add
          (Obs.Metrics.counter registry
             ~help:"diagnostics emitted by static passes"
             (Printf.sprintf "verify_diagnostics_total{class=%S}" p.p_name))
          n;
        Obs.Metrics.add
          (Obs.Metrics.counter registry
             ~help:"wall-clock nanoseconds spent in static passes"
             (Printf.sprintf "static_pass_ns{pass=%S}" p.p_name))
          (Int64.to_int ns);
        { t_pass = p.p_name; t_ns = ns; t_diags = n })
      counts
  in
  let diags =
    List.stable_sort
      (fun a b ->
        compare (a.d_proc, a.d_pc, a.d_pass) (b.d_proc, b.d_pc, b.d_pass))
      (List.rev !diags)
  in
  let n_errors =
    List.length (List.filter (fun d -> d.d_severity = Error) diags)
  in
  { diags;
    n_errors;
    n_warnings = List.length diags - n_errors;
    timings }

let max_severity r =
  if r.n_errors > 0 then Some Error
  else if r.n_warnings > 0 then Some Warning
  else None

let pp_diag ppf d =
  Format.fprintf ppf "%s: %s: pc %d (block %d) [%s]: %s | %s"
    (severity_name d.d_severity)
    d.d_proc_name d.d_pc d.d_block d.d_pass d.d_message d.d_disasm

module Jsonx = Stdx.Jsonx

let to_json r =
  let diag d =
    Jsonx.Obj
      [ ("severity", Jsonx.Str (severity_name d.d_severity));
        ("class", Jsonx.Str d.d_pass); ("proc", Jsonx.Int d.d_proc);
        ("proc_name", Jsonx.Str d.d_proc_name); ("pc", Jsonx.Int d.d_pc);
        ("block", Jsonx.Int d.d_block); ("message", Jsonx.Str d.d_message);
        ("disasm", Jsonx.Str d.d_disasm) ]
  in
  let timing t =
    Jsonx.Obj
      [ ("pass", Jsonx.Str t.t_pass); ("ns", Jsonx.Int (Int64.to_int t.t_ns));
        ("diagnostics", Jsonx.Int t.t_diags) ]
  in
  Jsonx.Obj
    [ ("diagnostics", Jsonx.List (List.map diag r.diags));
      ("errors", Jsonx.Int r.n_errors); ("warnings", Jsonx.Int r.n_warnings);
      ("passes", Jsonx.List (List.map timing r.timings)) ]
