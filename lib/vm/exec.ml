type status =
  | Halted of int
  | Out_of_fuel
  | Fault of Pipeline_error.fault_info

type outcome = {
  status : status;
  trace : Trace.t;
  steps : int;
}

let status_string = function
  | Halted _ -> "halted"
  | Out_of_fuel -> "out_of_fuel"
  | Fault _ -> "fault"

let pp_status ppf = function
  | Halted v -> Format.fprintf ppf "halted (returned %d)" v
  | Out_of_fuel -> Format.fprintf ppf "out of fuel"
  | Fault f -> Format.fprintf ppf "fault: %a" Pipeline_error.pp_fault f

let completeness_of o =
  match o.status with
  | Halted _ -> Pipeline_error.Complete
  | Out_of_fuel ->
    Pipeline_error.Truncated
      (Pipeline_error.fault ~step:o.steps ~detail:"instruction budget"
         Pipeline_error.Out_of_fuel)
  | Fault f -> Pipeline_error.Truncated f

let default_mem_words = 1 lsl 21
let max_mem_words = 1 lsl 24

let validate_mem_words ?workload n =
  if n < 1 then
    Error
      (Pipeline_error.v ?workload Execute
         (Invalid_request (Printf.sprintf "mem-words must be positive (got %d)" n)))
  else if n > max_mem_words then
    Error
      (Pipeline_error.v ?workload Execute
         (Budget_exceeded
            { what = "VM memory words"; limit = max_mem_words; requested = n }))
  else Ok n

(* The float half of the address space: the [float array] twin of
   {!Stdx.Mem_table}, with the same pages.  Addresses reaching it have
   passed [addr_ok], so the directory, sized for [mem_words], always
   covers them. *)
module Float_table = struct
  let page_bits = Stdx.Mem_table.page_bits
  let page_mask = Stdx.Mem_table.page_words - 1

  let empty_page : float array = [||]

  let create words =
    Array.make ((words + page_mask) lsr page_bits) empty_page

  let[@inline] get t addr =
    let p = t.(addr lsr page_bits) in
    if p == empty_page then 0. else Array.unsafe_get p (addr land page_mask)

  let[@inline] set t addr x =
    let page = addr lsr page_bits in
    let p = t.(page) in
    let p =
      if p == empty_page then begin
        let fresh = Array.make Stdx.Mem_table.page_words 0. in
        t.(page) <- fresh;
        fresh
      end
      else p
    in
    Array.unsafe_set p (addr land page_mask) x
end

let run ?(mem_words = default_mem_words) ?(fuel = 10_000_000)
    ?(record = true) ?sink ?observe ?(probe = Obs.Probe.vm_disabled)
    (flat : Asm.Program.flat) =
  let open Risc.Insn in
  let code = flat.code in
  let n_code = Array.length code in
  let regs = Array.make 32 0 in
  let fregs = Array.make 32 0. in
  let mem_i = Stdx.Mem_table.create mem_words in
  let mem_f = Float_table.create mem_words in
  let fault = ref None in
  let die kind detail = fault := Some (kind, detail) in
  let addr_ok a = a >= 0 && a < mem_words in
  (* A data segment outside memory is a fault before the first step,
     like any other out-of-range access. *)
  (match
     List.find_opt
       (fun (base, cells) ->
         not (addr_ok base && base + Array.length cells <= mem_words))
       flat.flat_data
   with
  | Some (base, cells) ->
    die Pipeline_error.Mem_out_of_range
      (Printf.sprintf "data segment ends at word %d, past the %d-word memory"
         (base + Array.length cells) mem_words)
  | None ->
    let init_data (base, cells) =
      let cell i = function
        | Asm.Program.Int_cell v -> Stdx.Mem_table.set mem_i (base + i) v
        | Asm.Program.Float_cell v -> Float_table.set mem_f (base + i) v
      in
      Array.iteri cell cells
    in
    List.iter init_data flat.flat_data);
  regs.(Risc.Reg.sp) <- mem_words - 8;
  let trace = Trace.create () in
  (* Every retired instruction flows through one emit point: the
     materialized trace is just the buffering consumer. *)
  let emit =
    let buffered = if record then Some (Trace.buffer_sink trace) else None in
    match (buffered, sink) with
    | None, None -> Trace.null_sink
    | Some s, None -> s
    | None, Some s -> s
    | Some b, Some s -> Trace.tee b s
  in
  let pc = ref flat.entry_pc in
  (* Probe state, hoisted: a disabled probe costs the retirement path
     one immutable-bool test.  The stack-depth histogram is sampled (one
     observation per [mask+1] retirements), never per-step. *)
  let probe_on = probe.Obs.Probe.v_enabled in
  let probe_mask = probe.Obs.Probe.v_sample_mask in
  let steps = ref 0 in
  let halted = ref false in
  let wr rd v = if rd <> 0 then regs.(rd) <- v in
  (* The interpreter records a trace entry for every retired instruction,
     including the faulting one's predecessors only (a faulting
     instruction does not retire). *)
  while (not !halted) && !fault = None && !steps < fuel do
    let cur = !pc in
    if cur < 0 || cur >= n_code then
      die Pipeline_error.Pc_out_of_range "pc out of code range"
    else begin
      let insn = code.(cur) in
      let next = ref (cur + 1) in
      let aux = ref (-1) in
      (match insn with
      | Alu (op, rd, rs, rt) -> (
        match eval_alu op regs.(rs) regs.(rt) with
        | v -> wr rd v
        | exception Division_by_zero ->
          die Pipeline_error.Div_by_zero "integer division by zero")
      | Alui (op, rd, rs, imm) -> (
        match eval_alu op regs.(rs) imm with
        | v -> wr rd v
        | exception Division_by_zero ->
          die Pipeline_error.Div_by_zero "integer division by zero")
      | Li (rd, imm) -> wr rd imm
      | Fli (fd, x) -> fregs.(fd) <- x
      | Lw (rd, base, off) ->
        let a = regs.(base) + off in
        if addr_ok a then begin
          aux := a;
          wr rd (Stdx.Mem_table.get mem_i a)
        end
        else die Pipeline_error.Mem_out_of_range "load address out of range"
      | Sw (rsrc, base, off) ->
        let a = regs.(base) + off in
        if addr_ok a then begin
          aux := a;
          Stdx.Mem_table.set mem_i a regs.(rsrc)
        end
        else die Pipeline_error.Mem_out_of_range "store address out of range"
      | Flw (fd, base, off) ->
        let a = regs.(base) + off in
        if addr_ok a then begin
          aux := a;
          fregs.(fd) <- Float_table.get mem_f a
        end
        else die Pipeline_error.Mem_out_of_range "load address out of range"
      | Fsw (fsrc, base, off) ->
        let a = regs.(base) + off in
        if addr_ok a then begin
          aux := a;
          Float_table.set mem_f a fregs.(fsrc)
        end
        else die Pipeline_error.Mem_out_of_range "store address out of range"
      | Falu (op, fd, fs, ft) -> fregs.(fd) <- eval_falu op fregs.(fs) fregs.(ft)
      | Fcmp (op, rd, fs, ft) -> wr rd (eval_fcmp op fregs.(fs) fregs.(ft))
      | Movn (rd, rs, rg) -> if regs.(rg) <> 0 then wr rd regs.(rs)
      | Fmov (fd, fs) -> fregs.(fd) <- fregs.(fs)
      | I2f (fd, rs) -> fregs.(fd) <- float_of_int regs.(rs)
      | F2i (rd, fs) -> wr rd (int_of_float fregs.(fs))
      | B (c, rs, rt, target) ->
        let taken = eval_cond c regs.(rs) regs.(rt) in
        aux := (if taken then 1 else 0);
        if taken then next := target
      | Bi (c, rs, imm, target) ->
        let taken = eval_cond c regs.(rs) imm in
        aux := (if taken then 1 else 0);
        if taken then next := target
      | J target -> next := target
      | Jal target ->
        wr Risc.Reg.ra (cur + 1);
        next := target
      | Jr rs -> next := regs.(rs)
      | Jtab (rs, table) ->
        let i = regs.(rs) in
        if i >= 0 && i < Array.length table then next := table.(i)
        else
          die Pipeline_error.Jtab_out_of_range "jump table index out of range"
      | Halt -> halted := true);
      if !fault = None then begin
        emit.Trace.on_entry ~pc:cur ~aux:!aux;
        (match observe with
        | Some f -> f ~pc:cur ~step:!steps ~regs ~fregs ~mem:mem_i
        | None -> ());
        if probe_on && !steps land probe_mask = 0 then
          Obs.Metrics.observe probe.Obs.Probe.v_stack_words
            (mem_words - regs.(Risc.Reg.sp));
        incr steps;
        pc := !next
      end
    end
  done;
  emit.Trace.on_close ();
  let status =
    match !fault with
    | Some (kind, detail) ->
      Fault (Pipeline_error.fault ~pc:!pc ~detail ~step:!steps kind)
    | None -> if !halted then Halted regs.(Risc.Reg.rv) else Out_of_fuel
  in
  if probe_on then begin
    Obs.Metrics.incr probe.Obs.Probe.v_executions;
    Obs.Metrics.add probe.Obs.Probe.v_steps !steps;
    match status with
    | Fault _ -> Obs.Metrics.incr probe.Obs.Probe.v_faults
    | Halted _ | Out_of_fuel -> ()
  end;
  { status; trace; steps = !steps }
