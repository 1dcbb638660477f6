type severity = Engine.severity = Error | Warning

type kind =
  | Bad_branch_target
  | Bad_jtab_target
  | Bad_call_target
  | Fallthrough_off_end
  | Ret_discipline
  | Sp_discipline
  | Sp_imbalance
  | Uninit_read
  | Maybe_uninit_read
  | Unreachable_block
  | Sccp_unreachable
  | Dead_store

let kind_name = function
  | Bad_branch_target -> "bad-branch-target"
  | Bad_jtab_target -> "bad-jtab-target"
  | Bad_call_target -> "bad-call-target"
  | Fallthrough_off_end -> "fallthrough-off-end"
  | Ret_discipline -> "ret-discipline"
  | Sp_discipline -> "sp-discipline"
  | Sp_imbalance -> "sp-imbalance"
  | Uninit_read -> "uninit-read"
  | Maybe_uninit_read -> "maybe-uninit-read"
  | Unreachable_block -> "unreachable-block"
  | Sccp_unreachable -> "sccp-unreachable"
  | Dead_store -> "dead-store"

let severity_of = function
  | Bad_branch_target | Bad_jtab_target | Bad_call_target
  | Fallthrough_off_end | Ret_discipline | Sp_discipline | Sp_imbalance
  | Uninit_read ->
    Error
  | Maybe_uninit_read | Unreachable_block | Sccp_unreachable | Dead_store ->
    Warning

let pp_uid = Risc.Reg.pp_uid

(* Reads of a register that are part of the register-save protocol: a
   store of [r] to a stack slot may legitimately save a dead or
   never-written callee-saved register in the prologue (and a dead
   caller-saved one around a call), so it is exempt from the
   uninitialized-read checks. *)
let save_protocol_read (insn : int Risc.Insn.t) r =
  match insn with
  | Sw (rsrc, base, _) -> base = Risc.Reg.sp && r = rsrc
  | Fsw (fsrc, base, _) ->
    base = Risc.Reg.sp && r = Risc.Reg.uid_of_float fsrc
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The passes.  Each diagnostic class is one registered {!Engine.pass};
   expensive shared analyses come memoized from the engine context. *)

let each_proc (ctx : Engine.ctx) f =
  let a = ctx.Engine.analysis in
  let flat = a.graph.flat in
  Array.iteri
    (fun proc (start, stop) -> f a flat proc a.views.(proc) start stop)
    flat.proc_bounds

let pass kind help run =
  { Engine.p_name = kind_name kind;
    p_help = help;
    p_severity = severity_of kind;
    p_run = run }

let branch_target_pass =
  pass Bad_branch_target
    "branch or jump targets must stay inside their procedure"
    (fun ctx ~emit ->
      each_proc ctx
        (fun (a : Analysis.t) flat proc _v start stop ->
          ignore a;
          for pc = start to stop - 1 do
            match (flat.code.(pc) : int Risc.Insn.t) with
            | B (_, _, _, t) | Bi (_, _, _, t) | J t ->
              if not (t >= start && t < stop) then
                emit ~pc
                  (Printf.sprintf "target %d outside procedure %s [%d,%d)" t
                     flat.proc_names.(proc) start stop)
            | _ -> ()
          done))

let jtab_target_pass =
  pass Bad_jtab_target
    "jump-table entries must stay inside their procedure"
    (fun ctx ~emit ->
      each_proc ctx
        (fun _a flat proc _v start stop ->
          for pc = start to stop - 1 do
            match (flat.code.(pc) : int Risc.Insn.t) with
            | Jtab (_, table) ->
              Array.iteri
                (fun i t ->
                  if not (t >= start && t < stop) then
                    emit ~pc
                      (Printf.sprintf
                         "table entry %d: target %d outside procedure %s \
                          [%d,%d)"
                         i t flat.proc_names.(proc) start stop))
                table
            | _ -> ()
          done))

let call_target_pass =
  pass Bad_call_target
    "calls must target a procedure entry"
    (fun ctx ~emit ->
      let flat = ctx.Engine.analysis.graph.flat in
      let proc_starts = Hashtbl.create 16 in
      Array.iteri
        (fun p (start, _) -> Hashtbl.replace proc_starts start p)
        flat.proc_bounds;
      Array.iteri
        (fun pc insn ->
          match (insn : int Risc.Insn.t) with
          | Jal t ->
            if not (Hashtbl.mem proc_starts t) then
              emit ~pc
                (Printf.sprintf "call target %d is not a procedure entry" t)
          | _ -> ())
        flat.code)

let ret_discipline_pass =
  pass Ret_discipline "returns must go through ra"
    (fun ctx ~emit ->
      Array.iteri
        (fun pc insn ->
          match (insn : int Risc.Insn.t) with
          | Jr r when r <> Risc.Reg.ra ->
            emit ~pc
              (Format.asprintf "return through %a instead of %a" pp_uid r
                 pp_uid Risc.Reg.ra)
          | _ -> ())
        ctx.Engine.analysis.graph.flat.code)

(* The shape sp-imbalance can track: every sp write is a constant
   adjustment.  sp-discipline reports the violations; sp-imbalance
   skips procedures that have any. *)
let sp_clean code start stop =
  let clean = ref true in
  for pc = start to stop - 1 do
    if Risc.Insn.writes_sp code.(pc) then
      match (code.(pc) : int Risc.Insn.t) with
      | Alui ((Add | Sub), rd, rs, _)
        when rd = Risc.Reg.sp && rs = Risc.Reg.sp ->
        ()
      | _ -> clean := false
  done;
  !clean

let sp_discipline_pass =
  pass Sp_discipline
    "the stack pointer moves only by constant adjustments"
    (fun ctx ~emit ->
      Array.iteri
        (fun pc insn ->
          if Risc.Insn.writes_sp insn then
            match (insn : int Risc.Insn.t) with
            | Alui ((Add | Sub), rd, rs, _)
              when rd = Risc.Reg.sp && rs = Risc.Reg.sp ->
              ()
            | _ ->
              emit ~pc
                "stack pointer written by something other than a constant \
                 adjustment")
        ctx.Engine.analysis.graph.flat.code)

let fallthrough_pass =
  pass Fallthrough_off_end
    "procedures must not fall through their last instruction"
    (fun ctx ~emit ->
      each_proc ctx
        (fun _a flat proc _v start stop ->
          if stop > start then
            let pc = stop - 1 in
            match Risc.Insn.kind flat.code.(pc) with
            | Plain | Cond_branch | Call ->
              emit ~pc
                (Printf.sprintf
                   "procedure %s can fall through its last instruction"
                   flat.proc_names.(proc))
            | Jump | Computed_jump | Ret | Stop -> ()))

let sp_imbalance_pass =
  pass Sp_imbalance
    "constant frame offsets agree at joins and return to zero at exits"
    (fun ctx ~emit ->
      each_proc ctx
        (fun (a : Analysis.t) flat _proc v start stop ->
          let code = flat.code in
          if sp_clean code start stop && View.n v > 0 then begin
            let n_local = View.n v in
            let delta = Array.make n_local 0 in
            for l = 0 to n_local - 1 do
              View.iter_insns v l (fun _ insn ->
                  match (insn : int Risc.Insn.t) with
                  | Alui (Add, rd, rs, c)
                    when rd = Risc.Reg.sp && rs = Risc.Reg.sp ->
                    delta.(l) <- delta.(l) + c
                  | Alui (Sub, rd, rs, c)
                    when rd = Risc.Reg.sp && rs = Risc.Reg.sp ->
                    delta.(l) <- delta.(l) - c
                  | _ -> ())
            done;
            let offset = Array.make n_local min_int in
            let reported = Array.make n_local false in
            offset.(0) <- 0;
            let stack = ref [ 0 ] in
            while !stack <> [] do
              match !stack with
              | [] -> ()
              | l :: rest ->
                stack := rest;
                let out = offset.(l) + delta.(l) in
                let b = View.block v l in
                (match Graph.terminator a.graph (View.global v l) with
                | Some insn when Risc.Insn.kind insn = Ret && out <> 0 ->
                  emit ~pc:(b.stop - 1)
                    (Printf.sprintf "returns with stack offset %d" out)
                | _ -> ());
                Array.iter
                  (fun s ->
                    if offset.(s) = min_int then begin
                      offset.(s) <- out;
                      stack := s :: !stack
                    end
                    else if offset.(s) <> out && not reported.(s) then begin
                      reported.(s) <- true;
                      emit ~pc:(View.block v s).start
                        (Printf.sprintf
                           "stack offset %d from one path, %d from another"
                           offset.(s) out)
                    end)
                  v.succs.(l)
            done
          end))

let unreachable_pass =
  pass Unreachable_block
    "blocks unreachable from the procedure entry"
    (fun ctx ~emit ->
      each_proc ctx
        (fun _a flat proc v _start _stop ->
          for l = 0 to View.n v - 1 do
            if not (View.reachable v l) then
              emit ~pc:(View.block v l).start
                (Printf.sprintf "block %d is unreachable from the %s entry"
                   (View.global v l) flat.proc_names.(proc))
          done))

let sccp_unreachable_pass =
  pass Sccp_unreachable
    "blocks CFG-reachable but pruned by conditional constant propagation"
    (fun ctx ~emit ->
      let sccp = Lazy.force ctx.Engine.sccp in
      each_proc ctx
        (fun _a flat proc v _start _stop ->
          for l = 0 to View.n v - 1 do
            if View.reachable v l && not (Sccp.executable sccp.(proc) l)
            then
              emit ~pc:(View.block v l).start
                (Printf.sprintf
                   "block %d of %s is CFG-reachable but constant conditions \
                    prune every path to it"
                   (View.global v l) flat.proc_names.(proc))
          done))

(* The uninitialized-read facts are shared by the must (error) and may
   (warning) passes through the memoized context. *)
let iter_uninit_reads ctx proc v ~f =
  let uninit = (Lazy.force ctx.Engine.uninit).(proc) in
  for l = 0 to View.n v - 1 do
    if View.reachable v l then
      Dataflow.Uninit.iter_block uninit ~l (fun pc insn ~may ~must ->
          List.iter
            (fun r ->
              if not (save_protocol_read insn r) then f pc r ~may ~must)
            (Risc.Insn.uses insn))
  done

let uninit_pass =
  pass Uninit_read
    "registers read but never written on any path"
    (fun ctx ~emit ->
      each_proc ctx
        (fun _a _flat proc v _start _stop ->
          iter_uninit_reads ctx proc v ~f:(fun pc r ~may:_ ~must ->
              if Dataflow.Bits.mem must r then
                emit ~pc
                  (Format.asprintf
                     "%a is read but never written on any path here" pp_uid r))))

let maybe_uninit_pass =
  pass Maybe_uninit_read
    "registers uninitialized on some path"
    (fun ctx ~emit ->
      each_proc ctx
        (fun _a _flat proc v _start _stop ->
          iter_uninit_reads ctx proc v ~f:(fun pc r ~may ~must ->
              if Dataflow.Bits.mem may r && not (Dataflow.Bits.mem must r)
              then
                emit ~pc
                  (Format.asprintf "%a may be uninitialized here" pp_uid r))))

let dead_store_pass =
  pass Dead_store "registers written but never read"
    (fun ctx ~emit ->
      each_proc ctx
        (fun _a flat proc v _start _stop ->
          let code = flat.code in
          let live = (Lazy.force ctx.Engine.liveness).(proc) in
          for l = 0 to View.n v - 1 do
            if View.reachable v l then begin
              let b = View.block v l in
              let cur =
                Dataflow.Bits.copy (Dataflow.Liveness.live_out live ~l)
              in
              for pc = b.stop - 1 downto b.start do
                let insn = code.(pc) in
                (match Risc.Insn.kind insn with
                | Plain ->
                  List.iter
                    (fun r ->
                      if not (Dataflow.Bits.mem cur r) then
                        emit ~pc
                          (Format.asprintf "%a is written but never read"
                             pp_uid r))
                    (Risc.Insn.defs insn)
                | _ -> ());
                List.iter (Dataflow.Bits.unset cur) (Dataflow.def_regs insn);
                List.iter (Dataflow.Bits.set cur)
                  (Dataflow.Liveness.use_regs insn)
              done
            end
          done))

let passes =
  [ branch_target_pass; jtab_target_pass; call_target_pass;
    fallthrough_pass; ret_discipline_pass; sp_discipline_pass;
    sp_imbalance_pass; uninit_pass; maybe_uninit_pass; unreachable_pass;
    sccp_unreachable_pass; dead_store_pass ]

(* ------------------------------------------------------------------ *)
(* Dynamic cross-validation: replay a trace against the static facts.  *)

module Dynamic = struct
  type violation = { index : int; pc : int; message : string }

  type loop_state = {
    body : bool array;  (* per global block *)
    updates : (int, int * int) Hashtbl.t;  (* update pc -> reg, step *)
    watches : (int, int list) Hashtbl.t;  (* overhead pc -> invariant regs *)
    last_update : (int, int) Hashtbl.t;  (* update pc -> last value *)
    inv_value : (int * int, int) Hashtbl.t;  (* (pc, reg) -> pinned value *)
    mutable inside : bool;
  }

  type t = {
    a : Analysis.t;
    code : int Risc.Insn.t array;
    n_code : int;
    reachable_pc : bool array;
    init : bool array;
    loops : loop_state array;
    reported : (int * string, unit) Hashtbl.t;
    mutable prev : (int * int) option;
    mutable n_entries : int;
    mutable n_violations : int;
    mutable violations_rev : violation list;
    mutable closed : bool;
  }

  let max_kept = 50

  let create (a : Analysis.t) =
    let g = a.graph in
    let code = g.flat.code in
    let n_code = Array.length code in
    let reachable_pc = Array.make n_code false in
    Array.iter
      (fun (v : View.t) ->
        for l = 0 to View.n v - 1 do
          if View.reachable v l then begin
            let b = View.block v l in
            for pc = b.start to b.stop - 1 do
              reachable_pc.(pc) <- true
            done
          end
        done)
      a.views;
    let init = Array.make Risc.Reg.n_unified false in
    init.(Risc.Reg.zero) <- true;
    init.(Risc.Reg.sp) <- true;
    let n_blocks = Array.length g.blocks in
    let mk_loop (lp : Loops.loop) =
      let body = Array.make n_blocks false in
      List.iter (fun b -> body.(b) <- true) lp.body;
      let updates = Hashtbl.create 4 and watches = Hashtbl.create 4 in
      let is_ind r = List.mem r lp.induction in
      let in_loop_pc pc = body.(g.block_of.(pc)) in
      (* Registers with any definition inside the loop body.  An
         invariance watch is only sound for registers the loop never
         writes: a pc can be marked overhead by a *different* (nested)
         loop whose induction variable is a free operand here, and that
         register is not invariant with respect to this loop. *)
      let defined_in_body = Array.make Risc.Reg.n_unified false in
      List.iter
        (fun gid ->
          let b = g.blocks.(gid) in
          for pc = b.start to b.stop - 1 do
            List.iter
              (fun r -> defined_in_body.(r) <- true)
              (Dataflow.def_regs code.(pc))
          done)
        lp.body;
      List.iter
        (fun gid ->
          let b = g.blocks.(gid) in
          for pc = b.start to b.stop - 1 do
            if a.loops.overhead.(pc) then begin
              match (code.(pc) : int Risc.Insn.t) with
              | Alui ((Add | Sub) as op, rd, rs, imm)
                when rd = rs && is_ind rd && in_loop_pc pc ->
                let step = match op with Add -> imm | _ -> -imm in
                Hashtbl.replace updates pc (rd, step)
              | Alu ((Slt | Sle | Seq | Sne), _, rs, rt)
              | B (_, rs, rt, _) ->
                let watch r other =
                  if
                    is_ind other && (not (is_ind r)) && r <> Risc.Reg.zero
                    && r < 32
                    && not defined_in_body.(r)
                  then
                    Hashtbl.replace watches pc
                      (r
                      :: (match Hashtbl.find_opt watches pc with
                         | Some rs -> rs
                         | None -> []))
                in
                watch rs rt;
                watch rt rs
              | _ -> ()
            end
          done)
        lp.body;
      { body; updates; watches; last_update = Hashtbl.create 4;
        inv_value = Hashtbl.create 4; inside = false }
    in
    { a;
      code;
      n_code;
      reachable_pc;
      init;
      loops = Array.of_list (List.map mk_loop a.loops.Loops.loops);
      reported = Hashtbl.create 16;
      prev = None;
      n_entries = 0;
      n_violations = 0;
      violations_rev = [];
      closed = false }

  let violate t ~pc fmt =
    Format.kasprintf
      (fun message ->
        t.n_violations <- t.n_violations + 1;
        if t.n_violations <= max_kept then
          t.violations_rev <-
            { index = t.n_entries; pc; message } :: t.violations_rev)
      fmt

  (* Report a violation at most once per (pc, topic): a bad static fact
     would otherwise repeat on every loop iteration. *)
  let violate_once t ~pc ~topic fmt =
    if Hashtbl.mem t.reported (pc, topic) then
      Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
    else begin
      Hashtbl.replace t.reported (pc, topic) ();
      violate t ~pc fmt
    end

  let check_transition t ~prev ~paux ~pc =
    match (t.code.(prev) : int Risc.Insn.t) with
    | B (_, _, _, target) | Bi (_, _, _, target) ->
      let expected = if paux = 1 then target else prev + 1 in
      if pc <> expected then
        violate_once t ~pc:prev ~topic:"succ"
          "branch at pc %d went to %d, expected %d (aux %d)" prev pc expected
          paux;
      let g = t.a.graph in
      if
        pc >= 0 && pc < t.n_code
        && not (List.mem g.block_of.(pc) g.blocks.(g.block_of.(prev)).succs)
      then
        violate_once t ~pc:prev ~topic:"succ-edge"
          "dynamic successor block %d of branch block %d is not a static \
           CFG successor"
          g.block_of.(pc) g.block_of.(prev)
    | J target | Jal target ->
      if pc <> target then
        violate_once t ~pc:prev ~topic:"succ"
          "jump at pc %d went to %d, expected %d" prev pc target
    | Jtab (_, table) ->
      if not (Array.exists (fun x -> x = pc) table) then
        violate_once t ~pc:prev ~topic:"succ"
          "computed jump at pc %d went to %d, not a table target" prev pc
    | Jr _ ->
      if
        pc <= 0 || pc > t.n_code
        || Risc.Insn.kind t.code.(pc - 1) <> Risc.Insn.Call
      then
        violate_once t ~pc:prev ~topic:"succ"
          "return at pc %d went to %d, which is not a call return point"
          prev pc
    | Halt ->
      violate_once t ~pc:prev ~topic:"succ"
        "instruction retired after a halt"
    | _ ->
      if pc <> prev + 1 then
        violate_once t ~pc:prev ~topic:"succ"
          "plain instruction at pc %d followed by %d, expected %d" prev pc
          (prev + 1)

  let on_entry t ~pc ~aux =
    (match t.prev with
    | Some (prev, paux) -> check_transition t ~prev ~paux ~pc
    | None ->
      if pc <> t.a.graph.flat.entry_pc then
        violate t ~pc "trace starts at pc %d, not the entry point" pc);
    if pc < 0 || pc >= t.n_code then begin
      violate t ~pc "retired pc %d outside the code" pc;
      t.prev <- None
    end
    else begin
      if not t.reachable_pc.(pc) then
        violate_once t ~pc ~topic:"reach"
          "executed pc %d is statically unreachable" pc;
      let insn = t.code.(pc) in
      List.iter
        (fun r ->
          if (not t.init.(r)) && not (save_protocol_read insn r) then begin
            t.init.(r) <- true;
            violate_once t ~pc ~topic:(Format.asprintf "init-%a" pp_uid r)
              "%a is read before any write" pp_uid r
          end)
        (Risc.Insn.uses insn);
      List.iter (fun r -> t.init.(r) <- true) (Risc.Insn.defs insn);
      (* Loop activations: entering a loop body from outside resets the
         per-activation induction and invariance state. *)
      let blk = t.a.graph.block_of.(pc) in
      Array.iter
        (fun ls ->
          let now = ls.body.(blk) in
          if now && not ls.inside then begin
            Hashtbl.reset ls.last_update;
            Hashtbl.reset ls.inv_value
          end;
          ls.inside <- now)
        t.loops;
      t.prev <- Some (pc, aux)
    end;
    t.n_entries <- t.n_entries + 1

  let on_close t = t.closed <- true

  let sink t =
    { Vm.Trace.on_entry = (fun ~pc ~aux -> on_entry t ~pc ~aux);
      on_close = (fun () -> on_close t) }

  (* Value-level checks, fed by the interpreter's observe hook with the
     register file as of just after the instruction at [pc] retired. *)
  let observe t ~pc ~step:_ ~regs ~fregs:_ ~mem:_ =
    Array.iter
      (fun ls ->
        if ls.inside then begin
          (match Hashtbl.find_opt ls.updates pc with
          | Some (r, step) when r < 32 ->
            let v = regs.(r) in
            (match Hashtbl.find_opt ls.last_update pc with
            | Some last when v - last <> step ->
              violate_once t ~pc ~topic:"step"
                "overhead-marked update of %a stepped by %d, expected %d"
                pp_uid r (v - last) step
            | _ -> ());
            Hashtbl.replace ls.last_update pc v
          | _ -> ());
          match Hashtbl.find_opt ls.watches pc with
          | Some rs ->
            List.iter
              (fun r ->
                let v = regs.(r) in
                match Hashtbl.find_opt ls.inv_value (pc, r) with
                | Some pinned when pinned <> v ->
                  violate_once t ~pc
                    ~topic:(Format.asprintf "inv-%a" pp_uid r)
                    "loop-invariant operand %a changed from %d to %d within \
                     one activation"
                    pp_uid r pinned v
                | Some _ -> ()
                | None -> Hashtbl.replace ls.inv_value (pc, r) v)
              rs
          | None -> ()
        end)
      t.loops

  let entries t = t.n_entries
  let n_violations t = t.n_violations
  let violations t = List.rev t.violations_rev
end
