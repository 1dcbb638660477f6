type klass =
  | Decided of bool
  | Loop_exit of int
  | Data_dependent
  | Unreachable

type branch = { b_pc : int; b_proc : int; b_class : klass }

type t = {
  branches : branch array;
  trips : (int, int) Hashtbl.t;
}

(* Replay the induction recurrence x, x+c, x+2c, ... with the VM's own
   arithmetic until the continue predicate fails; the result is the
   0-based iteration index of the exit.  Capped: a loop that spins a
   million iterations is as good as unbounded for run-length bounding. *)
let first_fail ~continue_of ~x0 ~step =
  let cap = 1_000_000 in
  let rec go j x =
    if j > cap then None
    else if not (continue_of x) then Some j
    else go (j + 1) (x + step)
  in
  go 0 x0

(* Max header visits per activation from one exit branch: the branch
   compares induction value [x] (register side) against constant [k],
   [reg_left] telling which operand the register is; [exit_taken]
   whether the taken direction leaves the loop.  [init] is the SCCP
   value on loop entry, [step] the per-iteration increment.  The branch
   may observe either [init + j*step] or [init + (j+1)*step] on
   iteration [j] depending on update/branch order, so both phases are
   replayed and a +2 margin covers the visit that exits. *)
let trip_bound ~cond ~k ~reg_left ~exit_taken ~init ~step =
  if step = 0 then None
  else begin
    let continue_of x =
      let a, b = if reg_left then (x, k) else (k, x) in
      let t = Risc.Insn.eval_cond cond a b in
      if exit_taken then not t else t
    in
    match
      (first_fail ~continue_of ~x0:init ~step,
       first_fail ~continue_of ~x0:(init + step) ~step)
    with
    | Some a, Some b -> Some (max a b + 2)
    | _ -> None
  end

(* The unique in-loop step instruction of induction register [r]:
   [Alui (Add|Sub, r, r, c)] with no other in-loop definition of [r]
   (a second write, or a call clobbering it, voids the recurrence). *)
let induction_step (g : Graph.t) (loop : Loops.loop) r =
  let step = ref None and clobbered = ref false in
  List.iter
    (fun b ->
      let blk = g.blocks.(b) in
      for pc = blk.start to blk.stop - 1 do
        let insn = g.flat.code.(pc) in
        let is_step =
          match insn with
          | Risc.Insn.Alui (Add, rd, rs, c) when rd = rs && rd = r ->
            Some c
          | Risc.Insn.Alui (Sub, rd, rs, c) when rd = rs && rd = r ->
            Some (-c)
          | _ -> None
        in
        match is_step with
        | Some c -> (
          match !step with
          | None -> step := Some c
          | Some c' when c' = c -> ()
          | Some _ -> clobbered := true)
        | None ->
          if List.mem r (Dataflow.def_regs insn) then clobbered := true
      done)
    loop.body;
  if !clobbered then None else !step

(* SCCP value of [r] on entry to the loop: meet over executable
   header in-edges that come from outside the body. *)
let entry_value (view : View.t) sccp (loop : Loops.loop) in_body r =
  match View.local view loop.header with
  | None -> Sccp.Bot
  | Some hl ->
    Array.fold_left
      (fun acc pl ->
        let pg = View.global view pl in
        if in_body pg then acc
        else if not (Sccp.edge_executable sccp ~src:pl ~dst:hl) then acc
        else Sccp.meet acc (Sccp.exit_state sccp pl).(r))
      Sccp.Top view.preds.(hl)

let classify (a : Analysis.t) ~(sccp : Sccp.t array) =
  let g = a.graph in
  let code = g.flat.code in
  let n_code = Array.length code in
  let trips : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* per conditional-branch pc: the loop it exits + trip bound *)
  let loop_exit : (int, int option * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (loop : Loops.loop) ->
      let body = Hashtbl.create 16 in
      List.iter (fun b -> Hashtbl.replace body b ()) loop.body;
      let in_body b = Hashtbl.mem body b in
      let proc = g.blocks.(loop.header).proc in
      let view = a.views.(proc) and sc = sccp.(proc) in
      let header_l = View.local view loop.header in
      let dominates_latches bl =
        match (View.local view bl, header_l) with
        | Some l, Some _ ->
          List.for_all
            (fun latch ->
              match View.local view latch with
              | Some ll -> Dom.dominates view.dom l ll
              | None -> false)
            loop.latches
        | _ -> false
      in
      List.iter
        (fun b ->
          let blk = g.blocks.(b) in
          let term_pc = blk.stop - 1 in
          if blk.stop > blk.start then begin
            let fall_out =
              blk.stop >= n_code
              || g.blocks.(g.block_of.(blk.stop)).proc <> blk.proc
              || not (in_body g.block_of.(blk.stop))
            in
            let record tgt cond reg_side k reg_left =
              let taken_out = not (in_body g.block_of.(tgt)) in
              if taken_out || fall_out then begin
                (* an exit branch of this loop; bound the trip when the
                   register side is an induction with known entry and
                   the other side is a known constant *)
                let bound =
                  if taken_out && fall_out then Some 2
                  else if not (dominates_latches b) then None
                  else if not (List.mem reg_side loop.induction) then None
                  else
                    match (k, induction_step g loop reg_side) with
                    | Some k, Some step -> (
                      match entry_value view sc loop in_body reg_side with
                      | Sccp.Const init ->
                        trip_bound ~cond ~k ~reg_left ~exit_taken:taken_out
                          ~init ~step
                      | _ -> None)
                    | _ -> None
                in
                let better =
                  match (Hashtbl.find_opt loop_exit term_pc, bound) with
                  | None, _ -> true
                  | Some (None, _), Some _ -> true
                  | Some (None, _), None -> false
                  | Some (Some p, _), Some b' -> b' < p
                  | Some (Some _, _), None -> false
                in
                if better then
                  Hashtbl.replace loop_exit term_pc (bound, loop.header);
                match bound with
                | Some t ->
                  let cur = Hashtbl.find_opt trips loop.header in
                  if cur = None || Option.get cur > t then
                    Hashtbl.replace trips loop.header t
                | None -> ()
              end
            in
            match code.(term_pc) with
            | Risc.Insn.B (cond, rs, rt, tgt) -> (
              (* figure out which operand is the register under test;
                 the other side must be an SCCP constant *)
              match View.local view b with
              | None -> ()
              | Some bl -> (
                let v r = Sccp.value_at sc ~l:bl ~pc:term_pc ~reg:r in
                match (v rs, v rt) with
                | _, Sccp.Const k -> record tgt cond rs (Some k) true
                | Sccp.Const k, _ -> record tgt cond rt (Some k) false
                | _ -> record tgt cond rs None true (* exit marking only *)))
            | Bi (cond, rs, k, tgt) -> record tgt cond rs (Some k) true
            | _ -> ()
          end)
        loop.body)
    a.loops.loops;
  (* walk every conditional branch and assign its class *)
  let branches = ref [] in
  for pc = n_code - 1 downto 0 do
    match Risc.Insn.kind code.(pc) with
    | Cond_branch ->
      let proc = g.flat.proc_of.(pc) in
      let view = a.views.(proc) and sc = sccp.(proc) in
      let bl = View.local view g.block_of.(pc) in
      let executable =
        match bl with Some l -> Sccp.executable sc l | None -> false
      in
      let b_class =
        if not executable then Unreachable
        else
          match Sccp.decided_branch sc ~pc with
          | Some taken -> Decided taken
          | None -> (
            match Hashtbl.find_opt loop_exit pc with
            | Some (Some t, _) -> Loop_exit t
            | Some (None, _) | None -> Data_dependent)
      in
      branches := { b_pc = pc; b_proc = proc; b_class } :: !branches
    | _ -> ()
  done;
  { branches = Array.of_list !branches; trips }

let find t ~pc =
  let n = Array.length t.branches in
  let rec bsearch lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let b = t.branches.(mid) in
      if b.b_pc = pc then Some b
      else if b.b_pc < pc then bsearch (mid + 1) hi
      else bsearch lo mid
    end
  in
  bsearch 0 n

let counts t =
  Array.fold_left
    (fun (d, l, dd, u) b ->
      match b.b_class with
      | Decided _ -> (d + 1, l, dd, u)
      | Loop_exit _ -> (d, l + 1, dd, u)
      | Data_dependent -> (d, l, dd + 1, u)
      | Unreachable -> (d, l, dd, u + 1))
    (0, 0, 0, 0) t.branches
