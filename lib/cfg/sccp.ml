type value = Top | Const of int | Bot

let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Const a, Const b when a = b -> Const a
  | Bot, _ | _, Bot | Const _, Const _ -> Bot

type t = {
  view : View.t;
  entry : value array array;  (* local block -> state at entry *)
  exit_ : value array array;  (* local block -> state after terminator *)
  exec : bool array;  (* local block executable *)
  edges : (int * int, unit) Hashtbl.t;  (* (src local, dst local) *)
  decided : (int, bool option) Hashtbl.t;  (* branch term pc -> taken *)
}

let get state r = if r = 0 then Const 0 else state.(r)

let set state r v = if r <> 0 then state.(r) <- v

(* One instruction's effect on the register state.  Mirrors the VM via
   [eval_alu]; anything the lattice does not model degrades to [Bot]. *)
let transfer (insn : int Risc.Insn.t) state =
  let setf f v = state.(Risc.Reg.uid_of_float f) <- v in
  let fold op a b =
    match (a, b) with
    | Const a, Const b -> (
      try Const (Risc.Insn.eval_alu op a b)
      with Division_by_zero -> Bot)
    | Top, _ | _, Top -> Top
    | _ -> Bot
  in
  match insn with
  | Risc.Insn.Alu (op, rd, rs, rt) ->
    set state rd (fold op (get state rs) (get state rt))
  | Alui (op, rd, rs, imm) ->
    set state rd (fold op (get state rs) (Const imm))
  | Li (rd, v) -> set state rd (Const v)
  | Lw (rd, _, _) | F2i (rd, _) | Fcmp (_, rd, _, _) -> set state rd Bot
  | Fli (fd, _) | Flw (fd, _, _) | Falu (_, fd, _, _) | Fmov (fd, _)
  | I2f (fd, _) ->
    setf fd Bot
  | Movn (rd, rs, rg) -> (
    (* rd <- rs when the guard is nonzero, else rd keeps its value; an
       unknown guard merges both outcomes. *)
    match get state rg with
    | Const 0 -> ()
    | Const _ -> set state rd (get state rs)
    | Top | Bot -> set state rd (meet (get state rd) (get state rs)))
  | Jal _ ->
    List.iter
      (fun uid -> if uid <> 0 then state.(uid) <- Bot)
      (Dataflow.def_regs insn)
  | Sw _ | Fsw _ | B _ | Bi _ | J _ | Jr _ | Jtab _ | Halt -> ()

(* Executable out-edges of a block, given the state just before its
   terminator.  Records branch decisions as a side effect; edges are
   global block ids. *)
let out_edges t state (blk : Graph.block) =
  let g = t.view.graph in
  let code = g.flat.code in
  let n_code = Array.length code in
  let term_pc = blk.stop - 1 in
  let fall () =
    if blk.stop < n_code && g.blocks.(g.block_of.(blk.stop)).proc = blk.proc
    then [ g.block_of.(blk.stop) ]
    else []
  in
  if blk.stop <= blk.start then []
  else
    match code.(term_pc) with
    | B (cond, rs, rt, tgt) -> (
      match (get state rs, get state rt) with
      | Const a, Const b ->
        let taken = Risc.Insn.eval_cond cond a b in
        Hashtbl.replace t.decided term_pc (Some taken);
        if taken then [ g.block_of.(tgt) ] else fall ()
      | _ ->
        Hashtbl.replace t.decided term_pc None;
        g.block_of.(tgt) :: fall ())
    | Bi (cond, rs, imm, tgt) -> (
      match get state rs with
      | Const a ->
        let taken = Risc.Insn.eval_cond cond a imm in
        Hashtbl.replace t.decided term_pc (Some taken);
        if taken then [ g.block_of.(tgt) ] else fall ()
      | _ ->
        Hashtbl.replace t.decided term_pc None;
        g.block_of.(tgt) :: fall ())
    | J tgt -> [ g.block_of.(tgt) ]
    | Jtab (rs, table) -> (
      match get state rs with
      | Const i when i >= 0 && i < Array.length table ->
        [ g.block_of.(table.(i)) ]
      | Const _ ->
        (* constant out-of-range selector: the VM faults here, so no
           successor ever executes along this edge *)
        []
      | Top | Bot ->
        Array.to_list table
        |> List.map (fun tgt -> g.block_of.(tgt))
        |> List.sort_uniq compare)
    | Jal _ -> fall ()
    | Jr _ | Halt -> []
    | Alu _ | Alui _ | Li _ | Fli _ | Lw _ | Sw _ | Flw _ | Fsw _ | Falu _
    | Fcmp _ | Movn _ | Fmov _ | I2f _ | F2i _ ->
      fall ()

let initial_state ~entry_zeroed =
  let state = Array.make Risc.Reg.n_unified Bot in
  if entry_zeroed then begin
    (* the VM zeroes the register file before jumping to the entry;
       only sp is runtime-sized *)
    for r = 0 to 31 do
      state.(r) <- Const 0
    done;
    state.(Risc.Reg.sp) <- Bot
  end;
  state.(0) <- Const 0;
  state

let analyze (view : View.t) ~entry_zeroed =
  let n = View.n view in
  let t =
    { view;
      entry = Array.init n (fun _ -> Array.make Risc.Reg.n_unified Top);
      exit_ = Array.init n (fun _ -> Array.make Risc.Reg.n_unified Top);
      exec = Array.make n false;
      edges = Hashtbl.create 64;
      decided = Hashtbl.create 16 }
  in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let enqueue l =
    if not queued.(l) then begin
      queued.(l) <- true;
      Queue.add l queue
    end
  in
  Array.blit (initial_state ~entry_zeroed) 0 t.entry.(0) 0
    Risc.Reg.n_unified;
  t.exec.(0) <- true;
  enqueue 0;
  while not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    queued.(l) <- false;
    let blk = View.block view l in
    let state = Array.copy t.entry.(l) in
    (* run the block body, capturing the state at the terminator for
       the edge decision (the terminator's own defs — a call's clobber
       — apply to the exit state, not to its condition) *)
    let term_pc = blk.stop - 1 in
    let at_term = ref state in
    for pc = blk.start to blk.stop - 1 do
      if pc = term_pc then at_term := Array.copy state;
      transfer view.graph.flat.code.(pc) state
    done;
    Array.blit state 0 t.exit_.(l) 0 Risc.Reg.n_unified;
    let succs = out_edges t !at_term blk in
    List.iter
      (fun gdst ->
        match View.local view gdst with
        | None -> ()
        | Some dst ->
          Hashtbl.replace t.edges (l, dst) ();
          let dentry = t.entry.(dst) in
          let changed = ref false in
          for r = 0 to Risc.Reg.n_unified - 1 do
            let v = meet dentry.(r) state.(r) in
            if v <> dentry.(r) then begin
              dentry.(r) <- v;
              changed := true
            end
          done;
          if not t.exec.(dst) then begin
            t.exec.(dst) <- true;
            enqueue dst
          end
          else if !changed then enqueue dst)
      succs
  done;
  t

let run (a : Analysis.t) =
  let flat = a.graph.flat in
  let entry_proc = flat.proc_of.(flat.entry_pc) in
  (* the zero-init entry state is only valid if nothing calls back into
     the entry procedure *)
  let entry_called =
    Array.exists
      (function
        | Risc.Insn.Jal tgt -> flat.proc_of.(tgt) = entry_proc
        | _ -> false)
      flat.code
  in
  Array.mapi
    (fun p view ->
      analyze view ~entry_zeroed:(p = entry_proc && not entry_called))
    a.views

let executable t l = t.exec.(l)

let edge_executable t ~src ~dst = Hashtbl.mem t.edges (src, dst)

let exit_state t l = t.exit_.(l)

let value_at t ~l ~pc ~reg =
  if not t.exec.(l) then Bot
  else begin
    let blk = View.block t.view l in
    if pc < blk.start || pc >= blk.stop then
      invalid_arg "Sccp.value_at: pc outside block";
    let state = Array.copy t.entry.(l) in
    for p = blk.start to pc - 1 do
      transfer t.view.graph.flat.code.(p) state
    done;
    get state reg
  end

let decided_branch t ~pc =
  match Hashtbl.find_opt t.decided pc with
  | Some (Some taken) -> Some taken
  | _ -> None

let n_decided t =
  Hashtbl.fold
    (fun _ v acc -> match v with Some _ -> acc + 1 | None -> acc)
    t.decided 0
