(* A deliberately naive reference for Ilp.Analyze, written from the
   paper's machine model (PAPER.md §1; the transformations and the
   lattice's extra constraints as DESIGN.md §6 and §11 state them).

   It shares nothing with the analyzer's hot loop: no packed flag
   words, no decoder, no per-block resolution cache, no frame array
   and no unchecked reads.  Memory is a [Hashtbl], the activation
   stack is a list of records, each static block remembers its latest
   branch instance in a [Hashtbl], and every instruction scans its
   whole reverse-dominance-frontier list again.  It is slow on
   purpose; tests run it on short traces.  A step budget stops it once
   that many instructions were counted: every later entry is dropped. *)

(* The latest executed instance of the branch ending a static block. *)
type instance = {
  i_seq : int;  (* dynamic block sequence number of the instance *)
  i_activation : int;  (* the activation it executed in *)
  i_time : int;  (* its completion *)
  i_chain : int;  (* latest mispredicted completion on its chain *)
}

(* A resolved control dependence: which dynamic branch an instruction
   waits for (its block sequence number) and that branch's times. *)
type dep = { d_seq : int; d_time : int; d_chain : int }

let no_dep = { d_seq = 0; d_time = 0; d_chain = 0 }

(* An activation is named by the sequence number of its first block; it
   inherits the control dependence of its call site. *)
type activation = { a_entry : int; a_site : dep }

let top = { a_entry = 1; a_site = no_dep }

let analyze ?(inline = true) ?(unroll = true) ?(collect_segments = false)
    ?value_table ?(step_budget = max_int) ~predictor (m : Ilp.Machine.t)
    (info : Ilp.Program_info.t)
    trace =
  let regs = Hashtbl.create 64 in
  let reg_time r = Option.value (Hashtbl.find_opt regs r) ~default:0 in
  let mem = Hashtbl.create 1024 in
  let mem_time a = Option.value (Hashtbl.find_opt mem a) ~default:0 in
  let latest = Hashtbl.create 64 in
  let stack = ref [] in
  let current = ref top in
  let block_seq = ref 0 in
  let cur_block = ref 0 in
  let last_branch = ref 0 in
  let last_mispredict = ref 0 in
  let flows =
    match m.flows with
    | Some k -> Some (Array.make (max k 1) 0)
    | None -> None
  in
  let window =
    match m.window with Some w -> Some (Array.make (max w 1) 0) | None -> None
  in
  let window_pos = ref 0 in
  let counted = ref 0 in
  let seq_cycles = ref 0 in
  let max_time = ref 0 in
  let dyn_branches = ref 0 in
  let mispredicts = ref 0 in
  let segments = ref [] in
  let seg_len = ref 0 in
  let seg_base = ref 0 in
  let seg_max = ref 0 in
  let control_dep =
    match m.control with
    | Ilp.Machine.Control_dep | Spec_cd -> true
    | _ -> false
  in
  let speculative =
    match m.control with
    | Ilp.Machine.Speculative | Spec_cd -> true
    | _ -> false
  in
  let predictable pc =
    match value_table with
    | Some t when m.value_predict && Array.length t >= info.n -> t.(pc)
    | _ -> false
  in
  (* The paper's control dependence (§4.4.1): the newest instance, in
     this activation, of a branch the block is immediately control
     dependent on, if it is newer than the call site's; dropped
     altogether when an instance comes from a newer activation
     (recursion). *)
  let resolve blk =
    let rdf = Array.to_list info.rdf.(blk) in
    let instances = List.filter_map (Hashtbl.find_opt latest) rdf in
    if List.exists (fun i -> i.i_activation > !current.a_entry) instances
    then no_dep
    else
      List.fold_left
        (fun best i ->
          if i.i_activation = !current.a_entry && i.i_seq > best.d_seq then
            { d_seq = i.i_seq; d_time = i.i_time; d_chain = i.i_chain }
          else best)
        !current.a_site instances
  in
  let record blk ~time ~chain =
    Hashtbl.replace latest blk
      { i_seq = !cur_block; i_activation = !current.a_entry; i_time = time;
        i_chain = chain }
  in
  let close_segment () =
    segments :=
      { Ilp.Analyze.length = !seg_len; cycles = max 1 (!seg_max - !seg_base) }
      :: !segments
  in
  Vm.Trace.iter
    (fun ~pc ~aux ->
      if !counted < step_budget then begin
        let kind = info.kind.(pc) in
        let blk = info.block_of.(pc) in
        if info.block_start.(blk) = pc then begin
          incr block_seq;
          cur_block := !block_seq
        end;
        (* Activations are tracked whether or not calls are timed. *)
        (match kind with
        | Risc.Insn.Call ->
          let site = if control_dep then resolve blk else no_dep in
          stack := !current :: !stack;
          current := { a_entry = !block_seq + 1; a_site = site }
        | Ret -> (
          match !stack with
          | caller :: rest ->
            current := caller;
            stack := rest
          | [] -> current := top)
        | _ -> ());
        let removed =
          kind = Stop
          || (inline && (kind = Call || kind = Ret || info.sp_adjust.(pc)))
          || (unroll && info.loop_overhead.(pc))
        in
        if removed then begin
          (* An unrolled-away loop branch hands its own dependence on. *)
          if kind = Cond_branch && control_dep then begin
            let d = resolve blk in
            record blk ~time:d.d_time ~chain:d.d_chain
          end
        end
        else begin
          let is_cbr = kind = Cond_branch in
          let is_cjump = kind = Computed_jump || ((not inline) && kind = Ret) in
          let dep = if control_dep then resolve blk else no_dep in
          let control =
            match m.control with
            | Oracle -> 0
            | Spec_cd -> dep.d_chain
            | Speculative -> !last_mispredict
            | Control_dep -> dep.d_time
            | Blocking -> !last_branch
          in
          let data =
            Array.fold_left (fun acc r -> max acc (reg_time r)) 0 info.uses.(pc)
          in
          let data =
            if info.mem.(pc) = Mem_load then max data (mem_time aux) else data
          in
          let t = 1 + max control data in
          let mispredicted =
            if is_cbr then begin
              incr dyn_branches;
              let taken = aux = 1 in
              predictor.Predict.Predictor.predict ~pc ~taken <> taken
            end
            else is_cjump
          in
          let serializing =
            (is_cbr || is_cjump) && m.control <> Oracle
            && ((not speculative) || mispredicted)
          in
          (* One serializing branch per flow of control per cycle: take
             the flow free earliest, the lowest-numbered on ties. *)
          let flow =
            match flows with
            | Some f when serializing ->
              let best = ref 0 in
              Array.iteri (fun k ft -> if ft < f.(!best) then best := k) f;
              Some (f, !best)
            | _ -> None
          in
          let t =
          match flow with Some (f, k) -> max t (f.(k) + 1) | None -> t
        in
          let t =
            match m.fetch with Some f -> max t ((!counted / f) + 1) | None -> t
          in
          let t =
            match window with
            | Some w ->
              let t = max t w.(!window_pos) in
              w.(!window_pos) <- t;
              window_pos := (!window_pos + 1) mod Array.length w;
              t
            | None -> t
          in
          let lat =
            match Ilp.Machine.latency_fn m with
            | Some f -> f info.lat.(pc)
            | None -> 1
          in
          let completion = t + lat - 1 in
          let def_time = if predictable pc then 0 else completion in
          Array.iter (fun r -> Hashtbl.replace regs r def_time) info.defs.(pc);
          if info.mem.(pc) = Mem_store then Hashtbl.replace mem aux completion;
          incr counted;
          seq_cycles := !seq_cycles + lat;
          max_time := max !max_time completion;
          incr seg_len;
          seg_max := max !seg_max completion;
          if is_cbr || is_cjump then begin
            record blk ~time:completion
              ~chain:(if mispredicted then completion else dep.d_chain);
            last_branch := completion;
            Option.iter (fun (f, k) -> f.(k) <- completion) flow;
            if mispredicted then begin
              incr mispredicts;
              last_mispredict := completion;
              close_segment ();
              seg_len := 0;
              seg_base := completion;
              seg_max := completion
            end
          end
      end
      end)
    trace;
  if !seg_len > 0 then close_segment ();
  { Ilp.Analyze.machine = m.name;
    counted = !counted;
    seq_cycles = !seq_cycles;
    cycles = !max_time;
    parallelism =
      (if !max_time = 0 then 1.
       else float_of_int !seq_cycles /. float_of_int !max_time);
    dyn_branches = !dyn_branches;
    mispredicts = !mispredicts;
    segments =
      (if collect_segments then Array.of_list (List.rev !segments) else [||]);
    completeness = Pipeline_error.Complete }
