type config = {
  machine : Machine.t;
  inline : bool;
  unroll : bool;
  predictor : Predict.Predictor.t;
  collect_segments : bool;
  mem_words : int;
  step_budget : int option;
  value_table : bool array option;
  probe : Obs.Probe.analyzer;
}

let config ?(inline = true) ?(unroll = true) ?(collect_segments = false)
    ?(mem_words = 1024) ?step_budget ?value_table
    ?(probe = Obs.Probe.analyzer_disabled) machine predictor =
  { machine; inline; unroll; predictor; collect_segments; mem_words;
    step_budget; value_table; probe }

(* Per-config masks over the packed Program_info flags.  Shared between
   the sequential state and the segment decoder so both classify
   entries with exactly the same tests. *)
let removed_mask_of (cfg : config) =
  Program_info.f_stop
  lor (if cfg.inline then
         Program_info.f_call lor Program_info.f_ret
         lor Program_info.f_sp_adjust
       else 0)
  lor if cfg.unroll then Program_info.f_loop_overhead else 0

let cjump_mask_of (cfg : config) =
  Program_info.f_computed_jump
  lor if cfg.inline then 0 else Program_info.f_ret

(* Decoded-entry bits: the static instruction's Program_info flags
   (bits 0..9) plus two markers the state-free classification adds.
   [b_mispred] — this dynamic conditional branch is mispredicted by the
   config's predictor.  [b_invalid] — the pc lies outside the code
   segment; classification must not raise (a step budget may cut the
   trace before the bad entry is ever consumed), so the error is
   recorded and re-raised only when the entry is applied. *)
let b_mispred = 1024
let b_invalid = 2048

let classify ~n_code ~flags ~removed_mask ~predict ~pc ~aux =
  if pc < 0 || pc >= n_code then b_invalid
  else begin
    let f = Array.unsafe_get flags pc in
    if f land removed_mask <> 0 then f
    else if f land Program_info.f_cond_branch <> 0 then begin
      let taken = aux = 1 in
      if predict ~pc ~taken <> taken then f lor b_mispred else f
    end
    else f
  end

let decoder (cfg : config) (info : Program_info.t) =
  let n_code = info.Program_info.n in
  let flags = info.Program_info.flags in
  let removed_mask = removed_mask_of cfg in
  let predict = cfg.predictor.Predict.Predictor.predict in
  fun ~pc ~aux -> classify ~n_code ~flags ~removed_mask ~predict ~pc ~aux

type segment = {
  length : int;
  cycles : int;
}

type result = {
  machine : string;
  counted : int;
  seq_cycles : int;
  cycles : int;
  parallelism : float;
  dyn_branches : int;
  mispredicts : int;
  segments : segment array;
  completeness : Pipeline_error.completeness;
}

(* Incremental per-machine analysis: all the state one machine model
   needs to consume a trace one entry at a time.  [step] is the body of
   what used to be the per-entry loop; a fan-out driver advances many
   states over a single pass (or a single VM execution, via {!sink_many}).

   The layout is tuned for that per-entry loop: machine knobs are
   hoisted into flat [k_*] bools, the predictor closure and the static
   tables sit one field away, the interprocedural activation stack is a
   packed int array instead of a list of records, and the loop itself
   allocates nothing. *)
module State = struct
  (* Packed activation frames: frame [i] occupies the four ints at
     [4*i] — entry sequence number, then the call site's resolved
     control dependence (seq, time, mchain) (paper §4.4.1). *)
  let frame_words = 4

  type t = {
    cfg : config;
    info : Program_info.t;
    (* Per-config masks over the packed Program_info flags, so [step]
       re-derives nothing per entry. *)
    removed_mask : int;  (* any bit set => not in the timed trace *)
    cjump_mask : int;  (* any bit set => treated as computed jump *)
    (* Machine knobs and static tables, hoisted flat so the per-entry
       path never chases [cfg.machine] or [info]. *)
    k_control_dep : bool;
    k_oracle : bool;
    k_speculate : bool;
    k_segments : bool;
    k_fetch : int;  (* instructions fetched per cycle; 0 = unlimited *)
    k_vp : bool;  (* value prediction on, with a usable table *)
    vp_table : bool array;  (* per-pc predictability, [k_vp] only *)
    predict : pc:int -> taken:bool -> bool;
    latencies : (Program_info.lat_class -> int) option;
    budget : int;  (* step budget, [max_int] when unbounded *)
    n_code : int;
    flags : int array;
    block_of : int array;
    uses : int array array;
    defs : int array array;
    lat : Program_info.lat_class array;
    rdf : int array array;
    reg_time : int array;
    mem : Stdx.Mem_table.t;  (* last-write time per word *)
    (* Per static block: data of the most recently *executed* branch
       instance terminating it.  [cand_seq] is that instance's block
       sequence number; 0 = no instance yet. *)
    cand_seq : int array;
    b_time : int array;
    b_mchain : int array;
    b_proc : int array;
    mutable seq_counter : int;
    mutable cur_block_seq : int;
    (* Current activation; saved frames below it, packed. *)
    mutable stack : int array;
    mutable stack_len : int;  (* frames, not words *)
    mutable cur_entry : int;
    mutable ctx_seq : int;
    mutable ctx_time : int;
    mutable ctx_mchain : int;
    mutable last_branch_time : int;
    mutable last_mispred_time : int;
    flow_time : int array;
    window : int array;
    mutable win_pos : int;
    mutable counted : int;
    mutable seq_cycles : int;
    mutable max_time : int;
    mutable dyn_branches : int;
    mutable mispredicts : int;
    mutable seg_len : int;
    mutable seg_base : int;
    mutable seg_max : int;
    segments : segment Stdx.Vec.t;
    (* Control-dependence resolution results, kept as fields so the hot
       path stays allocation-free. *)
    mutable r_seq : int;
    mutable r_time : int;
    mutable r_mchain : int;
    (* Resource guard: once the step budget is hit, remaining entries
       are dropped and the result is tagged Truncated. *)
    mutable budget_hit : Pipeline_error.fault_info option;
    (* Probe fields.  [prof_on] is the one test the per-entry hot path
       pays when observability is off; the plain-int tallies below are
       published to the probe's registry once, in [finish], and feed
       nothing in the analysis itself — results are byte-identical with
       the probe on or off. *)
    probe : Obs.Probe.analyzer;
    prof_on : bool;
    mutable prof_left : int;  (* entries until the next depth sample *)
    mutable p_entries : int;  (* entries consumed (when prof_on) *)
    mutable p_flushed : int;  (* entries dropped past the step budget *)
    mutable p_cbr_mispred : int;  (* mispredicted conditional branches *)
    mutable p_frame_hw : int;  (* frame-stack depth high-water *)
  }

  let create (cfg : config) (info : Program_info.t) =
    let m = cfg.machine in
    (* The compositional machine compiles down to the same flat knobs
       the hot loop always branched on, so the seven paper machines take
       exactly the code path they did before the lattice existed. *)
    let k_oracle = m.Machine.control = Machine.Oracle in
    let k_control_dep =
      match m.Machine.control with
      | Machine.Control_dep | Machine.Spec_cd -> true
      | _ -> false
    in
    let k_speculate =
      match m.Machine.control with
      | Machine.Speculative | Machine.Spec_cd -> true
      | _ -> false
    in
    (* An undersized table (no training ran) turns value prediction
       off; a full-sized one lets [do_step] read it unsafely behind the
       pc bounds check. *)
    let vp_table =
      match cfg.value_table with
      | Some t when m.Machine.value_predict && Array.length t >= info.n ->
        t
      | _ -> [||]
    in
    { cfg;
      info;
      removed_mask = removed_mask_of cfg;
      cjump_mask = cjump_mask_of cfg;
      k_control_dep;
      k_oracle;
      k_speculate;
      k_segments = cfg.collect_segments;
      k_fetch = (match m.Machine.fetch with Some f -> f | None -> 0);
      k_vp = Array.length vp_table > 0;
      vp_table;
      predict = cfg.predictor.Predict.Predictor.predict;
      latencies = Machine.latency_fn m;
      budget =
        (match cfg.step_budget with None -> max_int | Some b -> b);
      n_code = info.n;
      flags = info.flags;
      block_of = info.block_of;
      uses = info.uses;
      defs = info.defs;
      lat = info.lat;
      rdf = info.rdf;
      reg_time = Array.make Risc.Reg.n_unified 0;
      mem = Stdx.Mem_table.create cfg.mem_words;
      cand_seq = Array.make (max info.n_blocks 1) 0;
      b_time = Array.make (max info.n_blocks 1) 0;
      b_mchain = Array.make (max info.n_blocks 1) 0;
      b_proc = Array.make (max info.n_blocks 1) 0;
      seq_counter = 0;
      cur_block_seq = 0;
      stack = Array.make (16 * frame_words) 0;
      stack_len = 0;
      cur_entry = 1;
      ctx_seq = 0;
      ctx_time = 0;
      ctx_mchain = 0;
      last_branch_time = 0;
      last_mispred_time = 0;
      flow_time =
        (match m.flows with Some k -> Array.make (max k 1) 0 | None -> [||]);
      window =
        (match m.window with Some w -> Array.make (max w 1) 0 | None -> [||]);
      win_pos = 0;
      counted = 0;
      seq_cycles = 0;
      max_time = 0;
      dyn_branches = 0;
      mispredicts = 0;
      seg_len = 0;
      seg_base = 0;
      seg_max = 0;
      segments = Stdx.Vec.create ~dummy:{ length = 0; cycles = 0 } ();
      r_seq = 0;
      r_time = 0;
      r_mchain = 0;
      budget_hit = None;
      probe = cfg.probe;
      prof_on = cfg.probe.Obs.Probe.a_enabled;
      prof_left = cfg.probe.Obs.Probe.a_sample_every;
      p_entries = 0;
      p_flushed = 0;
      p_cbr_mispred = 0;
      p_frame_hw = 0 }

  (* Control-dependence resolution: the call-site context or the most
     recent valid RDF branch instance, whichever is newer; dropped
     entirely when an instance from a newer activation (recursion) is
     seen.  The best candidate travels in accumulator arguments (not a
     heap ref), and an instance from a newer activation short-circuits
     — the original scanned on, but only into updates the final zeroing
     discarded anyway.  Indices are proven: [blk] and the RDF entries
     are block ids below [n_blocks], the length of every per-block
     table. *)
  let resolve st blk =
    let rdf = Array.unsafe_get st.rdf blk in
    let n = Array.length rdf in
    let cur_entry = st.cur_entry in
    let rec go k seq time mchain =
      if k >= n then begin
        st.r_seq <- seq;
        st.r_time <- time;
        st.r_mchain <- mchain
      end
      else
        let c = Array.unsafe_get rdf k in
        let cand = Array.unsafe_get st.cand_seq c in
        if cand > 0 then begin
          let proc = Array.unsafe_get st.b_proc c in
          if proc > cur_entry then begin
            st.r_seq <- 0;
            st.r_time <- 0;
            st.r_mchain <- 0
          end
          else if proc = cur_entry && cand > seq then
            go (k + 1) cand
              (Array.unsafe_get st.b_time c)
              (Array.unsafe_get st.b_mchain c)
          else go (k + 1) seq time mchain
        end
        else go (k + 1) seq time mchain
    in
    go 0 st.ctx_seq st.ctx_time st.ctx_mchain

  (* The per-entry transition, split from classification: [bits] is
     the entry's decoded word — the static flags plus the
     [b_mispred]/[b_invalid] markers — computed by {!classify} against
     this config's masks and predictor.  The sequential [step]
     classifies and applies in one call; segmented analysis classifies
     whole segments concurrently and replays [do_step] here in trace
     order, so both paths execute the identical transition sequence.
     [classify]'s bounds check on the trace-supplied [pc] (surfacing
     as [b_invalid]) proves every per-instruction table access below,
     so the rest of the step reads unsafely. *)
  let do_step st ~pc ~aux ~bits =
    if bits land b_invalid <> 0 then
      invalid_arg "Analyze.step: pc outside the code segment";
    if st.prof_on then begin
      st.p_entries <- st.p_entries + 1;
      st.prof_left <- st.prof_left - 1;
      if st.prof_left <= 0 then begin
        st.prof_left <- st.probe.Obs.Probe.a_sample_every;
        Obs.Metrics.observe st.probe.Obs.Probe.a_frame_depth st.stack_len
      end
    end;
    let flags = bits in
    let blk = Array.unsafe_get st.block_of pc in
    if flags land Program_info.f_block_start <> 0 then begin
      st.seq_counter <- st.seq_counter + 1;
      st.cur_block_seq <- st.seq_counter
    end;
    (* Interprocedural stack maintenance happens whether or not the call
       and return instructions themselves are timed. *)
    if flags land Program_info.f_call <> 0 then begin
      if st.k_control_dep then resolve st blk
      else begin
        st.r_seq <- 0;
        st.r_time <- 0;
        st.r_mchain <- 0
      end;
      let base = frame_words * st.stack_len in
      if base >= Array.length st.stack then begin
        let old = st.stack in
        let bigger = Array.make (2 * Array.length old) 0 in
        Array.blit old 0 bigger 0 (Array.length old);
        st.stack <- bigger
      end;
      let s = st.stack in
      Array.unsafe_set s base st.cur_entry;
      Array.unsafe_set s (base + 1) st.ctx_seq;
      Array.unsafe_set s (base + 2) st.ctx_time;
      Array.unsafe_set s (base + 3) st.ctx_mchain;
      st.stack_len <- st.stack_len + 1;
      if st.stack_len > st.p_frame_hw then st.p_frame_hw <- st.stack_len;
      st.cur_entry <- st.seq_counter + 1;
      st.ctx_seq <- st.r_seq;
      st.ctx_time <- st.r_time;
      st.ctx_mchain <- st.r_mchain
    end
    else if flags land Program_info.f_ret <> 0 then begin
      if st.stack_len > 0 then begin
        st.stack_len <- st.stack_len - 1;
        let base = frame_words * st.stack_len in
        let s = st.stack in
        st.cur_entry <- Array.unsafe_get s base;
        st.ctx_seq <- Array.unsafe_get s (base + 1);
        st.ctx_time <- Array.unsafe_get s (base + 2);
        st.ctx_mchain <- Array.unsafe_get s (base + 3)
      end
      else begin
        st.cur_entry <- 1;
        st.ctx_seq <- 0;
        st.ctx_time <- 0;
        st.ctx_mchain <- 0
      end
    end;
    if flags land st.removed_mask <> 0 then begin
      (* A removed loop branch passes its own control dependence through
         to its dependents (unrolling an inner loop leaves its body
         dependent on the enclosing branch). *)
      if flags land Program_info.f_cond_branch <> 0 && st.k_control_dep
      then begin
        resolve st blk;
        Array.unsafe_set st.cand_seq blk st.cur_block_seq;
        Array.unsafe_set st.b_proc blk st.cur_entry;
        Array.unsafe_set st.b_time blk st.r_time;
        Array.unsafe_set st.b_mchain blk st.r_mchain
      end
    end
    else begin
      let is_cbr = flags land Program_info.f_cond_branch <> 0 in
      let is_cjump = flags land st.cjump_mask <> 0 in
      if st.k_control_dep then resolve st blk;
      let ctrl =
        if st.k_oracle then 0
        else if st.k_speculate && st.k_control_dep then st.r_mchain
        else if st.k_speculate then st.last_mispred_time
        else if st.k_control_dep then st.r_time
        else st.last_branch_time
      in
      (* True data dependences: max over register uses (accumulator
         recursion, not a heap ref) and the last write of a loaded
         address. *)
      let uses = Array.unsafe_get st.uses pc in
      let n_uses = Array.length uses in
      let reg_time = st.reg_time in
      let rec max_use k acc =
        if k >= n_uses then acc
        else
          let time =
            Array.unsafe_get reg_time (Array.unsafe_get uses k)
          in
          max_use (k + 1) (if time > acc then time else acc)
      in
      let data = max_use 0 0 in
      let data =
        if flags land Program_info.f_mem_load <> 0 then begin
          let time = Stdx.Mem_table.get st.mem aux in
          if time > data then time else data
        end
        else data
      in
      let t = 1 + (if ctrl > data then ctrl else data) in
      (* Branch prediction. *)
      let mispred =
        if is_cbr then begin
          st.dyn_branches <- st.dyn_branches + 1;
          let m = bits land b_mispred <> 0 in
          if m then st.p_cbr_mispred <- st.p_cbr_mispred + 1;
          m
        end
        else is_cjump
      in
      (* Serializing branches compete for the machine's flows of
         control: one such branch per flow per cycle. *)
      let serializing =
        (is_cbr || is_cjump)
        && (not st.k_oracle)
        && ((not st.k_speculate) || mispred)
      in
      let flow_time = st.flow_time in
      let n_flows = Array.length flow_time in
      let flow_idx =
        if serializing && n_flows > 0 then begin
          let rec best k b =
            if k >= n_flows then b
            else
              best (k + 1)
                (if Array.unsafe_get flow_time k
                    < Array.unsafe_get flow_time b
                 then k
                 else b)
          in
          best 1 0
        end
        else -1
      in
      let t =
        if flow_idx >= 0 then begin
          let avail = Array.unsafe_get flow_time flow_idx + 1 in
          if avail > t then avail else t
        end
        else t
      in
      (* Finite fetch rate: the [i]-th counted instruction cannot issue
         before cycle [i/f + 1] — the front end delivers [f]
         instructions per cycle.  Before the window constraint so the
         window records true issue times. *)
      let t =
        if st.k_fetch > 0 then begin
          let fmin = (st.counted / st.k_fetch) + 1 in
          if fmin > t then fmin else t
        end
        else t
      in
      (* Finite scheduling window: an instruction cannot issue before
         the one [w] earlier has issued. *)
      let window = st.window in
      let n_window = Array.length window in
      let t =
        if n_window > 0 then begin
          let wp = st.win_pos in
          let prev = Array.unsafe_get window wp in
          let t = if prev > t then prev else t in
          Array.unsafe_set window wp t;
          let wp = wp + 1 in
          st.win_pos <- (if wp = n_window then 0 else wp);
          t
        end
        else t
      in
      let lat =
        match st.latencies with
        | None -> 1
        | Some f -> f (Array.unsafe_get st.lat pc)
      in
      let completion = t + lat - 1 in
      (* Record results.  Under value prediction, a predictable
         instruction's results count as available immediately (the
         consumer uses the predicted value); the producer itself still
         occupies its cycles to validate the prediction, so max_time,
         stores and branch bookkeeping keep the real completion. *)
      let defs = Array.unsafe_get st.defs pc in
      let def_time =
        if st.k_vp && Array.unsafe_get st.vp_table pc then 0
        else completion
      in
      for k = 0 to Array.length defs - 1 do
        Array.unsafe_set reg_time (Array.unsafe_get defs k) def_time
      done;
      if flags land Program_info.f_mem_store <> 0 then
        Stdx.Mem_table.set st.mem aux completion;
      st.counted <- st.counted + 1;
      st.seq_cycles <- st.seq_cycles + lat;
      if completion > st.max_time then st.max_time <- completion;
      if st.k_segments then begin
        st.seg_len <- st.seg_len + 1;
        if completion > st.seg_max then st.seg_max <- completion
      end;
      if is_cbr || is_cjump then begin
        Array.unsafe_set st.cand_seq blk st.cur_block_seq;
        Array.unsafe_set st.b_proc blk st.cur_entry;
        Array.unsafe_set st.b_time blk completion;
        Array.unsafe_set st.b_mchain blk
          (if mispred then completion else st.r_mchain);
        st.last_branch_time <- completion;
        if flow_idx >= 0 then
          Array.unsafe_set st.flow_time flow_idx completion;
        if mispred then begin
          st.mispredicts <- st.mispredicts + 1;
          st.last_mispred_time <- completion;
          if st.k_segments then begin
            Stdx.Vec.push st.segments
              { length = st.seg_len;
                cycles = max 1 (st.seg_max - st.seg_base) };
            st.seg_len <- 0;
            st.seg_base <- completion;
            st.seg_max <- completion
          end
        end
      end
    end

  (* The budget guard wraps the real per-entry transition: once the
     configured number of counted instructions has been analyzed, the
     remaining trace is dropped (graceful degradation, not an abort) and
     the result will carry a [Step_budget] truncation tag.  [budget] is
     [max_int] when unconfigured, so the common case is one compare. *)
  let step st ~pc ~aux =
    match st.budget_hit with
    | Some _ -> st.p_flushed <- st.p_flushed + 1  (* cold: post-budget *)
    | None ->
      if st.counted >= st.budget then
        st.budget_hit <-
          Some
            (Pipeline_error.fault ~pc ~step:st.counted
               ~detail:(Printf.sprintf "analysis step budget %d" st.budget)
               Pipeline_error.Step_budget)
      else
        do_step st ~pc ~aux
          ~bits:
            (classify ~n_code:st.n_code ~flags:st.flags
               ~removed_mask:st.removed_mask ~predict:st.predict ~pc ~aux)

  (* Same budget guard, pre-classified entry.  The segment stitcher
     replays decoded entries through this in trace order; because the
     budget is checked before [bits] is consulted, entries decoded
     past a budget cut (including invalid-pc markers) are dropped
     exactly as the sequential path drops them unclassified. *)
  let step_bits st ~pc ~aux ~bits =
    match st.budget_hit with
    | Some _ -> st.p_flushed <- st.p_flushed + 1
    | None ->
      if st.counted >= st.budget then
        st.budget_hit <-
          Some
            (Pipeline_error.fault ~pc ~step:st.counted
               ~detail:(Printf.sprintf "analysis step budget %d" st.budget)
               Pipeline_error.Step_budget)
      else do_step st ~pc ~aux ~bits

  let finish ?(completeness = Pipeline_error.Complete) st =
    if st.prof_on then begin
      let p = st.probe in
      Obs.Metrics.add p.Obs.Probe.a_entries st.p_entries;
      Obs.Metrics.add p.Obs.Probe.a_counted st.counted;
      Obs.Metrics.add p.Obs.Probe.a_flushed st.p_flushed;
      Obs.Metrics.add p.Obs.Probe.a_pred_misses st.p_cbr_mispred;
      Obs.Metrics.add p.Obs.Probe.a_pred_hits
        (st.dyn_branches - st.p_cbr_mispred);
      Obs.Metrics.add p.Obs.Probe.a_mispredict_flushes st.mispredicts;
      Obs.Metrics.set_max p.Obs.Probe.a_frame_hw st.p_frame_hw
    end;
    if st.cfg.collect_segments && st.seg_len > 0 then begin
      Stdx.Vec.push st.segments
        { length = st.seg_len; cycles = max 1 (st.seg_max - st.seg_base) };
      st.seg_len <- 0
    end;
    let parallelism =
      if st.max_time = 0 then 1.
      else float_of_int st.seq_cycles /. float_of_int st.max_time
    in
    let completeness =
      (* A budget cut happens strictly before the execution's own end,
         so it wins over an execution-level truncation tag. *)
      match st.budget_hit with
      | Some f -> Pipeline_error.Truncated f
      | None -> completeness
    in
    { machine = st.cfg.machine.name;
      counted = st.counted;
      seq_cycles = st.seq_cycles;
      cycles = st.max_time;
      parallelism;
      dyn_branches = st.dyn_branches;
      mispredicts = st.mispredicts;
      segments = Stdx.Vec.to_array st.segments;
      completeness }
end

let sink_states (states : State.t array) =
  match states with
  | [| st |] ->
    Vm.Trace.sink (fun ~pc ~aux -> State.step st ~pc ~aux)
  | _ ->
    Vm.Trace.sink (fun ~pc ~aux ->
        for i = 0 to Array.length states - 1 do
          State.step states.(i) ~pc ~aux
        done)

let sink_many configs info =
  let states =
    Array.of_list (List.map (fun c -> State.create c info) configs)
  in
  ( sink_states states,
    fun ?completeness () ->
      List.map (State.finish ?completeness) (Array.to_list states) )

let run_many ?completeness configs info trace =
  let sink, finish = sink_many configs info in
  Vm.Trace.feed trace sink;
  finish ?completeness ()

let run ?completeness (cfg : config) (info : Program_info.t) trace =
  match run_many ?completeness [ cfg ] info trace with
  | [ r ] -> r
  | _ -> assert false
