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

(* The one decode-sharing rule: configs classify every entry
   identically when they share the inline/unroll masks and the same
   stateless predictor record.  Identity, not name — two "profile"
   predictors trained on different traces disagree. *)
let compatible = function
  | [] -> false
  | (c0 : config) :: rest ->
    (not c0.predictor.Predict.Predictor.stateful)
    && List.for_all
         (fun (c : config) ->
           c.inline = c0.inline && c.unroll = c0.unroll
           && c.predictor == c0.predictor)
         rest

(* Greedy: a config joins the first group whose first member it is
   compatible with.  Compatibility is an equivalence on stateless
   configs, so the first member speaks for the whole group. *)
let decode_groups configs =
  let rec add i c = function
    | [] -> [ (c, [ i ]) ]
    | (c0, is) :: gs when compatible [ c0; c ] -> (c0, i :: is) :: gs
    | g :: gs -> g :: add i c gs
  in
  let _, groups =
    List.fold_left (fun (i, gs) c -> (i + 1, add i c gs)) (0, []) configs
  in
  List.map (fun (_, is) -> List.rev is) groups

(* Per-config masks over the packed Program_info flags.  Shared between
   the state and the segment decoder so both classify entries with
   exactly the same tests. *)
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
   needs to consume decoded trace entries in order.  [step_bits] is the
   one per-entry transition; the fan-out below runs it over a whole
   decoded chunk per state before moving to the next state.

   The layout is tuned for that per-entry loop: machine knobs are
   hoisted into flat [k_*] bools, the predictor closure and the static
   tables sit one field away, the interprocedural activation stack is a
   packed int array instead of a list of records, and the loop
   allocates nothing: its helpers are closed top-level functions, since
   a local closure would be allocated on every entry. *)
module State = struct
  (* Packed activation frames: frame [i] occupies the four ints at
     [4*i] — entry sequence number, then the call site's resolved
     control dependence (seq, time, mchain) (paper §4.4.1). *)
  let frame_words = 4

  type t = {
    cfg : config;
    info : Program_info.t;
    (* Per-config masks over the packed Program_info flags, so the
       per-entry path re-derives nothing. *)
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
       path stays allocation-free.  [r_blk] is the block they were
       resolved for, or -1: [resolve]'s inputs change only at a write
       to the per-block branch tables or at a call or return, each of
       which clears it, so every other entry of the same block reuses
       the result. *)
    mutable r_seq : int;
    mutable r_time : int;
    mutable r_mchain : int;
    mutable r_blk : int;
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
      r_blk = -1;
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
  let rec resolve_scan st (rdf : int array) (cur_entry : int) (k : int)
      (seq : int) (time : int) (mchain : int) =
    if k >= Array.length rdf then begin
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
          resolve_scan st rdf cur_entry (k + 1) cand
            (Array.unsafe_get st.b_time c)
            (Array.unsafe_get st.b_mchain c)
        else resolve_scan st rdf cur_entry (k + 1) seq time mchain
      end
      else resolve_scan st rdf cur_entry (k + 1) seq time mchain

  let resolve st blk =
    if st.r_blk <> blk then begin
      resolve_scan st (Array.unsafe_get st.rdf blk) st.cur_entry 0
        st.ctx_seq st.ctx_time st.ctx_mchain;
      st.r_blk <- blk
    end

  (* Record the branch instance terminating [blk]: [resolve]'s inputs
     changed, so its cached result is stale. *)
  let set_branch st blk ~time ~mchain =
    Array.unsafe_set st.cand_seq blk st.cur_block_seq;
    Array.unsafe_set st.b_proc blk st.cur_entry;
    Array.unsafe_set st.b_time blk time;
    Array.unsafe_set st.b_mchain blk mchain;
    st.r_blk <- -1

  (* True data dependences over register uses. *)
  let rec max_use (reg_time : int array) (uses : int array) (k : int)
      (acc : int) =
    if k >= Array.length uses then acc
    else
      let time = Array.unsafe_get reg_time (Array.unsafe_get uses k) in
      max_use reg_time uses (k + 1) (if time > acc then time else acc)

  (* The flow of control free earliest (lowest index on ties). *)
  let rec best_flow (flow_time : int array) (k : int) (b : int) =
    if k >= Array.length flow_time then b
    else
      best_flow flow_time (k + 1)
        (if Array.unsafe_get flow_time k < Array.unsafe_get flow_time b
         then k
         else b)

  (* The per-entry transition, split from classification: [bits] is
     the entry's decoded word — the static flags plus the
     [b_mispred]/[b_invalid] markers — computed by {!classify} against
     this config's masks and predictor.  The fan-out classifies a chunk
     per decode group and segmented analysis whole segments
     concurrently; both replay [do_step] here in trace order, so every
     path executes the identical transition sequence.  [classify]'s
     bounds check on the trace-supplied [pc] (surfacing as
     [b_invalid]) proves every per-instruction table access below, so
     the rest of the step reads unsafely. *)
  let do_step st ~pc ~aux ~bits =
    if bits land b_invalid <> 0 then
      invalid_arg "Analyze.State.step_bits: pc outside the code segment";
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
      st.ctx_mchain <- st.r_mchain;
      st.r_blk <- -1
    end
    else if flags land Program_info.f_ret <> 0 then begin
      st.r_blk <- -1;
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
        set_branch st blk ~time:st.r_time ~mchain:st.r_mchain
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
      (* True data dependences: max over register uses and the last
         write of a loaded address. *)
      let reg_time = st.reg_time in
      let data = max_use reg_time (Array.unsafe_get st.uses pc) 0 0 in
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
      let flow_idx =
        if serializing && Array.length flow_time > 0 then
          best_flow flow_time 1 0
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
        set_branch st blk ~time:completion
          ~mchain:(if mispred then completion else st.r_mchain);
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
     [max_int] when unconfigured, so the common case is one compare.
     The guard runs before [bits] is consulted, so entries decoded past
     a budget cut (including invalid-pc markers) are dropped unapplied. *)
  let step_bits st ~pc ~aux ~bits =
    match st.budget_hit with
    | Some _ -> st.p_flushed <- st.p_flushed + 1  (* cold: post-budget *)
    | None ->
      if st.counted >= st.budget then
        st.budget_hit <-
          Some
            (Pipeline_error.fault ~pc ~step:st.counted
               ~detail:(Printf.sprintf "analysis step budget %d" st.budget)
               Pipeline_error.Step_budget)
      else do_step st ~pc ~aux ~bits

  (* Classify entries [0 .. len - 1] into [bits] with this state's
     masks and predictor, in trace order. *)
  let decode st ~(pcs : int array) ~(auxs : int array) ~(bits : int array)
      ~len =
    let n_code = st.n_code and flags = st.flags in
    let removed_mask = st.removed_mask and predict = st.predict in
    for i = 0 to len - 1 do
      Array.unsafe_set bits i
        (classify ~n_code ~flags ~removed_mask ~predict
           ~pc:(Array.unsafe_get pcs i) ~aux:(Array.unsafe_get auxs i))
    done

  let apply st ~(pcs : int array) ~(auxs : int array) ~(bits : int array)
      ~len =
    for i = 0 to len - 1 do
      step_bits st ~pc:(Array.unsafe_get pcs i) ~aux:(Array.unsafe_get auxs i)
        ~bits:(Array.unsafe_get bits i)
    done

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

(* The fan-out, chunk-major: each decode group classifies a chunk once,
   then every state of the group runs [step_bits] over the whole chunk
   before the next state starts.  A state still sees its entries in
   trace order, and a stateful predictor (a group of its own) still
   classifies them in trace order, so results equal one state per
   config stepped entry by entry.  The groups take turns on one [bits]
   buffer. *)
type fanout = {
  states : State.t array;  (* config order *)
  groups : State.t array array;
  bits : int array;
}

let fanout configs info =
  let states =
    Array.of_list (List.map (fun c -> State.create c info) configs)
  in
  { states;
    groups =
      Array.of_list
        (List.map
           (fun g -> Array.of_list (List.map (Array.get states) g))
           (decode_groups configs));
    bits = Array.make Vm.Trace.chunk_size 0 }

let apply_chunk fo ~pcs ~auxs ~len =
  let bits = fo.bits in
  Array.iter
    (fun group ->
      State.decode group.(0) ~pcs ~auxs ~bits ~len;
      Array.iter (fun st -> State.apply st ~pcs ~auxs ~bits ~len) group)
    fo.groups

let finish_all fo ?completeness () =
  Array.to_list (Array.map (State.finish ?completeness) fo.states)

let run_many ?completeness configs info trace =
  let fo = fanout configs info in
  Vm.Trace.iter_chunks (apply_chunk fo) trace;
  finish_all fo ?completeness ()

(* The live-VM form buffers one chunk in two reused arrays and applies
   it when full and at close. *)
let sink_many configs info =
  let fo = fanout configs info in
  let pcs = Array.make Vm.Trace.chunk_size 0 in
  let auxs = Array.make Vm.Trace.chunk_size 0 in
  let len = ref 0 in
  let flush () =
    let n = !len in
    len := 0;
    if n > 0 then apply_chunk fo ~pcs ~auxs ~len:n
  in
  let on_entry ~pc ~aux =
    let i = !len in
    Array.unsafe_set pcs i pc;
    Array.unsafe_set auxs i aux;
    len := i + 1;
    if i + 1 = Vm.Trace.chunk_size then flush ()
  in
  (Vm.Trace.sink ~on_close:flush on_entry, finish_all fo)

let run ?completeness (cfg : config) (info : Program_info.t) trace =
  match run_many ?completeness [ cfg ] info trace with
  | [ r ] -> r
  | _ -> assert false
