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
   the state and [decoder] so both classify entries with exactly the
   same tests. *)
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

(* Incremental analysis of one decode group: all the state its machine
   models need to consume decoded trace entries in order.  [step_bits]
   is the one per-entry transition, and it advances every machine of the
   group at once.

   The machines of a group differ only in their knobs and their times.
   Everything else is done once per entry for all of them: the flag
   tests, the block-sequence and frame-stack upkeep, the uses/defs/page
   lookups and the control-dependence scan.  Which RDF candidate wins
   depends only on [cand_seq], [b_proc], [cur_entry] and [ctx_seq],
   which every machine shares; only the times it carries differ.  The
   per-machine times are interleaved at stride [nm] (the group's
   machine count) so that one cache line serves every machine:
   [reg*nm + m] in [reg_time], [addr*nm + m] in [mem], [blk*nm + m] in
   [b_time]/[b_mchain].  Each machine's knobs and scalar times sit in
   one 16-word slot of [ms].  The counts the group shares ([counted],
   [dyn_branches], [mispredicts]) are frozen per machine when its step
   budget cuts it off.

   The loop allocates nothing: its helpers are closed top-level
   functions, since a local closure would be allocated on every
   entry. *)
module State = struct
  (* The words of machine [m]'s slot, at [m * slot + _]. *)
  let slot = 16
  let s_knobs = 0  (* k_* bits, fetch width above [fetch_shift] *)
  let s_ctrl = 1  (* which word the control constraint reads *)
  let s_win_pos = 2
  let s_last_branch = 3
  let s_last_mispred = 4
  let s_seq_cycles = 5  (* non-unit latency only; else = counted *)
  let s_max_time = 6
  let s_seg_len = 7
  let s_seg_base = 8
  let s_seg_max = 9
  let s_r_time = 10  (* resolved control dependence *)
  let s_r_mchain = 11
  let s_ctx_time = 12  (* the call site's, for this activation *)
  let s_ctx_mchain = 13
  let s_zero = 14  (* always 0: ORACLE's control constraint *)

  (* Knob bits. *)
  let k_flows = 1  (* finite flows of control, in [flow_time] *)
  let k_window = 2
  let k_fetch = 4
  let k_lat = 8  (* non-unit latency, from [lat_tab] *)
  let k_vp = 16
  let k_segments = 32
  let k_serial = 64  (* every branch takes a flow (BASE, CD) *)
  let k_serial_mispred = 128  (* mispredicted ones do (SP, SP-CD) *)
  let fetch_shift = 16

  type t = {
    cfgs : config array;
    nm : int;  (* machines in the group *)
    (* Group masks over the packed Program_info flags, so the per-entry
       path re-derives nothing. *)
    removed_mask : int;  (* any bit set => not in the timed trace *)
    cjump_mask : int;  (* any bit set => treated as computed jump *)
    any_cd : bool;  (* some machine resolves control dependence *)
    predict : pc:int -> taken:bool -> bool;
    n_code : int;
    flags : int array;
    block_of : int array;
    uses : int array array;  (* register ids, pre-scaled by [nm] *)
    defs : int array array;  (* likewise *)
    lat : Program_info.lat_class array;
    rdf : int array array;
    (* Per static block: the most recently *executed* branch instance
       terminating it.  [cand_seq] is that instance's block sequence
       number (0 = no instance yet), [b_proc] its activation. *)
    cand_seq : int array;
    b_proc : int array;
    mutable seq_counter : int;
    mutable cur_block_seq : int;
    (* Packed activation frames, [2 + 2*nm] ints each: entry sequence
       number, the call site's resolved control-dependence sequence
       number, then per machine its (time, mchain) (paper §4.4.1). *)
    mutable stack : int array;
    mutable stack_len : int;  (* frames, not words *)
    mutable cur_entry : int;
    mutable ctx_seq : int;
    (* Control-dependence resolution, cached per block: [r_blk] is the
       block it was resolved for, or -1.  [resolve]'s inputs change
       only at a write to the per-block branch tables or at a call or
       return, each of which clears it, so every other entry of the same
       block reuses the result. *)
    mutable r_seq : int;
    mutable r_src : int;  (* winning block, -1 call site, -2 dropped *)
    mutable r_blk : int;
    (* Counts every live machine shares. *)
    mutable counted : int;
    mutable dyn_branches : int;
    mutable mispredicts : int;
    mutable cbr_mispred : int;  (* mispredicted conditional branches *)
    mutable frame_hw : int;  (* frame-stack depth high-water *)
    mutable seen : int;  (* entries offered, cut or not *)
    (* Per-machine times, interleaved at stride [nm]. *)
    reg_time : int array;
    mem : Stdx.Mem_table.t;  (* last-write time per word *)
    b_time : int array;
    b_mchain : int array;
    ms : int array;  (* one [slot] per machine *)
    (* Per-machine tables the knob bits point into. *)
    lat_tab : int array;  (* latency at [m * n_lat + lat_index] *)
    vp_table : bool array array;  (* per-pc predictability *)
    flow_time : int array array;
    window : int array array;
    segments : segment Stdx.Vec.t array;
    budget : int array;  (* step budget, [max_int] when unbounded *)
    (* Live machines, in group order; a budget cut removes one.
       [next_cut] is the smallest budget among them. *)
    live : int array;
    mutable n_live : int;
    mutable next_cut : int;
    (* Resource guard: once a machine's step budget is hit, it drops
       the remaining entries and its result is tagged Truncated; the
       counts it shared are frozen with the cut. *)
    cut : (Pipeline_error.fault_info * counts) option array;
    (* Probes.  [prof_on] is the one test the per-entry hot path pays
       when observability is off; the tallies are published to each
       machine's registry once, in [finish_group], and feed nothing in
       the analysis itself — results are byte-identical with the probes
       on or off. *)
    probes : Obs.Probe.analyzer array;
    prof_on : bool;
    prof_left : int array;  (* entries until the next depth sample *)
  }

  (* The counts a machine shares with its group while it is live. *)
  and counts = {
    n_counted : int;
    n_dyn_branches : int;
    n_mispredicts : int;
    n_cbr_mispred : int;
    n_frame_hw : int;
    n_entries : int;  (* entries consumed *)
  }

  let counts g ~entries =
    { n_counted = g.counted;
      n_dyn_branches = g.dyn_branches;
      n_mispredicts = g.mispredicts;
      n_cbr_mispred = g.cbr_mispred;
      n_frame_hw = g.frame_hw;
      n_entries = entries }

  let frame_words nm = 2 + (2 * nm)

  (* Latency classes, in [lat_index] order. *)
  let lat_classes =
    Program_info.
      [ Lat_int; Lat_mul; Lat_div; Lat_mem; Lat_fadd; Lat_fmul; Lat_fdiv ]

  let n_lat = List.length lat_classes

  let lat_index = function
    | Program_info.Lat_int -> 0
    | Lat_mul -> 1
    | Lat_div -> 2
    | Lat_mem -> 3
    | Lat_fadd -> 4
    | Lat_fmul -> 5
    | Lat_fdiv -> 6

  (* The compositional machine compiles down to knob bits and the word
     its control constraint reads. *)
  let knobs (c : config) vp_on =
    let m = c.machine in
    let serial, ctrl =
      match m.Machine.control with
      | Machine.Oracle -> (0, s_zero)
      | Machine.Spec_cd -> (k_serial_mispred, s_r_mchain)
      | Machine.Speculative -> (k_serial_mispred, s_last_mispred)
      | Machine.Control_dep -> (k_serial, s_r_time)
      | Machine.Blocking -> (k_serial, s_last_branch)
    in
    let bits =
      serial
      lor (if m.Machine.flows <> None then k_flows else 0)
      lor (if m.Machine.window <> None then k_window else 0)
      lor (match m.Machine.fetch with
          | Some f when f > 0 -> k_fetch lor (f lsl fetch_shift)
          | _ -> 0)
      lor (if Option.is_some (Machine.latency_fn m) then k_lat else 0)
      lor (if vp_on then k_vp else 0)
      lor if c.collect_segments then k_segments else 0
    in
    (bits, ctrl)

  let scaled nm tables =
    if nm = 1 then tables else Array.map (Array.map (fun r -> r * nm)) tables

  let group configs (info : Program_info.t) =
    (match configs with
    | [] -> invalid_arg "Analyze.State.group: no configs"
    | [ _ ] -> ()
    | _ ->
      if not (compatible configs) then
        invalid_arg
          "Analyze.State.group: configs must share inline/unroll and one \
           stateless predictor");
    let cfgs = Array.of_list configs in
    let c0 = cfgs.(0) in
    let nm = Array.length cfgs in
    let per f = Array.map f cfgs in
    let n_blocks = max info.n_blocks 1 in
    (* An undersized table (no training ran) turns value prediction
       off; a full-sized one may be read unsafely behind the decoder's
       pc bounds check. *)
    let vp_table =
      per (fun c ->
          match c.value_table with
          | Some t
            when c.machine.Machine.value_predict && Array.length t >= info.n
            ->
            t
          | _ -> [||])
    in
    let ms = Array.make (nm * slot) 0 in
    Array.iteri
      (fun m c ->
        let bits, ctrl = knobs c (Array.length vp_table.(m) > 0) in
        ms.((m * slot) + s_knobs) <- bits;
        ms.((m * slot) + s_ctrl) <- ctrl)
      cfgs;
    let any_cd =
      Array.exists
        (fun (c : config) ->
          match c.machine.Machine.control with
          | Machine.Control_dep | Machine.Spec_cd -> true
          | _ -> false)
        cfgs
    in
    let mem_words =
      Array.fold_left (fun a (c : config) -> max a c.mem_words) 1 cfgs
    in
    let budget =
      per (fun c -> match c.step_budget with None -> max_int | Some b -> b)
    in
    { cfgs;
      nm;
      removed_mask = removed_mask_of c0;
      cjump_mask = cjump_mask_of c0;
      any_cd;
      predict = c0.predictor.Predict.Predictor.predict;
      n_code = info.n;
      flags = info.flags;
      block_of = info.block_of;
      uses = scaled nm info.uses;
      defs = scaled nm info.defs;
      lat = info.lat;
      rdf = info.rdf;
      cand_seq = Array.make n_blocks 0;
      b_proc = Array.make n_blocks 0;
      seq_counter = 0;
      cur_block_seq = 0;
      stack = Array.make (16 * frame_words nm) 0;
      stack_len = 0;
      cur_entry = 1;
      ctx_seq = 0;
      r_seq = 0;
      r_src = -2;
      r_blk = -1;
      counted = 0;
      dyn_branches = 0;
      mispredicts = 0;
      cbr_mispred = 0;
      frame_hw = 0;
      seen = 0;
      reg_time = Array.make (Risc.Reg.n_unified * nm) 0;
      mem = Stdx.Mem_table.create (mem_words * nm);
      b_time = Array.make (n_blocks * nm) 0;
      b_mchain = Array.make (n_blocks * nm) 0;
      ms;
      lat_tab =
        Array.concat
          (List.map
             (fun (c : config) ->
               match Machine.latency_fn c.machine with
               | Some f -> Array.of_list (List.map f lat_classes)
               | None -> Array.make n_lat 1)
             configs);
      vp_table;
      flow_time =
        per (fun c ->
            match c.machine.Machine.flows with
            | Some k -> Array.make (max k 1) 0
            | None -> [||]);
      window =
        per (fun c ->
            match c.machine.Machine.window with
            | Some w -> Array.make (max w 1) 0
            | None -> [||]);
      segments =
        per (fun _ -> Stdx.Vec.create ~dummy:{ length = 0; cycles = 0 } ());
      budget;
      live = Array.init nm Fun.id;
      n_live = nm;
      next_cut = Array.fold_left min max_int budget;
      cut = Array.make nm None;
      probes = per (fun c -> c.probe);
      prof_on =
        Array.exists (fun (c : config) -> c.probe.Obs.Probe.a_enabled) cfgs;
      prof_left = per (fun c -> c.probe.Obs.Probe.a_sample_every) }

  let create cfg info = group [ cfg ] info

  (* Control-dependence resolution: the call-site context or the most
     recent valid RDF branch instance, whichever is newer; dropped
     entirely when an instance from a newer activation (recursion) is
     seen.  The scan picks only the winner — a block, the call site
     (-1) or nothing (-2) — and [resolve] copies every machine's times
     from it.  The best candidate travels in accumulator arguments, and
     an instance from a newer activation short-circuits.  Indices are
     proven: [blk] and the RDF entries are block ids below [n_blocks]. *)
  let rec resolve_scan g (rdf : int array) (cur_entry : int) (k : int)
      (seq : int) (src : int) =
    if k >= Array.length rdf then begin
      g.r_seq <- seq;
      g.r_src <- src
    end
    else
      let c = Array.unsafe_get rdf k in
      let cand = Array.unsafe_get g.cand_seq c in
      if cand > 0 then begin
        let proc = Array.unsafe_get g.b_proc c in
        if proc > cur_entry then begin
          g.r_seq <- 0;
          g.r_src <- -2
        end
        else if proc = cur_entry && cand > seq then
          resolve_scan g rdf cur_entry (k + 1) cand c
        else resolve_scan g rdf cur_entry (k + 1) seq src
      end
      else resolve_scan g rdf cur_entry (k + 1) seq src

  let resolve_miss g blk =
    resolve_scan g (Array.unsafe_get g.rdf blk) g.cur_entry 0 g.ctx_seq (-1);
    let src = g.r_src and nm = g.nm and ms = g.ms in
    for m = 0 to nm - 1 do
      let o = m * slot in
      if src >= 0 then begin
        Array.unsafe_set ms (o + s_r_time)
          (Array.unsafe_get g.b_time ((src * nm) + m));
        Array.unsafe_set ms (o + s_r_mchain)
          (Array.unsafe_get g.b_mchain ((src * nm) + m))
      end
      else if src = -1 then begin
        Array.unsafe_set ms (o + s_r_time)
          (Array.unsafe_get ms (o + s_ctx_time));
        Array.unsafe_set ms (o + s_r_mchain)
          (Array.unsafe_get ms (o + s_ctx_mchain))
      end
      else begin
        Array.unsafe_set ms (o + s_r_time) 0;
        Array.unsafe_set ms (o + s_r_mchain) 0
      end
    done;
    g.r_blk <- blk

  let[@inline] resolve g blk = if g.r_blk <> blk then resolve_miss g blk

  (* Record the branch instance terminating [blk] (the caller writes
     its per-machine times): [resolve]'s inputs changed, so its cached
     result is stale. *)
  let[@inline] set_branch g blk =
    Array.unsafe_set g.cand_seq blk g.cur_block_seq;
    Array.unsafe_set g.b_proc blk g.cur_entry;
    g.r_blk <- -1

  (* The flow of control free earliest (lowest index on ties). *)
  let rec best_flow (flow_time : int array) (k : int) (b : int) =
    if k >= Array.length flow_time then b
    else
      best_flow flow_time (k + 1)
        (if Array.unsafe_get flow_time k < Array.unsafe_get flow_time b
         then k
         else b)

  let call g blk =
    if g.any_cd then resolve g blk;
    let nm = g.nm and ms = g.ms in
    let fw = frame_words nm in
    let base = fw * g.stack_len in
    if base >= Array.length g.stack then begin
      let old = g.stack in
      let bigger = Array.make (2 * Array.length old) 0 in
      Array.blit old 0 bigger 0 (Array.length old);
      g.stack <- bigger
    end;
    let s = g.stack in
    Array.unsafe_set s base g.cur_entry;
    Array.unsafe_set s (base + 1) g.ctx_seq;
    for m = 0 to nm - 1 do
      let o = m * slot in
      Array.unsafe_set s (base + 2 + (2 * m))
        (Array.unsafe_get ms (o + s_ctx_time));
      Array.unsafe_set s (base + 3 + (2 * m))
        (Array.unsafe_get ms (o + s_ctx_mchain));
      (* The callee's context is the call site's resolution (all zero
         when no machine resolves control dependence). *)
      Array.unsafe_set ms (o + s_ctx_time) (Array.unsafe_get ms (o + s_r_time));
      Array.unsafe_set ms (o + s_ctx_mchain)
        (Array.unsafe_get ms (o + s_r_mchain))
    done;
    g.stack_len <- g.stack_len + 1;
    if g.stack_len > g.frame_hw then g.frame_hw <- g.stack_len;
    g.cur_entry <- g.seq_counter + 1;
    g.ctx_seq <- (if g.any_cd then g.r_seq else 0);
    g.r_blk <- -1

  let return g =
    g.r_blk <- -1;
    let nm = g.nm and ms = g.ms in
    if g.stack_len > 0 then begin
      g.stack_len <- g.stack_len - 1;
      let base = frame_words nm * g.stack_len in
      let s = g.stack in
      g.cur_entry <- Array.unsafe_get s base;
      g.ctx_seq <- Array.unsafe_get s (base + 1);
      for m = 0 to nm - 1 do
        let o = m * slot in
        Array.unsafe_set ms (o + s_ctx_time)
          (Array.unsafe_get s (base + 2 + (2 * m)));
        Array.unsafe_set ms (o + s_ctx_mchain)
          (Array.unsafe_get s (base + 3 + (2 * m)))
      done
    end
    else begin
      g.cur_entry <- 1;
      g.ctx_seq <- 0;
      for m = 0 to nm - 1 do
        Array.unsafe_set ms ((m * slot) + s_ctx_time) 0;
        Array.unsafe_set ms ((m * slot) + s_ctx_mchain) 0
      done
    end

  (* A sampled frame-depth observation per live machine with its probe
     on; sampling counts the entries that machine consumed. *)
  let probe_entry g =
    for k = 0 to g.n_live - 1 do
      let m = Array.unsafe_get g.live k in
      let p = Array.unsafe_get g.probes m in
      if p.Obs.Probe.a_enabled then begin
        let left = Array.unsafe_get g.prof_left m - 1 in
        if left <= 0 then begin
          Array.unsafe_set g.prof_left m p.Obs.Probe.a_sample_every;
          Obs.Metrics.observe p.Obs.Probe.a_frame_depth g.stack_len
        end
        else Array.unsafe_set g.prof_left m left
      end
    done

  (* The per-entry transition, split from classification: [bits] is
     the entry's decoded word — the static flags plus the
     [b_mispred]/[b_invalid] markers — computed by {!classify} against
     the group's masks and predictor.  The fan-out classifies a chunk
     per decode group, and segmented analysis a segment while the
     previous one applies; both replay [do_step] here in trace order,
     so every path executes the identical transition sequence.  [classify]'s
     bounds check on the trace-supplied [pc] (surfacing as
     [b_invalid]) proves every per-instruction table access below, so
     the rest of the step reads unsafely. *)
  let do_step g ~pc ~aux ~bits =
    if bits land b_invalid <> 0 then
      invalid_arg "Analyze.State.step_bits: pc outside the code segment";
    if g.prof_on then probe_entry g;
    let blk = Array.unsafe_get g.block_of pc in
    if bits land Program_info.f_block_start <> 0 then begin
      g.seq_counter <- g.seq_counter + 1;
      g.cur_block_seq <- g.seq_counter
    end;
    (* Interprocedural stack maintenance happens whether or not the call
       and return instructions themselves are timed. *)
    if bits land Program_info.f_call <> 0 then call g blk
    else if bits land Program_info.f_ret <> 0 then return g;
    let nm = g.nm and ms = g.ms in
    if bits land g.removed_mask <> 0 then begin
      (* A removed loop branch passes its own control dependence through
         to its dependents (unrolling an inner loop leaves its body
         dependent on the enclosing branch). *)
      if bits land Program_info.f_cond_branch <> 0 && g.any_cd then begin
        resolve g blk;
        for m = 0 to nm - 1 do
          let o = m * slot in
          Array.unsafe_set g.b_time ((blk * nm) + m)
            (Array.unsafe_get ms (o + s_r_time));
          Array.unsafe_set g.b_mchain ((blk * nm) + m)
            (Array.unsafe_get ms (o + s_r_mchain))
        done;
        set_branch g blk
      end
    end
    else begin
      let is_cbr = bits land Program_info.f_cond_branch <> 0 in
      let is_cjump = bits land g.cjump_mask <> 0 in
      let is_branch = is_cbr || is_cjump in
      let mispred = if is_cbr then bits land b_mispred <> 0 else is_cjump in
      if g.any_cd then resolve g blk;
      (* Which machines this branch serializes on a flow of control. *)
      let serial =
        if not is_branch then 0
        else if mispred then k_serial lor k_serial_mispred
        else k_serial
      in
      let uses = Array.unsafe_get g.uses pc in
      let defs = Array.unsafe_get g.defs pc in
      let n_uses = Array.length uses and n_defs = Array.length defs in
      let load = bits land Program_info.f_mem_load <> 0 in
      let store = bits land Program_info.f_mem_store <> 0 in
      let addr = aux * nm in
      let bslot = blk * nm in
      let counted = g.counted in
      let reg_time = g.reg_time and mem = g.mem and live = g.live in
      for k = 0 to g.n_live - 1 do
        let m = Array.unsafe_get live k in
        let o = m * slot in
        let kn = Array.unsafe_get ms (o + s_knobs) in
        let ctrl = Array.unsafe_get ms (o + Array.unsafe_get ms (o + s_ctrl)) in
        (* True data dependences: max over register uses and the last
           write of a loaded address. *)
        let data = ref 0 in
        for u = 0 to n_uses - 1 do
          let time = Array.unsafe_get reg_time (Array.unsafe_get uses u + m) in
          if time > !data then data := time
        done;
        let data = !data in
        let data =
          if load then begin
            let time = Stdx.Mem_table.get mem (addr + m) in
            if time > data then time else data
          end
          else data
        in
        let t = 1 + if ctrl > data then ctrl else data in
        (* Serializing branches compete for the machine's flows of
           control: one such branch per flow per cycle. *)
        let serializing = kn land serial <> 0 in
        let flow_idx =
          if serializing && kn land k_flows <> 0 then
            best_flow (Array.unsafe_get g.flow_time m) 1 0
          else -1
        in
        let t =
          if flow_idx >= 0 then begin
            let avail =
              Array.unsafe_get (Array.unsafe_get g.flow_time m) flow_idx + 1
            in
            if avail > t then avail else t
          end
          else t
        in
        (* Finite fetch rate: the [i]-th counted instruction cannot
           issue before cycle [i/f + 1].  Before the window constraint
           so the window records true issue times. *)
        let t =
          if kn land k_fetch <> 0 then begin
            let fmin = (counted / (kn lsr fetch_shift)) + 1 in
            if fmin > t then fmin else t
          end
          else t
        in
        (* Finite scheduling window: an instruction cannot issue before
           the one [w] earlier has issued. *)
        let t =
          if kn land k_window <> 0 then begin
            let window = Array.unsafe_get g.window m in
            let wp = Array.unsafe_get ms (o + s_win_pos) in
            let prev = Array.unsafe_get window wp in
            let t = if prev > t then prev else t in
            Array.unsafe_set window wp t;
            let wp = wp + 1 in
            Array.unsafe_set ms (o + s_win_pos)
              (if wp = Array.length window then 0 else wp);
            t
          end
          else t
        in
        let completion =
          if kn land k_lat <> 0 then begin
            let lat =
              Array.unsafe_get g.lat_tab
                ((m * n_lat) + lat_index (Array.unsafe_get g.lat pc))
            in
            Array.unsafe_set ms (o + s_seq_cycles)
              (Array.unsafe_get ms (o + s_seq_cycles) + lat);
            t + lat - 1
          end
          else t
        in
        (* Under value prediction, a predictable instruction's results
           count as available immediately; the producer itself still
           occupies its cycles to validate the prediction, so max_time,
           stores and branch bookkeeping keep the real completion. *)
        let def_time =
          if kn land k_vp <> 0
             && Array.unsafe_get (Array.unsafe_get g.vp_table m) pc
          then 0
          else completion
        in
        for d = 0 to n_defs - 1 do
          Array.unsafe_set reg_time (Array.unsafe_get defs d + m) def_time
        done;
        if store then Stdx.Mem_table.set mem (addr + m) completion;
        if completion > Array.unsafe_get ms (o + s_max_time) then
          Array.unsafe_set ms (o + s_max_time) completion;
        let segs = kn land k_segments <> 0 in
        if segs then begin
          Array.unsafe_set ms (o + s_seg_len)
            (Array.unsafe_get ms (o + s_seg_len) + 1);
          if completion > Array.unsafe_get ms (o + s_seg_max) then
            Array.unsafe_set ms (o + s_seg_max) completion
        end;
        if is_branch then begin
          Array.unsafe_set g.b_time (bslot + m) completion;
          Array.unsafe_set g.b_mchain (bslot + m)
            (if mispred then completion
             else Array.unsafe_get ms (o + s_r_mchain));
          Array.unsafe_set ms (o + s_last_branch) completion;
          if flow_idx >= 0 then
            Array.unsafe_set (Array.unsafe_get g.flow_time m) flow_idx
              completion;
          if mispred then begin
            Array.unsafe_set ms (o + s_last_mispred) completion;
            if segs then begin
              Stdx.Vec.push
                (Array.unsafe_get g.segments m)
                { length = Array.unsafe_get ms (o + s_seg_len);
                  cycles =
                    max 1
                      (Array.unsafe_get ms (o + s_seg_max)
                      - Array.unsafe_get ms (o + s_seg_base)) };
              Array.unsafe_set ms (o + s_seg_len) 0;
              Array.unsafe_set ms (o + s_seg_base) completion;
              Array.unsafe_set ms (o + s_seg_max) completion
            end
          end
        end
      done;
      g.counted <- counted + 1;
      if is_cbr then begin
        g.dyn_branches <- g.dyn_branches + 1;
        if mispred then g.cbr_mispred <- g.cbr_mispred + 1
      end;
      if is_branch then begin
        set_branch g blk;
        if mispred then g.mispredicts <- g.mispredicts + 1
      end
    end

  (* Stop every live machine whose budget the shared count has reached,
     freezing what it shares with the rest of the group. *)
  let cut_machines g ~pc =
    let kept = ref 0 and next = ref max_int in
    for k = 0 to g.n_live - 1 do
      let m = g.live.(k) in
      let b = g.budget.(m) in
      if g.counted >= b then
        g.cut.(m) <-
          Some
            ( Pipeline_error.fault ~pc ~step:g.counted
                ~detail:(Printf.sprintf "analysis step budget %d" b)
                Pipeline_error.Step_budget,
              (* the cut entry itself is dropped *)
              counts g ~entries:(g.seen - 1) )
      else begin
        g.live.(!kept) <- m;
        incr kept;
        if b < !next then next := b
      end
    done;
    g.n_live <- !kept;
    g.next_cut <- !next

  (* The budget guard wraps the real per-entry transition: once a
     machine's configured number of counted instructions has been
     analyzed, it drops the remaining trace (graceful degradation, not
     an abort) and its result will carry a [Step_budget] truncation tag.
     [next_cut] is [max_int] when no machine has a budget, so the common
     case is one compare.  The guard runs before [bits] is consulted, so
     entries decoded past a budget cut (including invalid-pc markers)
     are dropped unapplied. *)
  let step_bits g ~pc ~aux ~bits =
    g.seen <- g.seen + 1;
    if g.n_live > 0 then begin
      if g.counted >= g.next_cut then cut_machines g ~pc;
      if g.n_live > 0 then do_step g ~pc ~aux ~bits
    end

  (* Classify entries [0 .. len - 1] into [bits] with the group's
     masks and predictor, in trace order.  Reads no mutable field, so
     it may run while another domain applies to [g]. *)
  let decode g ~(pcs : int array) ~(auxs : int array) ~(bits : int array)
      ~len =
    let n_code = g.n_code and flags = g.flags in
    let removed_mask = g.removed_mask and predict = g.predict in
    for i = 0 to len - 1 do
      Array.unsafe_set bits i
        (classify ~n_code ~flags ~removed_mask ~predict
           ~pc:(Array.unsafe_get pcs i) ~aux:(Array.unsafe_get auxs i))
    done

  let apply g ~(pcs : int array) ~(auxs : int array) ~(bits : int array)
      ~len =
    for i = 0 to len - 1 do
      step_bits g ~pc:(Array.unsafe_get pcs i) ~aux:(Array.unsafe_get auxs i)
        ~bits:(Array.unsafe_get bits i)
    done

  let finish_group ?(completeness = Pipeline_error.Complete) g =
    List.init g.nm (fun m ->
        let o = m * slot in
        let kn = g.ms.(o + s_knobs) in
        let c, flushed =
          match g.cut.(m) with
          | Some (_, c) -> (c, g.seen - c.n_entries - 1)
          | None -> (counts g ~entries:g.seen, 0)
        in
        let counted = c.n_counted in
        let p = g.probes.(m) in
        if p.Obs.Probe.a_enabled then begin
          Obs.Metrics.add p.Obs.Probe.a_entries c.n_entries;
          Obs.Metrics.add p.Obs.Probe.a_counted counted;
          Obs.Metrics.add p.Obs.Probe.a_flushed flushed;
          Obs.Metrics.add p.Obs.Probe.a_pred_misses c.n_cbr_mispred;
          Obs.Metrics.add p.Obs.Probe.a_pred_hits
            (c.n_dyn_branches - c.n_cbr_mispred);
          Obs.Metrics.add p.Obs.Probe.a_mispredict_flushes c.n_mispredicts;
          Obs.Metrics.set_max p.Obs.Probe.a_frame_hw c.n_frame_hw
        end;
        let seg_len = g.ms.(o + s_seg_len) in
        if kn land k_segments <> 0 && seg_len > 0 then begin
          Stdx.Vec.push g.segments.(m)
            { length = seg_len;
              cycles = max 1 (g.ms.(o + s_seg_max) - g.ms.(o + s_seg_base)) };
          g.ms.(o + s_seg_len) <- 0
        end;
        let max_time = g.ms.(o + s_max_time) in
        (* Under unit latency the sequential time is the count. *)
        let seq_cycles =
          if kn land k_lat <> 0 then g.ms.(o + s_seq_cycles) else counted
        in
        { machine = g.cfgs.(m).machine.name;
          counted;
          seq_cycles;
          cycles = max_time;
          parallelism =
            (if max_time = 0 then 1.
             else float_of_int seq_cycles /. float_of_int max_time);
          dyn_branches = c.n_dyn_branches;
          mispredicts = c.n_mispredicts;
          segments = Stdx.Vec.to_array g.segments.(m);
          (* A budget cut happens strictly before the execution's own
             end, so it wins over an execution-level truncation tag. *)
          completeness =
            (match g.cut.(m) with
            | Some (f, _) -> Pipeline_error.Truncated f
            | None -> completeness) })

  let finish ?completeness g =
    match finish_group ?completeness g with
    | [ r ] -> r
    | _ -> invalid_arg "Analyze.State.finish: a group of several configs"
end

(* The fan-out, chunk-major: each decode group classifies a chunk once,
   then its one state advances every machine of the group over the
   whole chunk, entry by entry.  A stateful predictor (a group of its
   own) still classifies its entries in trace order, so results equal
   one single-config state per config.  The groups take turns on one
   [bits] buffer of [chunk] entries, the longest chunk it applies. *)
type fanout = {
  n_configs : int;
  groups : (int array * State.t) array;  (* config positions, state *)
  bits : int array;
}

let fanout ~chunk configs info =
  let cfgs = Array.of_list configs in
  { n_configs = Array.length cfgs;
    groups =
      Array.of_list
        (List.map
           (fun positions ->
             ( Array.of_list positions,
               State.group (List.map (Array.get cfgs) positions) info ))
           (decode_groups configs));
    bits = Array.make chunk 0 }

let apply_chunk fo ~pcs ~auxs ~len =
  let bits = fo.bits in
  Array.iter
    (fun (_, g) ->
      State.decode g ~pcs ~auxs ~bits ~len;
      State.apply g ~pcs ~auxs ~bits ~len)
    fo.groups

let finish_all fo ?completeness () =
  let out = Array.make fo.n_configs None in
  Array.iter
    (fun (positions, g) ->
      List.iteri
        (fun k r -> out.(positions.(k)) <- Some r)
        (State.finish_group ?completeness g))
    fo.groups;
  Array.to_list (Array.map Option.get out)

let run_many ?completeness configs info trace =
  let fo = fanout ~chunk:Vm.Trace.chunk_size configs info in
  Vm.Trace.iter_chunks (apply_chunk fo) trace;
  finish_all fo ?completeness ()

(* The live-VM form buffers [chunk] entries in two reused arrays and
   applies them when full and at close. *)
let sink_many ?(chunk = Vm.Trace.chunk_size) configs info =
  let fo = fanout ~chunk configs info in
  let pcs = Array.make chunk 0 in
  let auxs = Array.make chunk 0 in
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
    if i + 1 = chunk then flush ()
  in
  (Vm.Trace.sink ~on_close:flush on_entry, finish_all fo)

let run ?completeness (cfg : config) (info : Program_info.t) trace =
  match run_many ?completeness [ cfg ] info trace with
  | [ r ] -> r
  | _ -> assert false
