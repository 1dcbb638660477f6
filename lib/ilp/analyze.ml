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
   is the one per-entry transition; it advances every machine of the
   group at once (DESIGN.md section 9).

   The machines of a group differ only in their constraints and their
   times.  The flag tests, the block-sequence and frame-stack upkeep,
   the uses/defs and page lookups and the control-dependence scan are
   done once per entry for all of them.  Per-machine times are
   interleaved at stride [nm]: [reg*nm + m] in [reg_time], [addr*nm + m]
   in [mem], [blk*nm + m] in [b_time]/[b_mchain], [field*nm + m] in [w].

   A timed entry runs column by column, each step one loop over the
   group: [row] gets every machine's issue time (control word, uses,
   load, +1), then each def, the store, the max time and the branch
   bookkeeping are written from it.  A constraint only some machines
   carry is a pass over the index array of those machines alone.  A
   budget cut takes the machine's result and drops it from those
   arrays; the group-wide loops go on writing its columns, which
   nothing reads again.  The loop allocates nothing. *)
module State = struct
  (* Rows of [w]: field [f] of machine [m] is [w.(f * nm + m)].  Each
     time's row precedes its mchain's (row 6 for [f_ctx_time]), so a
     pair of rows moves as one copy of [2 * nm] words. *)
  let f_zero = 0  (* always 0: ORACLE's control constraint *)
  let f_last_branch = 1
  let f_last_mispred = 2
  let f_r_time = 3  (* resolved control dependence *)
  let f_r_mchain = 4
  let f_ctx_time = 5  (* the call site's, for this activation *)
  let f_max_time = 7
  let f_seq_cycles = 8  (* non-unit latency only; else = counted *)
  let f_win_pos = 9
  let f_flow = 10  (* the flow this entry's branch takes *)
  let f_seg_len = 11
  let f_seg_base = 12
  let f_seg_max = 13
  let n_fields = 14

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
       number, then the machines' ctx_time and ctx_mchain rows (paper
       §4.4.1). *)
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
    w : int array;  (* [n_fields] rows of per-machine scalars *)
    row : int array;  (* the entry's issue, then completion, times *)
    ctrl : int array;  (* the word of [w] each control constraint reads *)
    (* The live machines carrying each optional constraint. *)
    mutable flows_all : int array;  (* every branch takes a flow: BASE, CD *)
    mutable flows_mispred : int array;  (* mispredicted ones do: SP, SP-CD *)
    mutable fetch_ix : int array;
    mutable window_ix : int array;
    mutable lat_ix : int array;
    mutable vp_ix : int array;
    mutable seg_ix : int array;
    (* Their per-machine tables. *)
    fetch : int array;  (* instructions fetched per cycle *)
    flow_time : int array array;
    window : int array array;
    lat_tab : int array;  (* latency at [m * n_lat + lat_index] *)
    vp_table : bool array array;  (* per-pc predictability *)
    segments : segment Stdx.Vec.t array;
    budget : int array;  (* step budget, [max_int] when unbounded *)
    (* Live machines, in group order; a budget cut removes one.
       [next_cut] is the smallest budget among them. *)
    live : int array;
    mutable n_live : int;
    mutable next_cut : int;
    (* Resource guard: once a machine's step budget is hit, it drops
       the remaining entries; its result, tagged Truncated, and the
       counts it shared are taken at the cut. *)
    cut : (result * counts) option array;
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
    (* The positions of the machines satisfying [p], in group order. *)
    let having p =
      Array.of_list (List.filter (fun m -> p m cfgs.(m)) (List.init nm Fun.id))
    in
    let flows_on controls =
      having (fun _ (c : config) ->
          c.machine.Machine.flows <> None
          && List.mem c.machine.Machine.control controls)
    in
    let any_cd =
      Array.exists
        (fun (c : config) ->
          List.mem c.machine.Machine.control Machine.[ Control_dep; Spec_cd ])
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
      w = Array.make (n_fields * nm) 0;
      row = Array.make nm 0;
      ctrl =
        Array.mapi
          (fun m (c : config) ->
            (nm
            * match c.machine.Machine.control with
              | Machine.Oracle -> f_zero
              | Machine.Spec_cd -> f_r_mchain
              | Machine.Speculative -> f_last_mispred
              | Machine.Control_dep -> f_r_time
              | Machine.Blocking -> f_last_branch)
            + m)
          cfgs;
      flows_all = flows_on Machine.[ Blocking; Control_dep ];
      flows_mispred = flows_on Machine.[ Speculative; Spec_cd ];
      fetch_ix =
        having (fun _ c -> Option.value c.machine.Machine.fetch ~default:0 > 0);
      window_ix = having (fun _ c -> c.machine.Machine.window <> None);
      lat_ix =
        having (fun _ c -> Option.is_some (Machine.latency_fn c.machine));
      vp_ix = having (fun m _ -> Array.length vp_table.(m) > 0);
      seg_ix = having (fun _ c -> c.collect_segments);
      fetch = per (fun c -> Option.value c.machine.Machine.fetch ~default:0);
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
      lat_tab =
        Array.concat
          (List.map
             (fun (c : config) ->
               match Machine.latency_fn c.machine with
               | Some f -> Array.of_list (List.map f lat_classes)
               | None -> Array.make n_lat 1)
             configs);
      vp_table;
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

  (* [n] words from [src] at [so] to [dst] at [d]: a loop, since a
     group's rows are a few words and [Array.blit] is a C call. *)
  let[@inline] copy (src : int array) so (dst : int array) d n =
    for i = 0 to n - 1 do
      Array.unsafe_set dst (d + i) (Array.unsafe_get src (so + i))
    done

  (* [row.(m) <- max row.(m) src.(so + m)] for the group's [n]. *)
  let[@inline] max_into (src : int array) so (row : int array) n =
    for m = 0 to n - 1 do
      let time = Array.unsafe_get src (so + m) in
      if time > Array.unsafe_get row m then Array.unsafe_set row m time
    done

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
    let src = g.r_src and nm = g.nm and w = g.w in
    if src >= 0 then begin
      copy g.b_time (src * nm) w (f_r_time * nm) nm;
      copy g.b_mchain (src * nm) w (f_r_mchain * nm) nm
    end
    else if src = -1 then copy w (f_ctx_time * nm) w (f_r_time * nm) (2 * nm)
    else Array.fill w (f_r_time * nm) (2 * nm) 0;
    g.r_blk <- blk

  let[@inline] resolve g blk = if g.r_blk <> blk then resolve_miss g blk

  (* Record the branch instance terminating [blk] (the caller writes
     its per-machine times): [resolve]'s inputs changed, so its cached
     result is stale. *)
  let[@inline] set_branch g blk =
    Array.unsafe_set g.cand_seq blk g.cur_block_seq;
    Array.unsafe_set g.b_proc blk g.cur_entry;
    g.r_blk <- -1

  let call g blk =
    if g.any_cd then resolve g blk;
    let nm = g.nm and w = g.w in
    let base = frame_words nm * g.stack_len in
    if base >= Array.length g.stack then begin
      let old = g.stack in
      let bigger = Array.make (2 * Array.length old) 0 in
      Array.blit old 0 bigger 0 (Array.length old);
      g.stack <- bigger
    end;
    let s = g.stack in
    Array.unsafe_set s base g.cur_entry;
    Array.unsafe_set s (base + 1) g.ctx_seq;
    copy w (f_ctx_time * nm) s (base + 2) (2 * nm);
    (* The callee's context is the call site's resolution (all zero
       when no machine resolves control dependence). *)
    copy w (f_r_time * nm) w (f_ctx_time * nm) (2 * nm);
    g.stack_len <- g.stack_len + 1;
    if g.stack_len > g.frame_hw then g.frame_hw <- g.stack_len;
    g.cur_entry <- g.seq_counter + 1;
    g.ctx_seq <- (if g.any_cd then g.r_seq else 0);
    g.r_blk <- -1

  let return g =
    g.r_blk <- -1;
    let nm = g.nm in
    if g.stack_len > 0 then begin
      g.stack_len <- g.stack_len - 1;
      let base = frame_words nm * g.stack_len in
      let s = g.stack in
      g.cur_entry <- Array.unsafe_get s base;
      g.ctx_seq <- Array.unsafe_get s (base + 1);
      copy s (base + 2) g.w (f_ctx_time * nm) (2 * nm)
    end
    else begin
      g.cur_entry <- 1;
      g.ctx_seq <- 0;
      Array.fill g.w (f_ctx_time * nm) (2 * nm) 0
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

  (* The flow of control free earliest (lowest index on ties). *)
  let rec best_flow (flow_time : int array) (k : int) (b : int) =
    if k >= Array.length flow_time then b
    else
      best_flow flow_time (k + 1)
        (if Array.unsafe_get flow_time k < Array.unsafe_get flow_time b
         then k
         else b)

  (* Serializing branches compete for the machine's flows of control:
     one such branch per flow per cycle.  Each machine of [ix] takes its
     flow free earliest, issuing after that flow's last branch, and
     [hold_flows] marks the flow busy until the branch completes. *)
  let[@inline] take_flows g (ix : int array) =
    let o = f_flow * g.nm and row = g.row in
    for k = 0 to Array.length ix - 1 do
      let m = Array.unsafe_get ix k in
      let flows = Array.unsafe_get g.flow_time m in
      let f = best_flow flows 1 0 in
      Array.unsafe_set g.w (o + m) f;
      let avail = Array.unsafe_get flows f + 1 in
      if avail > Array.unsafe_get row m then Array.unsafe_set row m avail
    done

  let[@inline] hold_flows g (ix : int array) =
    let o = f_flow * g.nm in
    for k = 0 to Array.length ix - 1 do
      let m = Array.unsafe_get ix k in
      Array.unsafe_set
        (Array.unsafe_get g.flow_time m)
        (Array.unsafe_get g.w (o + m))
        (Array.unsafe_get g.row m)
    done

  (* Close machine [m]'s inter-misprediction segment. *)
  let push_segment g m =
    let at f = (f * g.nm) + m in
    Stdx.Vec.push g.segments.(m)
      { length = g.w.(at f_seg_len);
        cycles = max 1 (g.w.(at f_seg_max) - g.w.(at f_seg_base)) };
    g.w.(at f_seg_len) <- 0

  (* A counted entry, on every machine: [row] becomes its issue times,
     then its completion times, which every write reads. *)
  let[@inline] timed g ~pc ~aux ~bits blk =
    let is_cbr = bits land Program_info.f_cond_branch <> 0 in
    let is_cjump = bits land g.cjump_mask <> 0 in
    let is_branch = is_cbr || is_cjump in
    let mispred = if is_cbr then bits land b_mispred <> 0 else is_cjump in
    if g.any_cd then resolve g blk;
    let nm = g.nm and w = g.w and row = g.row and reg_time = g.reg_time in
    (* Issue: 1 + max (control word, register uses, the last write of a
       loaded address). *)
    let ctrl = g.ctrl in
    for m = 0 to nm - 1 do
      Array.unsafe_set row m (Array.unsafe_get w (Array.unsafe_get ctrl m))
    done;
    let uses = Array.unsafe_get g.uses pc in
    for u = 0 to Array.length uses - 1 do
      max_into reg_time (Array.unsafe_get uses u) row nm
    done;
    let addr = aux * nm in
    if bits land Program_info.f_mem_load <> 0 then
      Stdx.Mem_table.max_run g.mem addr row nm;
    for m = 0 to nm - 1 do
      Array.unsafe_set row m (Array.unsafe_get row m + 1)
    done;
    if is_branch then begin
      take_flows g g.flows_all;
      if mispred then take_flows g g.flows_mispred
    end;
    (* Finite fetch rate: the [i]-th counted instruction cannot issue
       before cycle [i/f + 1].  Before the window constraint so the
       window records true issue times. *)
    let ix = g.fetch_ix and counted = g.counted in
    for k = 0 to Array.length ix - 1 do
      let m = Array.unsafe_get ix k in
      let fmin = (counted / Array.unsafe_get g.fetch m) + 1 in
      if fmin > Array.unsafe_get row m then Array.unsafe_set row m fmin
    done;
    (* Finite scheduling window: an instruction cannot issue before the
       one [w] earlier has issued. *)
    let ix = g.window_ix in
    for k = 0 to Array.length ix - 1 do
      let m = Array.unsafe_get ix k in
      let window = Array.unsafe_get g.window m in
      let o = (f_win_pos * nm) + m in
      let wp = Array.unsafe_get w o in
      let prev = Array.unsafe_get window wp in
      if prev > Array.unsafe_get row m then Array.unsafe_set row m prev;
      Array.unsafe_set window wp (Array.unsafe_get row m);
      Array.unsafe_set w o (if wp + 1 = Array.length window then 0 else wp + 1)
    done;
    (* Non-unit latency: issue becomes completion. *)
    let ix = g.lat_ix in
    if Array.length ix > 0 then begin
      let l = lat_index (Array.unsafe_get g.lat pc) in
      for k = 0 to Array.length ix - 1 do
        let m = Array.unsafe_get ix k in
        let lat = Array.unsafe_get g.lat_tab ((m * n_lat) + l) in
        Array.unsafe_set row m (Array.unsafe_get row m + lat - 1);
        let o = (f_seq_cycles * nm) + m in
        Array.unsafe_set w o (Array.unsafe_get w o + lat)
      done
    end;
    let defs = Array.unsafe_get g.defs pc in
    for d = 0 to Array.length defs - 1 do
      copy row 0 reg_time (Array.unsafe_get defs d) nm
    done;
    (* Under value prediction, a predictable instruction's results
       count as available immediately; the producer itself still
       occupies its cycles to validate the prediction, so max_time,
       stores and branch bookkeeping keep the real completion. *)
    let ix = g.vp_ix in
    for k = 0 to Array.length ix - 1 do
      let m = Array.unsafe_get ix k in
      if Array.unsafe_get (Array.unsafe_get g.vp_table m) pc then
        for d = 0 to Array.length defs - 1 do
          Array.unsafe_set reg_time (Array.unsafe_get defs d + m) 0
        done
    done;
    if bits land Program_info.f_mem_store <> 0 then
      Stdx.Mem_table.set_run g.mem addr row nm;
    let o = f_max_time * nm in
    for m = 0 to nm - 1 do
      let c = Array.unsafe_get row m in
      if c > Array.unsafe_get w (o + m) then Array.unsafe_set w (o + m) c
    done;
    if is_branch then begin
      let bslot = blk * nm in
      copy row 0 g.b_time bslot nm;
      copy row 0 w (f_last_branch * nm) nm;
      if mispred then begin
        copy row 0 g.b_mchain bslot nm;
        copy row 0 w (f_last_mispred * nm) nm
      end
      else copy w (f_r_mchain * nm) g.b_mchain bslot nm;
      hold_flows g g.flows_all;
      if mispred then hold_flows g g.flows_mispred;
      set_branch g blk;
      if mispred then g.mispredicts <- g.mispredicts + 1
    end;
    let ix = g.seg_ix in
    for k = 0 to Array.length ix - 1 do
      let m = Array.unsafe_get ix k in
      let c = Array.unsafe_get row m in
      let len = (f_seg_len * nm) + m and max = (f_seg_max * nm) + m in
      Array.unsafe_set w len (Array.unsafe_get w len + 1);
      if c > Array.unsafe_get w max then Array.unsafe_set w max c;
      if is_branch && mispred then begin
        push_segment g m;
        Array.unsafe_set w ((f_seg_base * nm) + m) c;
        Array.unsafe_set w max c
      end
    done;
    g.counted <- counted + 1;
    if is_cbr then begin
      g.dyn_branches <- g.dyn_branches + 1;
      if mispred then g.cbr_mispred <- g.cbr_mispred + 1
    end

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
    if bits land g.removed_mask = 0 then timed g ~pc ~aux ~bits blk
    else if bits land Program_info.f_cond_branch <> 0 && g.any_cd then begin
      (* A removed loop branch passes its own control dependence through
         to its dependents (unrolling an inner loop leaves its body
         dependent on the enclosing branch). *)
      resolve g blk;
      let nm = g.nm in
      copy g.w (f_r_time * nm) g.b_time (blk * nm) nm;
      copy g.w (f_r_mchain * nm) g.b_mchain (blk * nm) nm;
      set_branch g blk
    end

  (* Machine [m]'s result from its columns and the counts [c], closing
     its trailing inter-misprediction segment. *)
  let result g m (c : counts) completeness =
    let cfg = g.cfgs.(m) and at f = (f * g.nm) + m in
    if cfg.collect_segments && g.w.(at f_seg_len) > 0 then push_segment g m;
    let max_time = g.w.(at f_max_time) in
    (* Under unit latency the sequential time is the count. *)
    let seq_cycles =
      if Option.is_some (Machine.latency_fn cfg.machine) then
        g.w.(at f_seq_cycles)
      else c.n_counted
    in
    { machine = cfg.machine.name;
      counted = c.n_counted;
      seq_cycles;
      cycles = max_time;
      parallelism =
        (if max_time = 0 then 1.
         else float_of_int seq_cycles /. float_of_int max_time);
      dyn_branches = c.n_dyn_branches;
      mispredicts = c.n_mispredicts;
      segments = Stdx.Vec.to_array g.segments.(m);
      completeness }

  (* Stop every live machine whose budget the shared count has reached,
     taking its result and the counts it shares with the group. *)
  let cut_machines g ~pc =
    let kept = ref 0 and next = ref max_int in
    for k = 0 to g.n_live - 1 do
      let m = g.live.(k) in
      let b = g.budget.(m) in
      if g.counted >= b then begin
        let fault =
          Pipeline_error.fault ~pc ~step:g.counted
            ~detail:(Printf.sprintf "analysis step budget %d" b)
            Pipeline_error.Step_budget
        in
        (* the cut entry itself is dropped *)
        let c = counts g ~entries:(g.seen - 1) in
        g.cut.(m) <- Some (result g m c (Pipeline_error.Truncated fault), c)
      end
      else begin
        g.live.(!kept) <- m;
        incr kept;
        if b < !next then next := b
      end
    done;
    g.n_live <- !kept;
    g.next_cut <- !next;
    (* No optional pass visits a cut machine again. *)
    let live ix =
      Array.of_seq (Seq.filter (fun m -> g.cut.(m) = None) (Array.to_seq ix))
    in
    g.flows_all <- live g.flows_all;
    g.flows_mispred <- live g.flows_mispred;
    g.fetch_ix <- live g.fetch_ix;
    g.window_ix <- live g.window_ix;
    g.lat_ix <- live g.lat_ix;
    g.vp_ix <- live g.vp_ix;
    g.seg_ix <- live g.seg_ix

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

  (* A budget cut happens strictly before the execution's own end, so
     its tag wins over an execution-level truncation tag. *)
  let finish_group ?(completeness = Pipeline_error.Complete) g =
    List.init g.nm (fun m ->
        let r, c, flushed =
          match g.cut.(m) with
          | Some (r, c) -> (r, c, g.seen - c.n_entries - 1)
          | None ->
            let c = counts g ~entries:g.seen in
            (result g m c completeness, c, 0)
        in
        let p = g.probes.(m) in
        if p.Obs.Probe.a_enabled then begin
          Obs.Metrics.add p.Obs.Probe.a_entries c.n_entries;
          Obs.Metrics.add p.Obs.Probe.a_counted c.n_counted;
          Obs.Metrics.add p.Obs.Probe.a_flushed flushed;
          Obs.Metrics.add p.Obs.Probe.a_pred_misses c.n_cbr_mispred;
          Obs.Metrics.add p.Obs.Probe.a_pred_hits
            (c.n_dyn_branches - c.n_cbr_mispred);
          Obs.Metrics.add p.Obs.Probe.a_mispredict_flushes c.n_mispredicts;
          Obs.Metrics.set_max p.Obs.Probe.a_frame_hw c.n_frame_hw
        end;
        r)

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
