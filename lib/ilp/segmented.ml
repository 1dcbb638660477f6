(* Intra-trace parallel analysis: decode fixed-stride trace segments
   concurrently, replay them sequentially.

   The analyzer's per-entry transition splits into a state-free
   classification (Analyze.decoder: static flags + predicted branch
   direction, pure in (pc, aux) for stateless predictors) and a
   state-carrying apply (Analyze.State.step_bits).  Segmented mode
   decodes whole segments on pool domains and then, per machine
   config, applies the decoded entries in strict trace order — the
   apply sequence is literally the sequential run's sequence, so
   bit-identity with the sequential pass holds by construction, for
   every constraint in the machine lattice (window, flows, fetch,
   value prediction), every budget cut, and every truncated trace.

   Parallelism comes from two places: segment decodes run concurrently
   with each other (and, in streaming mode, with VM retirement), and
   the per-config stitchers fan out across domains — the dominant win
   for the standard multi-machine sweeps, where seven states replay
   the same decoded stream. *)

type outcome = {
  results : Analyze.result list;
  segments : int;  (** segments decoded *)
  steps : int;  (** segment stride used *)
}

(* Oracle-guided granularity, the cheap static form: segments sized so
   each domain sees a few per stitch round (amortizing task overhead)
   but floored high enough that the per-segment bits array and queue
   traffic stay negligible against the decode itself.  The stitch-wait
   histogram (analyze_segment_stitch_wait_ns) is the measurement
   instrument for tuning these constants. *)
let auto_steps ~trace_len ~jobs =
  let jobs = max 1 jobs in
  let target = trace_len / (4 * jobs) in
  max 1 (min 262_144 (max 16_384 target))

type decoded = {
  d_seg : Vm.Trace.seg;
  d_bits : int array;
}

(* A segment either decoded inline (no pool) or pending on a pool
   domain. *)
type slot =
  | Now of decoded
  | Later of decoded Stdx.Pool.future

type t = {
  configs : Analyze.config array;
  info : Program_info.t;
  pool : Stdx.Pool.t option;
  decode : pc:int -> aux:int -> int;
  obs : Obs.Ctx.t;
  span_base : int;
  workload : string;
  check : unit -> unit;
  steps : int;
  mutable slots : slot list;  (* newest first *)
  mutable n_segments : int;
  (* Metrics, registered only on an enabled context. *)
  m_segments : Obs.Metrics.counter option;
  m_wait : Obs.Metrics.histogram option;
}

let wait_buckets =
  [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000;
     1_000_000_000 |]

let create ?pool ?(obs = Obs.Ctx.disabled) ?(span_index_base = 0)
    ?(workload = "") ?(check = fun () -> ()) ~segment_steps configs info =
  if segment_steps < 1 then
    invalid_arg "Segmented.create: segment_steps must be >= 1";
  if not (Analyze.compatible configs) then
    invalid_arg
      "Segmented.create: configs must share inline/unroll and one \
       stateless predictor";
  let enabled = Obs.Ctx.enabled obs in
  let reg = Obs.Ctx.metrics obs in
  { configs = Array.of_list configs;
    info;
    pool;
    decode = Analyze.decoder (List.hd configs) info;
    obs;
    span_base = span_index_base;
    workload;
    check;
    steps = segment_steps;
    slots = [];
    n_segments = 0;
    m_segments =
      (if enabled then
         Some
           (Obs.Metrics.counter reg
              ~help:"trace segments decoded for segmented analysis"
              "analyze_segments_total")
       else None);
    m_wait =
      (if enabled then
         Some
           (Obs.Metrics.histogram reg
              ~help:"stitcher wait for a segment's decode to finish"
              ~buckets:wait_buckets "analyze_segment_stitch_wait_ns")
       else None) }

let decode_seg t (seg : Vm.Trace.seg) =
  t.check ();
  let buf =
    Obs.Ctx.task_buffer t.obs
      ~index:(t.span_base + seg.Vm.Trace.seg_index)
      ~label:
        (Printf.sprintf "%s/segment-%d" t.workload seg.Vm.Trace.seg_index)
  in
  Obs.Span.with_span buf ~workload:t.workload "segment-decode" (fun () ->
      let len = seg.Vm.Trace.seg_len in
      let pcs = seg.Vm.Trace.seg_pcs in
      let auxs = seg.Vm.Trace.seg_auxs in
      let bits = Array.make (max len 1) 0 in
      let decode = t.decode in
      for i = 0 to len - 1 do
        Array.unsafe_set bits i
          (decode ~pc:(Array.unsafe_get pcs i)
             ~aux:(Array.unsafe_get auxs i))
      done;
      { d_seg = seg; d_bits = bits })

(* Feed one segment in: decode it on the pool (concurrently with the
   producer and with other segments) or inline when there is none. *)
let push t seg =
  let slot =
    match t.pool with
    | Some pool -> Later (Stdx.Pool.async pool (fun () -> decode_seg t seg))
    | None -> Now (decode_seg t seg)
  in
  t.slots <- slot :: t.slots;
  t.n_segments <- t.n_segments + 1;
  match t.m_segments with None -> () | Some c -> Obs.Metrics.incr c

let sink_of t = Vm.Trace.segmenting_sink ~steps:t.steps ~emit:(push t)

(* Replay every decoded segment, in index order, through one config's
   state.  This is the sequential analysis loop verbatim — only the
   classification was precomputed. *)
let stitch_one t slots ?completeness ci =
  t.check ();
  let cfg = t.configs.(ci) in
  let st = Analyze.State.create cfg t.info in
  let buf =
    Obs.Ctx.task_buffer t.obs
      ~index:(t.span_base + t.n_segments + ci)
      ~label:(Printf.sprintf "%s/stitch-%d" t.workload ci)
  in
  Obs.Span.with_span buf ~workload:t.workload
    ~machine:cfg.Analyze.machine.Machine.name "segment-stitch" (fun () ->
      Array.iter
        (fun slot ->
          t.check ();
          let d =
            match slot with
            | Now d -> d
            | Later fut -> (
              match t.pool with
              | None -> assert false
              | Some pool -> (
                match t.m_wait with
                | None -> Stdx.Pool.await pool fut
                | Some h ->
                  let t0 = Obs.Span.now_ns () in
                  let d = Stdx.Pool.await pool fut in
                  Obs.Metrics.observe h
                    (Int64.to_int (Int64.sub (Obs.Span.now_ns ()) t0));
                  d))
          in
          let seg = d.d_seg in
          let len = seg.Vm.Trace.seg_len in
          let pcs = seg.Vm.Trace.seg_pcs in
          let auxs = seg.Vm.Trace.seg_auxs in
          let bits = d.d_bits in
          for i = 0 to len - 1 do
            Analyze.State.step_bits st
              ~pc:(Array.unsafe_get pcs i)
              ~aux:(Array.unsafe_get auxs i)
              ~bits:(Array.unsafe_get bits i)
          done)
        slots;
      Analyze.State.finish ?completeness st)

let finish t ?completeness () =
  let slots = Array.of_list (List.rev t.slots) in
  let n = Array.length t.configs in
  let indices = Array.init n Fun.id in
  let results =
    match t.pool with
    | Some pool when n > 1 ->
      (* Per-config stitchers fan out across domains; each awaits the
         shared decode futures as it reaches them (helping with queued
         decodes while it waits, so narrow pools cannot deadlock). *)
      Stdx.Pool.map_array pool (stitch_one t slots ?completeness) indices
    | _ -> Array.map (stitch_one t slots ?completeness) indices
  in
  { results = Array.to_list results;
    segments = t.n_segments;
    steps = t.steps }

let sink ?pool ?obs ?span_index_base ?workload ?check ~segment_steps
    configs info =
  let t =
    create ?pool ?obs ?span_index_base ?workload ?check ~segment_steps
      configs info
  in
  (sink_of t, fun ?completeness () -> finish t ?completeness ())

let run ?pool ?obs ?span_index_base ?workload ?check ?completeness
    ~segment_steps configs info trace =
  let t =
    create ?pool ?obs ?span_index_base ?workload ?check ~segment_steps
      configs info
  in
  Array.iter (push t) (Vm.Trace.segments ~steps:t.steps trace);
  finish t ?completeness ()
