(* Intra-trace parallel analysis as a two-segment pipeline: the
   producer (the domain feeding the sink, normally the VM's) classifies
   each full segment once per decode group, and each stitch sub-group's
   lockstep state applies it as one pool task while the producer fills
   the next.  Before handing segment k + 1 off, the producer awaits
   segment k's tasks, so at most two segments are live and each state
   applies the entries in trace order with the sequential
   classification: bit-identity with the sequential pass holds by
   construction (DESIGN.md §15).  No task awaits another. *)

type outcome = {
  results : Analyze.result list;
  segments : int;  (** segments applied *)
}

(* The pipeline's grain: one trace chunk, whatever the trace or the
   pool.  Two segments are live at once, so a longer stride buys only
   fewer hand-offs, and costs memory and the overlap lost while the
   pipeline fills and drains (EXPERIMENTS.md, "Pipelined replay"). *)
let auto_steps ~trace_len:_ ~jobs:_ = Vm.Trace.chunk_size

(* The stitch partition: the configs' positions cut into contiguous
   sub-groups of at most four, as even as possible — 7 is 3 + 4, 8 is
   4 + 4, 9 is 3 + 3 + 3.  Fixed by the count alone, so results, span
   skeleton and task count are the same at every pool width; two or
   more sub-groups keep a two-domain pool applying on both domains,
   while each still shares one state's per-entry work. *)
let subgroups n =
  let k = (n + 3) / 4 in
  List.init k (fun j ->
      let lo = j * n / k and hi = (j + 1) * n / k in
      List.init (hi - lo) (fun i -> lo + i))

(* One stitch sub-group. *)
type sub = {
  group : int;  (* its decode group, whose classification it applies *)
  positions : int list;  (* its configs' positions *)
  state : Analyze.State.t;
  machines : string;  (* span label *)
}

(* One segment's storage: its entries and their classification per
   decode group. *)
type buffer = {
  pcs : int array;
  auxs : int array;
  bits : int array array;
}

type t = {
  pool : Stdx.Pool.t option;
  n_configs : int;
  classifiers : Analyze.State.t array;
  (* Per decode group, its first sub-group's state: only the producer
     decodes through it, reading the group's masks and predictor while
     a pool task may be applying to its times. *)
  subs : sub array;  (* every decode group's, in order *)
  steps : int;
  bufs : buffer array;  (* segment k lives in [bufs.(k land 1)] *)
  mutable cur_pcs : int array;
  mutable cur_auxs : int array;
  mutable len : int;  (* entries in the segment being filled *)
  mutable n_segments : int;  (* segments handed off *)
  mutable in_flight : unit Stdx.Pool.future list;
  (* The pool tasks of the segment handed off last, in sub-group
     order, until retired. *)
  obs : Obs.Ctx.t;
  span_base : int;
  workload : string;
  check : unit -> unit;
  (* Metrics, registered only on an enabled context. *)
  m_stall : Obs.Metrics.histogram option;
  m_live : Obs.Metrics.gauge option;
}

let create ?pool ?(obs = Obs.Ctx.disabled) ?(span_index_base = 0)
    ?(workload = "") ?(check = fun () -> ()) ~segment_steps configs info =
  if segment_steps < 1 then
    invalid_arg "Segmented.create: segment_steps must be >= 1";
  let cfgs = Array.of_list configs in
  let subs_of g positions =
    let pos = Array.of_list positions in
    List.map
      (fun ixs ->
        let positions = List.map (Array.get pos) ixs in
        let cs = List.map (Array.get cfgs) positions in
        { group = g; positions;
          state = Analyze.State.group cs info;
          machines =
            String.concat "+"
              (List.map
                 (fun (c : Analyze.config) -> c.machine.Machine.name)
                 cs) })
      (subgroups (Array.length pos))
  in
  let groups = List.mapi subs_of (Analyze.decode_groups configs) in
  let buffer () =
    { pcs = Array.make segment_steps 0;
      auxs = Array.make segment_steps 0;
      bits =
        Array.init (List.length groups) (fun _ ->
            Array.make segment_steps 0) }
  in
  let bufs = [| buffer (); buffer () |] in
  let metric f =
    if Obs.Ctx.enabled obs then Some (f (Obs.Ctx.metrics obs)) else None
  in
  { pool;
    n_configs = Array.length cfgs;
    classifiers =
      Array.of_list (List.map (fun subs -> (List.hd subs).state) groups);
    subs = Array.of_list (List.concat groups);
    steps = segment_steps;
    bufs;
    cur_pcs = bufs.(0).pcs;
    cur_auxs = bufs.(0).auxs;
    len = 0;
    n_segments = 0;
    in_flight = [];
    obs;
    span_base = span_index_base;
    workload;
    check;
    m_stall =
      metric (fun reg ->
          Obs.Metrics.histogram reg
            ~help:
              "producer stall at the two-segment bound, awaiting the \
               previous segment's apply tasks"
            ~buckets:
              [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000;
                 100_000_000; 1_000_000_000 |]
            "analyze_segment_stall_ns");
    m_live =
      metric (fun reg ->
          Obs.Metrics.gauge reg
            ~help:"segments live at once (applying or filling), high-water"
            "analyze_segments_live_max") }

(* Segment [k]'s span buffers: the producer's classification at slot 0,
   then one per sub-group — merged by index, so the skeleton does not
   depend on which domain ran what. *)
let span_buffer t ~k ~slot =
  if not (Obs.Ctx.enabled t.obs) then Obs.Span.disabled
  else
    Obs.Ctx.task_buffer t.obs
      ~index:(t.span_base + (k * (Array.length t.subs + 1)) + slot)
      ~label:
        (if slot = 0 then Printf.sprintf "%s/segment-%d" t.workload k
         else Printf.sprintf "%s/segment-%d.%d" t.workload k (slot - 1))

(* Apply segment [k] ([len] entries of [b]) to sub-group [j]'s state. *)
let apply t b ~k ~len j () =
  let s = t.subs.(j) in
  t.check ();
  Obs.Span.with_span (span_buffer t ~k ~slot:(j + 1)) ~workload:t.workload
    ~machine:s.machines "segment-apply" (fun () ->
      Analyze.State.apply s.state ~pcs:b.pcs ~auxs:b.auxs
        ~bits:b.bits.(s.group) ~len)

(* Await every task in flight — the producer helps run them — and only
   then re-raise the first failure in sub-group order, so the exception
   does not depend on scheduling. *)
let retire t =
  if t.in_flight <> [] then begin
    let t0 = match t.m_stall with None -> 0L | Some _ -> Obs.Span.now_ns () in
    let failure =
      List.fold_left
        (fun failure fut ->
          match Stdx.Pool.await (Option.get t.pool) fut with
          | () -> failure
          | exception e when Option.is_none failure ->
            Some (e, Printexc.get_raw_backtrace ())
          | exception _ -> failure)
        None t.in_flight
    in
    t.in_flight <- [];
    Option.iter
      (fun h ->
        Obs.Metrics.observe h
          (Int64.to_int (Int64.sub (Obs.Span.now_ns ()) t0)))
      t.m_stall;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failure
  end

(* Hand the filled segment off: classify it once per decode group,
   retire the previous segment, and submit one task per sub-group (or,
   without a pool, apply them here).  The last sub-group goes first:
   a worker takes the oldest task and a helper the newest, and the last
   sub-group is the largest, so the producer keeps a smaller one to
   help with after its next stretch of VM work.  [last] is the close:
   nothing fills after it. *)
let hand_off ?(last = false) t =
  let len = t.len in
  if len > 0 then begin
    t.check ();
    let k = t.n_segments in
    let b = t.bufs.(k land 1) in
    Obs.Span.with_span (span_buffer t ~k ~slot:0) ~workload:t.workload
      "segment-decode" (fun () ->
        Array.iteri
          (fun g st ->
            Analyze.State.decode st ~pcs:b.pcs ~auxs:b.auxs ~bits:b.bits.(g)
              ~len)
          t.classifiers);
    retire t;
    (match t.pool with
    | None -> Array.iteri (fun j _ -> apply t b ~k ~len j ()) t.subs
    | Some pool ->
      for j = Array.length t.subs - 1 downto 0 do
        t.in_flight <-
          Stdx.Pool.async pool (apply t b ~k ~len j) :: t.in_flight
      done);
    t.n_segments <- k + 1;
    (* Live now: the segment in flight and the one filling next — or
       this one alone, while it applied inline. *)
    Option.iter
      (fun g ->
        Obs.Metrics.set_max g
          (max 1
             ((if t.in_flight = [] then 0 else 1) + if last then 0 else 1)))
      t.m_live;
    let next = t.bufs.((k + 1) land 1) in
    t.cur_pcs <- next.pcs;
    t.cur_auxs <- next.auxs;
    t.len <- 0
  end

let on_entry t ~pc ~aux =
  let i = t.len in
  Array.unsafe_set t.cur_pcs i pc;
  Array.unsafe_set t.cur_auxs i aux;
  t.len <- i + 1;
  if i + 1 = t.steps then hand_off t

let close t =
  hand_off ~last:true t;
  retire t

let finish t ?completeness () =
  retire t;
  let out = Array.make t.n_configs None in
  Array.iter
    (fun s ->
      List.iter2
        (fun i r -> out.(i) <- Some r)
        s.positions
        (Analyze.State.finish_group ?completeness s.state))
    t.subs;
  { results = Array.to_list (Array.map Option.get out);
    segments = t.n_segments }

let sink ?pool ?obs ?span_index_base ?workload ?check ~segment_steps
    configs info =
  let t =
    create ?pool ?obs ?span_index_base ?workload ?check ~segment_steps
      configs info
  in
  ( Vm.Trace.sink ~on_close:(fun () -> close t) (on_entry t),
    fun ?completeness () -> finish t ?completeness () )

let run ?pool ?obs ?span_index_base ?workload ?check ?completeness
    ~segment_steps configs info trace =
  let t =
    create ?pool ?obs ?span_index_base ?workload ?check ~segment_steps
      configs info
  in
  Vm.Trace.iter (on_entry t) trace;
  close t;
  finish t ?completeness ()
