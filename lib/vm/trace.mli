(** Dynamic instruction traces.

    One entry per executed instruction.  [pc] is the static code index.
    [aux] carries per-entry dynamic information whose meaning depends on
    the static instruction's kind:
    - loads/stores: the effective word address (always [>= 0]);
    - conditional branches: 1 when taken, 0 when fall-through;
    - everything else: [-1].

    This is the information the paper obtained from [pixie]: instruction
    identity, memory addresses for perfect disambiguation, and branch
    outcomes for the prediction study.

    Consumers come in two forms.  A materialized {!t} buffers the whole
    trace for random access (dumping, debugging, repeated scans) in
    fixed-size [int array] chunks of {!chunk_size} entries, filled in
    place and never copied as the trace grows; a trace with no entries
    holds no chunk.  A {!sink} receives entries as the VM retires them,
    so analyses that need only one forward pass never hold the trace in
    memory — the decoupled fetch/analysis split that makes paper-scale
    (100M-entry) traces feasible. *)

type t

(** A streaming trace consumer.  [on_entry] is called once per retired
    instruction, in trace order; [on_close] once at the end of
    execution (normal halt, fuel exhaustion, or fault). *)
type sink = {
  on_entry : pc:int -> aux:int -> unit;
  on_close : unit -> unit;
}

val sink : ?on_close:(unit -> unit) -> (pc:int -> aux:int -> unit) -> sink
(** [sink f] is a sink applying [f] per entry; [on_close] defaults to a
    no-op. *)

val null_sink : sink
(** Discards every entry. *)

val tee : sink -> sink -> sink
(** [tee a b] forwards every entry (and close) to [a] then [b]. *)

val chunk_size : int
(** Entries per chunk of a materialized trace: 16384. *)

val create : unit -> t
(** An empty trace.  Its first chunk is allocated by the first [push]. *)

val push : t -> pc:int -> aux:int -> unit

val buffer_sink : t -> sink
(** The materialized trace as the trivial buffering sink: every entry
    is [push]ed. *)

val length : t -> int

val pc : t -> int -> int
(** [pc t i] is entry [i]'s static code index.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val aux : t -> int -> int
(** [aux t i] is entry [i]'s dynamic word.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val addr : t -> int -> int
(** Same as [aux]; named accessor for memory entries. *)

val taken : t -> int -> bool
(** Branch outcome of entry [i]; meaningful only for conditional
    branches. *)

val iter : (pc:int -> aux:int -> unit) -> t -> unit
(** Every entry, in trace order. *)

val iter_chunks :
  (pcs:int array -> auxs:int array -> len:int -> unit) -> t -> unit
(** Every chunk, in trace order, without copying: [f ~pcs ~auxs ~len]
    sees the chunk's own arrays, whose indices [0 .. len - 1] hold its
    entries ([len = chunk_size] for every chunk but the last).  [f]
    must not write to the arrays or keep them past the trace. *)

val feed : t -> sink -> unit
(** Replay a materialized trace into a sink, entry by entry, then close
    it.  [feed t (buffer_sink t')] copies the trace. *)

(** A fixed-stride slice of a trace.  Entries [seg_base ..
    seg_base + seg_len - 1] of the stream live at indices [0 ..
    seg_len - 1] of [seg_pcs]/[seg_auxs].  The arrays are owned by the
    segment (never aliased with a trace's chunks), so a filled
    segment is safe to hand to another domain; [seg_len] may be
    shorter than the arrays for the final partial segment. *)
type seg = {
  seg_index : int;
  seg_base : int;
  seg_len : int;
  seg_pcs : int array;
  seg_auxs : int array;
}

val segmenting_sink : steps:int -> emit:(seg -> unit) -> sink
(** A sink that buffers entries into segments of [steps] entries and
    calls [emit] with each segment as it fills — plus a final partial
    segment (if non-empty) on close.  [emit] runs on the producing
    domain; retirement is never blocked beyond the [emit] call itself,
    so an [emit] that merely enqueues the segment keeps the VM
    streaming.  Segments arrive in index order with contiguous
    [seg_base] ranges covering the stream exactly.  Raises
    [Invalid_argument] if [steps < 1]. *)

val segments : steps:int -> t -> seg array
(** Slice a materialized trace into segments of [steps] entries (the
    last one possibly shorter), copying each segment out of the trace
    one chunk span at a time.  Raises [Invalid_argument] if
    [steps < 1]. *)
