(* Entries live in fixed-size chunks filled in place: a full chunk is
   never copied or resized, and an int stored into an [int array] needs
   no write barrier.  [cur_pcs]/[cur_auxs] alias the last chunk, the
   one [push] fills; every earlier chunk is full.  An empty trace owns
   no chunk. *)
let chunk_bits = 14
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type t = {
  pcs : int array Stdx.Vec.t;
  auxs : int array Stdx.Vec.t;
  mutable cur_pcs : int array;
  mutable cur_auxs : int array;
  mutable len : int;
}

type sink = {
  on_entry : pc:int -> aux:int -> unit;
  on_close : unit -> unit;
}

let sink ?(on_close = fun () -> ()) on_entry = { on_entry; on_close }

let null_sink = { on_entry = (fun ~pc:_ ~aux:_ -> ()); on_close = ignore }

let tee a b =
  { on_entry =
      (fun ~pc ~aux ->
        a.on_entry ~pc ~aux;
        b.on_entry ~pc ~aux);
    on_close =
      (fun () ->
        a.on_close ();
        b.on_close ()) }

let create () =
  { pcs = Stdx.Vec.create ~capacity:4 ~dummy:[||] ();
    auxs = Stdx.Vec.create ~capacity:4 ~dummy:[||] ();
    cur_pcs = [||];
    cur_auxs = [||];
    len = 0 }

let add_chunk t =
  t.cur_pcs <- Array.make chunk_size 0;
  t.cur_auxs <- Array.make chunk_size 0;
  Stdx.Vec.push t.pcs t.cur_pcs;
  Stdx.Vec.push t.auxs t.cur_auxs

let push t ~pc ~aux =
  let n = t.len in
  let off = n land chunk_mask in
  if off = 0 then add_chunk t;
  Array.unsafe_set t.cur_pcs off pc;
  Array.unsafe_set t.cur_auxs off aux;
  t.len <- n + 1

let buffer_sink t = { on_entry = push t; on_close = ignore }

let length t = t.len

let get name chunks t i =
  if i < 0 || i >= t.len then invalid_arg (name ^ ": index out of bounds");
  Array.unsafe_get
    (Stdx.Vec.unsafe_get chunks (i lsr chunk_bits))
    (i land chunk_mask)

let pc t i = get "Trace.pc" t.pcs t i
let aux t i = get "Trace.aux" t.auxs t i
let addr = aux
let taken t i = aux t i = 1

let iter_chunks f t =
  for k = 0 to Stdx.Vec.length t.pcs - 1 do
    f ~pcs:(Stdx.Vec.unsafe_get t.pcs k) ~auxs:(Stdx.Vec.unsafe_get t.auxs k)
      ~len:(min chunk_size (t.len - (k lsl chunk_bits)))
  done

let iter f t =
  iter_chunks
    (fun ~pcs ~auxs ~len ->
      for i = 0 to len - 1 do
        f ~pc:(Array.unsafe_get pcs i) ~aux:(Array.unsafe_get auxs i)
      done)
    t

(* Segments: fixed-stride slices of a trace, each owning plain int
   arrays rather than sharing the trace's chunks. *)

type seg = {
  seg_index : int;
  seg_base : int;
  seg_len : int;
  seg_pcs : int array;
  seg_auxs : int array;
}

(* Copies entries [pos .. pos + len - 1] to [pcs]/[auxs] from index 0,
   one chunk span at a time.  A typed loop, not [Array.blit]: segment
   arrays are allocated in the major heap, where [Array.blit] pays a
   write barrier per word even for ints. *)
let copy_out t pos (pcs : int array) (auxs : int array) len =
  let rec go pos dst len =
    if len > 0 then begin
      let k = pos lsr chunk_bits and off = pos land chunk_mask in
      let span = min len (chunk_size - off) in
      let src_pcs = Stdx.Vec.get t.pcs k and src_auxs = Stdx.Vec.get t.auxs k in
      for i = 0 to span - 1 do
        Array.unsafe_set pcs (dst + i) (Array.unsafe_get src_pcs (off + i));
        Array.unsafe_set auxs (dst + i) (Array.unsafe_get src_auxs (off + i))
      done;
      go (pos + span) (dst + span) (len - span)
    end
  in
  go pos 0 len

let segments ~steps t =
  if steps < 1 then invalid_arg "Trace.segments: steps must be >= 1";
  let n = t.len in
  let count = (n + steps - 1) / steps in
  Array.init count (fun k ->
      let base = k * steps in
      let len = min steps (n - base) in
      let pcs = Array.make len 0 in
      let auxs = Array.make len 0 in
      copy_out t base pcs auxs len;
      { seg_index = k; seg_base = base; seg_len = len;
        seg_pcs = pcs; seg_auxs = auxs })
