(* Spans recorded by the traced run around the driver's own calls into
   each layer.  They stay in memory until the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  op : int;  (** the op this span belongs to *)
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  mutable done_ : span list;  (** closed spans, newest first *)
  mutable open_ : int list;  (** ids of open spans, innermost first *)
  mutable next : int;
  mutable op : int;
}

let create () = { done_ = []; open_ = []; next = 0; op = 0 }
let set_op t op = t.op <- op

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start_ns = Refclock.now_ns () in
  let close () =
    let stop_ns = Refclock.now_ns () in
    t.open_ <- List.tl t.open_;
    t.done_ <- { id; name; parent; op = t.op; start_ns; stop_ns } :: t.done_
  in
  match f () with
  | r -> close (); r
  | exception e -> close (); raise e

let spans t = List.rev t.done_
let dur_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Length of the part of [lo, hi) covered by the union of [ivs]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Int64.max a lo and b = Int64.min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if Int64.compare a cb <= 0 then (total, (ca, Int64.max cb b))
        else (Int64.add total (Int64.sub cb ca), (a, b)))
      (0L, (lo, lo))
      ivs
  in
  Int64.to_float (Int64.add total (Int64.sub (snd last) (fst last)))

(* A span's self time: its duration minus the part of it its child
   spans cover. *)
let self_ns all s =
  let kids =
    List.filter_map
      (fun c -> if c.parent = s.id then Some (c.start_ns, c.stop_ns) else None)
      all
  in
  dur_ns s -. covered ~lo:s.start_ns ~hi:s.stop_ns kids

let write path all =
  let oc = open_out path in
  output_string oc "id\tparent\top\tname\tstart_ns\tstop_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.id s.parent s.op s.name
        s.start_ns s.stop_ns)
    all;
  close_out oc
