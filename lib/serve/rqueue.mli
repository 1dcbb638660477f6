(** Bounded request queue — the daemon's backpressure point.

    Connection threads push admitted work; the dispatcher pops it onto
    the domain pool.  [push] never blocks: a full queue sheds the item
    ([`Overloaded] with the observed depth), which the server turns
    into the typed [Overloaded] error plus a retry hint — bounded
    memory under any request rate, by construction.  [pop] blocks
    until an item arrives or the queue is closed and drained. *)

type 'a t

val create : limit:int -> 'a t
(** [limit] is clamped to at least 1. *)

val limit : 'a t -> int

val length : 'a t -> int

val push : 'a t -> 'a -> [ `Ok of int | `Overloaded of int | `Closed ]
(** [`Ok depth] with the depth {e after} the push; [`Overloaded depth]
    when full (item dropped); [`Closed] after {!close} (item
    dropped — the server is draining). *)

val pop : 'a t -> 'a option
(** Blocking take.  [None] once the queue is closed {e and} empty:
    items pushed before [close] are still delivered (drain
    semantics). *)

val close : 'a t -> unit
(** Refuse further pushes and wake every blocked popper.  Idempotent. *)
