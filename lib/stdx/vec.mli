(** Growable vectors.

    A tiny dynamic-array implementation used throughout the project for
    work lists and result buffers.  Elements are stored in a plain [array];
    pushing beyond the capacity doubles the storage. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty vector.  [dummy] fills unused capacity
    and is never observable through the API. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element.  @raise Invalid_argument when [i] is
    out of bounds. *)

val unsafe_get : 'a t -> int -> 'a
(** [get] without the bounds check, for hot loops whose index is already
    known to be in [0, length v).  Out-of-range access is undefined. *)

val set : 'a t -> int -> 'a -> unit

val last : 'a t -> 'a
(** @raise Invalid_argument on an empty vector. *)

val pop : 'a t -> 'a
(** Removes and returns the last element.
    @raise Invalid_argument on an empty vector. *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
(** Iteration reads the backing array in place: no copy, no per-element
    bounds check. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array

val of_array : dummy:'a -> 'a array -> 'a t
