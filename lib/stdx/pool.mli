(** A small fixed-size domain pool for parallel batches and futures:
    one mutex, one condition variable and one ring of queued tasks.

    {e Determinism:} [map_array] returns results in input-index order,
    no matter which domain ran which task or in what order they
    finished.  Parallel callers therefore produce bit-identical output
    to sequential ones whenever the tasks themselves are independent.
    Scheduling decides only {e where} a task runs, never what it
    computes or where its result lands.

    {e Exceptions:} a task that raises never kills a worker and never
    wedges the pool.  The exception (with its backtrace) is boxed in
    the task's future; [map_array] awaits the {e whole} batch and then
    re-raises the lowest-indexed one in the submitting domain.  Callers
    that need the typed-error discipline wrap each task in
    {!Pipeline_error.guard}, which turns the re-raise into a
    structured [Internal] error.

    {e Inline:} on a [jobs = 1] pool no domain is ever spawned and
    every task runs at submit time on the calling domain — the
    sequential path, bit-for-bit, with the same counts.  A one-element
    [map_array] batch runs inline at any width.

    {e Scheduling:} a submit pushes at the back of the ring and wakes
    one waiter.  A worker domain takes the oldest task and waits on the
    condition when the ring is empty.  A submitter or awaiter blocked
    on a future {e helps}: it takes the newest task and runs it, and
    sleeps only once the ring is empty, so tasks that submit or await
    other tasks on a narrow pool cannot deadlock.  See DESIGN.md §16
    for the no-lost-wake-up argument. *)

type stats = {
  depth : int;  (** tasks queued, not yet started *)
  depth_highwater : int;  (** most tasks ever queued at once *)
  in_flight : int;  (** tasks running on some domain *)
  in_flight_highwater : int;  (** most tasks ever running at once *)
  submitted : int;  (** tasks ever submitted, inline ones included *)
  completed : int;  (** tasks ever finished *)
  steal_attempts : int;  (** times a worker looked at the ring *)
  steals : int;  (** times a worker took a task from it *)
  parks : int;  (** times a worker began waiting *)
  wakes : int;  (** times a waiting worker woke *)
}
(** Every count is read under the pool's mutex, so a snapshot is
    consistent; the lifetime totals only grow.  [steal_attempts] and
    [steals] keep the names of the work-stealing pool this one
    replaced. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs]
    defaults to {!recommended_jobs}; values below 1 are clamped
    to 1).  With [jobs = 1] no domain is ever spawned and every
    task runs inline — the sequential path, bit-for-bit. *)

val jobs : t -> int
(** Total parallelism: worker domains plus the submitting domain. *)

val stats : t -> stats
(** A snapshot of the pool's counts. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f arr] applies [f] to every element, tasks running
    on any of the pool's domains, and returns the results in input
    order.  One future per element, awaited in index order, so the
    caller's domain helps with the batch.  If any task raised,
    re-raises the lowest-indexed exception with its original
    backtrace — after every other task has finished, at any pool
    width, so the pool is quiescent and reusable. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_array} over a list. *)

type 'a future
(** A single-shot result box for one task submitted with {!async}. *)

val async : t -> (unit -> 'a) -> 'a future
(** [async t f] queues [f] on the pool and returns immediately
    with a future for its result.  On a [jobs = 1] pool the task
    runs inline at submit time, so {!await} never blocks.  A task
    that raises never kills a worker: the exception is boxed in the
    future and re-raised by {!await}.  Raises [Invalid_argument]
    after {!shutdown}. *)

val await : t -> 'a future -> 'a
(** [await t fut] returns the future's value, re-raising (with its
    original backtrace) if the task failed.  While the future is
    pending the caller {e helps}: it runs the newest queued task,
    again and again, and sleeps only when the ring is empty (the
    awaited task is then running on another domain). *)

val poll : 'a future -> bool
(** [poll fut] is [true] once the future is resolved (value or
    exception).  Never blocks, never helps. *)

val shutdown : t -> unit
(** Stop the workers and join their domains.  Idempotent.
    Submitting to a pool after [shutdown] raises
    [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] over a fresh pool and always shuts it
    down, even when [f] raises. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1.  The default
    for every [--jobs auto] surface. *)
