(** The [ilp-limits serve] daemon: analysis as a service.

    One process serves framed JSON requests ({!Protocol}) over a
    Unix-domain socket (and optionally TCP).  The moving parts:

    - {e connection threads} (systhreads) parse and validate frames,
      enforce per-request quotas and refuse any count below 1, run
      admission control, and enqueue admitted work;
    - a {e bounded queue} ({!Rqueue}) between the connections and the
      compute is the backpressure point: a full queue sheds with the
      typed [Overloaded] error and a retry hint, so memory stays
      bounded under any request rate;
    - a {e dispatcher thread} hands each request to an idle worker
      domain of a {!Stdx.Pool}, running it itself only while every
      worker is busy — requests execute truly in parallel, each
      through {!Harness.Request.exec} with its own VM state, so one
      request's fault or deadline never touches a neighbour;
    - a {e compiled-program cache} ({!Cache}) keyed by the source
      digest skips the front end on repeats; cached and fresh replies
      are byte-identical (compilation is pure);
    - {e admission control}: the static estimator
      ({!Harness.estimate_flat}) prices each program once, as it
      enters the cache; with
      [`Reject c] an unbounded breaker-free run or an M×trip proxy
      above [c] is refused up front ([Rejected_by_estimate], exit
      class 8), with [`Budget c] it is down-budgeted (fuel and step
      budget clamped to [c]) instead.

    Failure discipline: {e every} request yields exactly one framed
    response — a result or a typed {!Pipeline_error} — and no request
    can crash, wedge, or leak a domain; expiry, faults, quota
    violations and shed load are all data.  Drain ({!drain}, wired to
    SIGTERM/SIGINT by the CLI) stops accepting, answers new requests
    with [Overloaded], finishes queued and in-flight work, then shuts
    the pool down.  The CLI's [--supervise] loop restarts the process
    on any abnormal exit (crash-only operation). *)

type admission =
  | Admit_off
  | Admit_reject of float  (** refuse above the ceiling *)
  | Admit_budget of float
      (** clamp fuel and step budget to the ceiling instead *)

type config = {
  socket_path : string;
  tcp : (string * int) option;  (** bind address, port *)
  jobs : int;  (** domain-pool width for request execution *)
  queue_limit : int;  (** backpressure bound *)
  cache_capacity : int;  (** compiled-program LRU entries *)
  admission : admission;
  max_fuel : int;  (** per-request fuel quota ceiling *)
  max_step_budget : int;  (** per-request analysis-step ceiling *)
  default_deadline_ms : int option;
      (** deadline applied when a request names none.  A request's
          deadline, its own or this one, below 1 ms is refused as a
          fuel or step budget below 1 is: a typed [Invalid_request]
          (code 2), before the cache, admission or the queue. *)
  idle_timeout_ms : int option;
      (** self-drain after this long with no connections and no work *)
  retry_after_ms : int;  (** hint carried by [Overloaded] responses *)
  registry : Obs.Metrics.t;  (** serve_* metrics land here *)
  split_trace : bool;
      (** hand each request the pool, so its replay runs through the
          segment pipeline (DESIGN.md §15): idle worker domains apply
          a request's segments — results stay bit-identical, so cached
          and fresh replies still agree. *)
}

val config :
  ?tcp:string * int ->
  ?jobs:int ->
  ?queue_limit:int ->
  ?cache_capacity:int ->
  ?admission:admission ->
  ?max_fuel:int ->
  ?max_step_budget:int ->
  ?default_deadline_ms:int ->
  ?idle_timeout_ms:int ->
  ?retry_after_ms:int ->
  ?registry:Obs.Metrics.t ->
  ?split_trace:bool ->
  socket_path:string ->
  unit ->
  config
(** Defaults: no TCP, [jobs] = {!Stdx.Pool.recommended_jobs},
    [queue_limit] = 64, [cache_capacity] = 32, admission off,
    [max_fuel] = 100_000_000, [max_step_budget] = 100_000_000, no
    default deadline, no idle timeout, [retry_after_ms] = 50,
    [registry] = {!Obs.Metrics.global}, trace split off.  The CLI
    refuses every count below 1 ([retry_after_ms] below 0) before it
    builds the config; here a [queue_limit] or [cache_capacity] below
    1 is clamped to 1, and [jobs] below 1 to 1. *)

type t

val start : config -> (t, string) result
(** Bind the socket(s) and spawn the acceptor, dispatcher and pool.
    [Error] describes a bind/listen failure (path in use, port
    taken). *)

val drain : t -> unit
(** Initiate graceful shutdown (async, signal-safe in intent: sets
    flags and wakes the acceptor).  Idempotent. *)

val wait : t -> unit
(** Block until the server has fully stopped — drain initiated (by
    {!drain} or the idle timeout), queue and in-flight work finished,
    connections closed, pool shut down. *)

val stop : t -> unit
(** {!drain} then {!wait}. *)

val draining : t -> bool
