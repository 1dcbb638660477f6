(** The one definition of the parallelism command-line surface.

    [run], [serve], [fuzz] and the bench all take [--jobs], and [run]
    and [serve] take [--split-trace]; before this module each
    hand-rolled its own copy of the flags and their validation.  Now
    the flags are declared once (the Cmdliner terms below; the bench,
    which parses argv by hand, reuses the pure parsers), and every
    malformed value takes the same typed error path: an
    [Invalid_request] {!Pipeline_error.t}, exit code 2.

    None of these flags can affect analysis results: the pool width
    and the trace split are scheduling-only by the pool's determinism
    contract. *)

val resolve_jobs : int option -> int
(** An absent [--jobs] means {!Stdx.Pool.recommended_jobs}. *)

val validate_jobs : int -> (int, Pipeline_error.t) result
(** Re-exported {!Harness.validate_jobs}: positive, or the typed
    [Invalid_request] (exit 2). *)

(** {2 Cmdliner terms}

    Shared flag declarations, so names, docv and docs cannot drift
    between subcommands.  [split_trace_arg] takes an optional [doc]
    override because run (per workload) and serve (per request) split
    different units of work. *)

val jobs_arg : int option Cmdliner.Term.t
val split_trace_arg : ?doc:string -> unit -> bool Cmdliner.Term.t
