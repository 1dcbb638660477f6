(** Structured errors for the whole trace pipeline.

    Every stage — compile, execute, trace, analyze, report — expresses
    failure as a value of {!t} instead of an exception, so one bad
    workload degrades one result rather than aborting a bench sweep.
    The type lives below every pipeline library in the dependency
    order (only [Stdx], whose JSON value {!to_json} builds, sits under
    it): [Vm], [Ilp], [Workloads] and [Harness] all share the same
    vocabulary, and [bin/ilp_limits] maps it onto distinct process exit
    codes.

    Truncated-but-usable executions are not errors.  A trace that ends
    early (fuel, VM fault, analysis budget, injected cut) still yields a
    result; the {!completeness} tag carries the {!fault_info} describing
    where and why the trace ended, and propagates into tables and
    serve replies. *)

(** Why an execution or analysis stopped before a clean [Halt]. *)
type fault_kind =
  | Div_by_zero  (** integer division or remainder by zero *)
  | Mem_out_of_range  (** load or store address outside memory *)
  | Pc_out_of_range  (** control transfer outside the code segment *)
  | Jtab_out_of_range  (** computed-jump index outside its table *)
  | Out_of_fuel  (** instruction budget exhausted (paper-style cap) *)
  | Step_budget  (** analysis step budget reached; suffix dropped *)
  | Trace_cut  (** trace delivery cut (fault injection) *)
  | Injected  (** an injected corruption tripped the VM *)

val fault_kind_name : fault_kind -> string
(** Stable lower-snake name ("div_by_zero", "out_of_fuel", ...). *)

(** Where the pipeline stopped: the faulting pc ([-1] when the stop is
    not tied to one instruction), how many instructions had retired (or
    entries had been analyzed), and a human-readable detail. *)
type fault_info = {
  f_kind : fault_kind;
  f_pc : int;
  f_step : int;
  f_detail : string;
}

val fault : ?pc:int -> ?detail:string -> step:int -> fault_kind -> fault_info

val pp_fault : Format.formatter -> fault_info -> unit

(** Provenance of an analysis result: did it see the whole execution? *)
type completeness =
  | Complete
  | Truncated of fault_info

val completeness_tag : completeness -> string
(** Short table/JSON tag: ["complete"], or the fault-kind name. *)

(** Pipeline stage an error is attributed to. *)
type stage =
  | Lookup  (** resolving workload / machine / fault-kind names *)
  | Compile
  | Execute
  | Analyze
  | Report

val stage_name : stage -> string

type cause =
  | Unknown_workload of { name : string; hint : string option }
  | Unknown_machine of { name : string; hint : string option }
  | Invalid_machine_spec of { spec : string; msg : string }
    (** a composed machine-spec string that failed to parse; [msg] names
        the offending item (and a "did you mean" hint when close) *)
  | Unknown_fault of { name : string; hint : string option }
  | Compile_error of string  (** lexing, parsing, sema, codegen or link *)
  | Vm_fault of fault_info
    (** a fault the caller asked to be fatal (default: faults degrade
        to [Truncated] results instead) *)
  | Budget_exceeded of { what : string; limit : int; requested : int }
    (** a resource guard refused the request up front *)
  | Invalid_request of string  (** malformed arguments *)
  | Deadline_exceeded of { budget_ms : int; elapsed_ms : int }
    (** the request's wall-clock deadline expired (enforced through the
        VM observe hook and at stage boundaries); the work done so far
        is discarded but the process, domain and connection survive *)
  | Overloaded of { depth : int; limit : int; retry_after_ms : int }
    (** load shed: the bounded request queue was full; [retry_after_ms]
        is the server's backoff hint *)
  | Rejected_by_estimate of { spec : string; estimate : float; ceiling : float }
    (** admission control: the static parallelism estimator priced the
        request above the configured ceiling before any execution
        ([estimate] is [infinity] when the bound is unbounded) *)
  | Failed of string  (** a command-level failure (verification, fuzz) *)
  | Internal of string
    (** the last-resort barrier: an exception caught at the pipeline
        boundary; always a bug, never silently dropped *)

type t = {
  stage : stage;
  workload : string option;
  cause : cause;
}

val v : ?workload:string -> stage -> cause -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val exit_code : t -> int
(** Distinct process exit codes per cause class:
    1 = generic failure / internal barrier,
    2 = unknown name or invalid request,
    3 = compile error,
    4 = VM fault,
    5 = resource budget exceeded,
    6 = wall-clock deadline exceeded,
    7 = overloaded (load shed),
    8 = rejected by the static estimate (admission control). *)

val cause_name : t -> string
(** Stable lower-snake tag of the cause class ("deadline_exceeded",
    "overloaded", ...) — the wire protocol's error discriminator. *)

val to_json : t -> Stdx.Jsonx.t
(** The error as one JSON object: [cause], [code], [stage], optional
    [workload], human [message], plus cause-specific structured fields
    (e.g. [retry_after_ms] for [Overloaded]) so clients never parse the
    message text.  [Rejected_by_estimate]'s [estimate] and [ceiling]
    are the whole numbers the message prints ([%.0f], a tie rounding to
    even); an unbounded estimate is [null]. *)

val suggest : string -> string list -> string option
(** [suggest name candidates] is the nearest candidate by edit distance
    when it is close enough to be a plausible typo ("did you mean"). *)

val guard : ?workload:string -> stage -> (unit -> ('a, t) result)
  -> ('a, t) result
(** [guard stage f] runs [f ()], converting any escaped exception into
    an [Internal] error attributed to [stage] — the fault barrier that
    upholds the pipeline invariant {e every input yields either a result
    or a structured error}. *)
