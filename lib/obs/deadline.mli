(** Wall-clock deadlines over the monotonic span clock.

    A deadline is an absolute point on the monotonic clock derived from
    a millisecond budget.  Enforcement is cooperative: long-running
    stages either poll {!check} at natural boundaries or install
    {!observe} as (part of) the VM observe hook, which samples the
    clock every [every] retired instructions.  Expiry raises
    {!Expired}; the harness layer catches it and degrades the request
    to a typed [Pipeline_error.Deadline_exceeded] — never a crash, and
    partial work is simply discarded.

    The same machinery backs both the serve daemon's per-request
    deadlines and the one-shot CLI's [--deadline-ms]. *)

type t

exception Expired of { budget_ms : int; elapsed_ms : int }

val start : budget_ms:int -> t
(** Start the clock now.  Negative budgets clamp to 0 (already
    expired). *)

val budget_ms : t -> int

val elapsed_ms : t -> int

val check : t -> unit
(** @raise Expired once the budget is spent. *)

val observe :
  ?every:int ->
  t ->
  pc:int -> step:int -> regs:int array -> fregs:float array ->
  mem:Stdx.Mem_table.t -> unit
(** A {!Vm.Exec.run}-shaped observe hook that polls the clock every
    [every] retired instructions ([every] defaults to 4096 and is
    rounded up to a power of two, so the per-instruction cost is one
    [land]).  @raise Expired from inside the execution when the budget
    is spent. *)
