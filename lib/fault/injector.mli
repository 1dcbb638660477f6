(** Deterministic fault injection for the trace pipeline.

    A seeded injector perturbs a compiled program or its execution in
    one of four ways and hands back everything the harness needs to run
    the damaged pipeline:

    - {e bit-flip}: one instruction of the code array is structurally
      corrupted (a register index, immediate, ALU/condition opcode or
      branch target has a bit flipped; a [Halt] is retargeted into a
      wild jump).  Register indices stay in [0,32) and targets stay
      inside the code segment, so corruption exercises the {e pipeline's}
      fault handling, not the host language's bounds checks.
    - {e mem-corrupt}: at a chosen retirement step, one memory word is
      overwritten through {!Vm.Exec.run}'s [observe] hook.
    - {e trace-cut}: the sink wrapper stops forwarding entries after a
      chosen count, so the analyzer sees a truncated trace while the
      execution runs on.
    - {e fuel-cut}: the instruction budget is slashed, forcing an
      [Out_of_fuel] truncation.

    Everything is derived from the seed by a splitmix64 generator —
    same seed, same perturbation, same report — which is what makes
    fuzz failures replayable with [ilp_limits inject --seed N]. *)

type kind =
  | Bit_flip
  | Mem_corrupt
  | Trace_cut
  | Fuel_cut

val all_kinds : kind list

val kind_name : kind -> string
(** Canonical CLI spelling: "bit-flip", "mem-corrupt", "trace-cut",
    "fuel-cut". *)

val kind_names : string list

val kind_of_string : string -> kind option
(** Accepts the canonical spelling, with ["-"] or ["_"]. *)

(** A planned injection: the (possibly mutated) program plus the VM-run
    parameters that realize the fault. *)
type applied = {
  kind : kind;
  seed : int;
  description : string;
  (** deterministic, human-readable account of the exact perturbation *)
  flat : Asm.Program.flat;
  (** the program to run; a fresh copy when the code was mutated *)
  fuel : int;  (** possibly reduced instruction budget *)
  observe :
    (pc:int -> step:int -> regs:int array -> fregs:float array ->
     mem:Stdx.Mem_table.t -> unit)
      option;  (** pass to {!Vm.Exec.run} (mem-corrupt) *)
  wrap_sink : Vm.Trace.sink -> Vm.Trace.sink;
  (** wrap the analysis sink (trace-cut); identity otherwise *)
  cut : Pipeline_error.fault_info option ref;
  (** set by the wrapper when entries were actually dropped *)
}

val plan :
  ?metrics:Obs.Metrics.t ->
  seed:int -> fuel:int -> kind -> Asm.Program.flat -> applied
(** Derive one deterministic perturbation of [flat].  The input program
    is never mutated in place.  [metrics], when given, counts the plan
    under [fault_planned_total{kind=...}]. *)

(** The seeded generator (splitmix64), exposed so drivers can derive
    per-case seeds reproducibly. *)
module Rng : sig
  type t

  val create : int -> t

  val int : t -> int -> int
  (** [int t n] is uniform-ish in [\[0, n)]; [n > 0]. *)

  val derive : seed:int -> index:int -> int
  (** [derive ~seed ~index] is the [index]-th output of the splitmix64
      stream rooted at [seed]: a decorrelated per-task seed that is a
      pure function of [(seed, index)].  Parallel drivers hand task
      [i] the seed [derive ~seed ~index:i], so a fuzz sweep is
      reproducible independent of scheduling order and [--jobs]. *)
end
