(** Branch predictors.

    The paper uses static prediction from profile information gathered on
    the same input (§4.4.2), an upper bound for static prediction.  The
    analyzer consults the predictor on every dynamic conditional branch
    through [predict], which returns the predicted direction and may
    update internal state (allowing dynamic predictors as an extension).

    Computed jumps are never predicted; the analyzer treats them as
    always mispredicted, as in the paper. *)

type t = {
  name : string;
  predict : pc:int -> taken:bool -> bool;
  (** [predict ~pc ~taken] is the predicted direction for this dynamic
      instance; [taken] is the actual outcome, provided so that dynamic
      predictors can train themselves after predicting. *)
  stateful : bool;
  (** [true] when [predict] mutates internal state (its answers depend
      on call order, e.g. {!two_bit}).  Stateless predictors are pure
      in [pc]/[taken], so their predictions may be computed out of
      order — the property segmented analysis needs to pre-decode
      trace segments concurrently. *)
}

val perfect : t
(** Always right — the ORACLE machine's predictor. *)

val always_taken : t

val backward_taken : is_backward:(int -> bool) -> t
(** Static BTFN heuristic: backward branches predicted taken, forward
    branches predicted not taken. *)

val profile : n_static:int -> is_cond:(int -> bool) -> Vm.Trace.t -> t
(** Majority direction per static branch, measured on the given trace —
    the paper's predictor.  Branches never seen in the profiling trace
    are predicted not taken. *)

(** Streaming construction of the profile predictor: feed trace entries
    as the VM retires them (no materialized trace needed), then
    finalize.  Since the paper trains and evaluates the predictor on
    the same input, the prediction-accuracy statistics of Table 2 are
    available from the accumulated counts without another trace pass. *)
module Profile : sig
  type builder

  val builder : n_static:int -> is_cond:(int -> bool) -> builder

  val feed : builder -> pc:int -> aux:int -> unit

  val sink : builder -> Vm.Trace.sink
  (** [feed] as a trace sink. *)

  val predictor : builder -> t
  (** The majority predictor for the counts accumulated so far. *)

  val dyn_branches : builder -> int
  (** Dynamic conditional branches fed so far. *)

  val correct : builder -> int
  (** Correct predictions the finalized predictor would score on the
      profiling trace itself. *)
end

(** Last-value predictability trainer, the value-prediction analogue of
    {!Profile} (machines with the [vp] constraint break true data
    dependences on instructions it marks predictable).  Values are not
    visible in trace entries, so training hangs off the VM's [observe]
    hook — post-retirement register files — during the same profiling
    execution that feeds the branch profile. *)
module Value : sig
  type builder

  val builder : n_static:int -> defs:int array array -> builder
  (** [defs.(pc)] lists the destination register uids of static
      instruction [pc] (unified numbering: int [r] is [r], float [f] is
      [32 + f]); the trainer tracks the first destination. *)

  val observe :
    builder ->
    pc:int -> step:int -> regs:int array -> fregs:float array ->
    mem:Stdx.Mem_table.t -> unit
  (** Shaped to plug directly into {!Vm.Exec.run}'s [observe]. *)

  val table : builder -> bool array
  (** Per static instruction: would a last-value predictor get the
      majority of its predictions right?  (The first dynamic instance
      predicts nothing; instructions observed at most once are never
      predictable.) *)

  val dyn_defs : builder -> int
  (** Dynamic register-writing instructions observed. *)

  val repeats : builder -> int
  (** Dynamic instances that reproduced their previous value. *)

  val predictable_static : builder -> int
  (** Static instructions {!table} marks predictable. *)
end

val two_bit : n_static:int -> t
(** Classic saturating 2-bit counter per static branch, initialized to
    weakly not-taken.  Stateful: create a fresh one per simulation. *)

type stats = {
  branches : int;
  correct : int;
  rate : float;  (** percent correct *)
}

val measure : t -> is_cond:(int -> bool) -> Vm.Trace.t -> stats
(** Runs the predictor over all conditional branches of a trace. *)
