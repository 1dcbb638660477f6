(** Static oracle-parallelism upper bounds per machine lattice point.

    Compiles the machine-independent facts of {!Cfg.Estimate} against
    an {!Machine} spec into a sound upper bound on the parallelism the
    dynamic analyzer ({!Analyze}) can ever measure for that machine,
    on any trace of the program.  Parallelism is [seq_cycles /
    max_time] with [seq_cycles <= N * Lmax] ([N] counted instructions,
    [Lmax] the machine's largest latency over classes present in the
    code), so each constraint that forces [max_time] up yields a
    component bound:

    - {e fetch = f}: the i-th counted instruction issues no earlier
      than cycle [i/f + 1], so [max_time >= N/f] and parallelism
      [<= f * Lmax];
    - {e blocking control}: every instruction waits for the completion
      of the last breaker, breaker completions strictly increase, and
      no run between breakers exceeds [M] counted instructions
      ({!Cfg.Estimate.t.max_run}), giving [<= M * Lmax];
    - {e control dependence with k flows}: per-flow breaker
      completions strictly increase, the analyzer picks the best of
      [k] flows, and [B] breakers force [max_time >= ceil(B/k)];
      maximizing [(B+1) * M / ceil(B/k)] over [B] gives
      [<= (k+1) * M * Lmax];
    - {e speculation / oracle}: only mispredicted (resp. no) branches
      serialize; a program may run with zero mispredictions, so no
      static control bound exists;
    - {e window = w}: contributes {e no} static bound in this
      analyzer: the window tracks {e issue} times ([t_i >=
      t_(i-w)], without forcing progress), so w-independent
      instructions can all issue in cycle 1.  Folding [w] in would be
      unsound, and the property tests would catch it.

    The machine bound is the minimum over component bounds; machines
    whose constraints all sit at the ideal (e.g. the oracle with
    unlimited fetch) are statically unbounded, exactly as the paper's
    oracle is meant to be. *)

type component = {
  c_name : string;  (** "fetch", "control", "window" *)
  c_value : float;  (** [infinity] when the constraint does not bound *)
}

type t = {
  spec : string;  (** canonical machine spec *)
  bound : float;  (** min over components; [infinity] if none binds *)
  limiting : string option;  (** name of the binding component *)
  components : component list;
}

val compile : Cfg.Estimate.t -> Program_info.t -> Machine.t -> t

val pp : Format.formatter -> t -> unit

val value_to_string : float -> string
(** ["unbounded"] for [infinity], else the number (integral floats
    print bare). *)
