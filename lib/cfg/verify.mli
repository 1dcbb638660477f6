(** Static verifier for compiled programs, with dynamic cross-validation
    of the static facts against an execution trace.

    The static checker walks every procedure and reports structured
    diagnostics.  {e Errors} are shapes the code generator must never
    produce: control transfers leaving their procedure (direct, through
    a jump table, or by falling off the procedure end), calls that do
    not target a procedure entry, returns through a register other than
    [ra], stack-pointer writes that are not constant adjustments,
    inconsistent or unrestored frame offsets, and reads of registers
    that are uninitialized on {e every} path.  {e Warnings} flag merely
    suspicious code: reads that are uninitialized on some path,
    unreachable blocks, and dead stores.

    {!Dynamic} replays a trace (as a {!Vm.Trace.sink}) against the same
    facts: every retired pc must be statically reachable, every control
    transfer must follow a static CFG edge, every register read must see
    a prior write, and the loop-overhead classification of §4.2 must
    hold dynamically — overhead-marked induction updates step by their
    loop constant and operands classified invariant keep one value per
    loop activation (the value checks need the interpreter's [observe]
    hook). *)

type severity = Engine.severity = Error | Warning

type kind =
  | Bad_branch_target  (** branch or jump target outside its procedure *)
  | Bad_jtab_target  (** jump-table entry outside its procedure *)
  | Bad_call_target  (** call target is not a procedure entry *)
  | Fallthrough_off_end  (** last instruction of a procedure can fall through *)
  | Ret_discipline  (** return through a register other than [ra] *)
  | Sp_discipline  (** [sp] written by a non-constant adjustment *)
  | Sp_imbalance  (** frame offset inconsistent at a join or nonzero at return *)
  | Uninit_read  (** register read but never written on any path *)
  | Maybe_uninit_read  (** register uninitialized on some path (warning) *)
  | Unreachable_block  (** block unreachable from the procedure entry (warning) *)
  | Sccp_unreachable
    (** block CFG-reachable but pruned by conditional constant
        propagation (warning) *)
  | Dead_store  (** register written but never read (warning) *)

val passes : Engine.pass list
(** Every diagnostic class as a registered engine pass (one per
    {!kind}, named by {!kind_name}).  Run them with {!Engine.run},
    which adds per-pass configuration, JSON output and
    observability. *)

val kind_name : kind -> string
(** The kebab-case name of the class's pass. *)

val severity_of : kind -> severity

val save_protocol_read : int Risc.Insn.t -> int -> bool
(** Is a read of unified register [r] by this instruction part of the
    register-save protocol (a store of [r] to a stack slot)?  Such reads
    may legitimately see a never-written callee-saved register and are
    exempt from the uninitialized-read checks. *)

module Dynamic : sig
  type violation = {
    index : int;  (** trace entry index *)
    pc : int;
    message : string;
  }

  type t

  val create : Analysis.t -> t

  val sink : t -> Vm.Trace.sink
  (** The pc-level checks, driven once per retired instruction. *)

  val observe :
    t -> pc:int -> step:int -> regs:int array -> fregs:float array ->
    mem:Stdx.Mem_table.t -> unit
  (** The value-level checks (induction steps, invariant pinning), to be
      called from {!Vm.Exec.run}'s [observe] hook right after each
      retirement, with the same pc the sink just saw.  [step] and [mem]
      are part of the hook's signature (the fault injector uses them)
      but unused here. *)

  val entries : t -> int
  (** Trace entries seen so far. *)

  val n_violations : t -> int
  (** Total violations, including ones beyond the kept window. *)

  val violations : t -> violation list
  (** The first violations (at most 50), in trace order. *)
end
