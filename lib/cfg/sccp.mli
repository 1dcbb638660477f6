(** Sparse conditional constant propagation over a procedure view.

    The classic optimistic interleaving of constant propagation and
    reachability (Wegman-Zadeck), instantiated directly on the unified
    register file instead of SSA: each local block carries one lattice
    state per unified register id, block entry states are the meet over
    {e executable} in-edges only, and a branch whose condition folds to
    a constant marks a single out-edge executable.  The two analyses
    feed each other — pruning an edge can keep a register constant,
    which can prune further edges.

    Lattice per register: [Top] (no value seen yet — only transient
    during iteration, or on never-executed paths), [Const c], [Bot]
    (more than one value, or statically unknown).  Folding reuses the
    VM's own ALU semantics ({!Risc.Insn.eval_alu} / [eval_cond]), so a
    decided branch is decided exactly as the VM would take it.
    Division by zero during folding degrades to [Bot] (the VM faults;
    the analysis must not).  Floats are not tracked ([Bot]).  Loads are
    [Bot] (no memory lattice).  A call clobbers the caller-saved bank
    ({!Dataflow.def_regs}); [r0] is [Const 0] everywhere.

    Entry assumptions: the program's entry procedure starts from the
    VM's actual initial state — every integer register zero except
    [sp] (runtime-sized) — provided no instruction calls back into the
    entry procedure.  Every other procedure starts all-[Bot]: callers
    may pass anything. *)

type value = Top | Const of int | Bot

val meet : value -> value -> value

type t

val analyze : View.t -> entry_zeroed:bool -> t
(** [analyze view ~entry_zeroed] runs the propagation to fixpoint.
    [entry_zeroed] grants the VM zero-init assumption to the entry
    block (use [run] to have it derived safely). *)

val run : Analysis.t -> t array
(** One result per procedure, in procedure order.  The entry procedure
    is granted the zero-init entry state unless some instruction calls
    back into it. *)

val executable : t -> int -> bool
(** Is the local block reachable along executable edges? *)

val edge_executable : t -> src:int -> dst:int -> bool
(** Executability of the local CFG edge [src -> dst].  [false] for
    edges that exist in the view but were pruned (or never reached). *)

val exit_state : t -> int -> value array

val value_at : t -> l:int -> pc:int -> reg:int -> value
(** State of [reg] immediately {e before} executing [pc] (which must
    lie in local block [l]).  [Bot] when the block is not executable. *)

val decided_branch : t -> pc:int -> bool option
(** For a conditional-branch terminator at [pc] in an executable
    block: [Some taken] when the condition folds to a constant. *)

val n_decided : t -> int
(** Number of decided conditional branches (diagnostic count). *)
