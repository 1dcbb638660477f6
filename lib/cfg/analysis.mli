(** Complete static analysis of a resolved program.

    Combines basic blocks, postdominators, reverse dominance frontiers
    (immediate control dependences, computed per procedure exactly as in
    the paper's §4.4.1), and the loop-overhead marking of §4.2. *)

type t = {
  graph : Graph.t;
  views : View.t array;  (** per-procedure CFG views *)
  reaching : Dataflow.Reaching.t array;  (** reaching defs, per procedure *)
  loops : Loops.t;
  rdf : int array array;
  (** per global block: global ids of the branch blocks it is
      immediately control dependent on.  Blocks that cannot reach a
      procedure exit (infinite loops) are handled by connecting
      deterministic pseudo-exits, so every block has a defined RDF. *)
}

val analyze : Asm.Program.flat -> t
