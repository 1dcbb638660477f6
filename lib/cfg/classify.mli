(** Static branch classification.

    Every conditional branch in the program falls into one of three
    classes, mirroring the static/dynamic split of the
    variable-fetch-rate literature:

    - {e statically decided}: {!Sccp} folds the condition to a
      constant — the branch always goes one way, and contributes no
      control-dependence penalty on any machine;
    - {e loop exit with known trip count}: the branch tests a loop
      induction register ({!Loops}) against a constant bound whose
      initial value {!Sccp} knows, so the number of header visits per
      loop activation is statically bounded;
    - {e data dependent}: everything else — the class whose penalty
      the paper measures.

    Trip counts are {e upper bounds on header executions per loop
    activation}, derived by replaying the induction recurrence with
    the VM's own arithmetic ([eval_alu]/[eval_cond]) from the
    SCCP-known initial value, with a two-iteration safety margin that
    absorbs the update/branch ordering within the body. *)

type klass =
  | Decided of bool
    (** always taken / always not taken (SCCP constant condition) *)
  | Loop_exit of int
    (** exits a natural loop whose max header visits per activation is
        the payload *)
  | Data_dependent
  | Unreachable
    (** the branch's block is never executed (SCCP-pruned) *)

type branch = { b_pc : int; b_proc : int; b_class : klass }

type t = {
  branches : branch array;  (** all conditional branches, pc ascending *)
  trips : (int, int) Hashtbl.t;
  (** loop header (global block id) -> max header visits per
      activation, for loops where some exit branch bounds it *)
}

val classify : Analysis.t -> sccp:Sccp.t array -> t

val find : t -> pc:int -> branch option

val counts : t -> int * int * int * int
(** [(decided, loop_exit, data_dependent, unreachable)] totals. *)
