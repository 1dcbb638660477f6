(** Code generation from type-checked Mini-C to the target ISA.

    The generated code follows the conventions of a classical one-pass
    RISC compiler, which is what the paper's trace analysis assumes:

    - a stack frame per activation, allocated and released by
      stack-pointer adjustment instructions at entry and exit (the
      instructions simulated perfect inlining removes);
    - scalar locals and parameters register-allocated to callee-saved
      registers while they last ([s0]..[s7], [fs0]..[fs7]), then frame
      slots;
    - expressions evaluated on a register stack ([t0]..[t7],
      [ft0]..[ft7]) with frame spills past depth 8, with immediate
      operands folded into ALU-immediate and compare-immediate forms so
      that loop tests appear as the fused [Bi] idiom the unrolling
      analysis recognizes;
    - arguments in [a0]..[a3] / [fa0]..[fa3] (at most four integer-or-
      array and four float arguments per function);
    - dense [switch] statements lowered to bounds-checked jump tables
      (computed jumps), sparse ones to compare chains;
    - loops laid out with a bottom test (a backward conditional branch),
      as MIPS compilers of the era did.

    Address space: globals from word address 16 up; each string or list
    initializer becomes data-segment cells.  The stack grows down from
    the top of memory. *)

exception Error of string
(** Raised on generation-time limits (e.g. too many arguments). *)

(** [if_convert] enables guarded-instruction if-conversion (paper §6):
    simple conditional scalar assignments become branch-free [movn]
    conditional moves, removing branches from the instruction stream. *)
type options = { if_convert : bool }

val program : ?options:options -> Minic.Ast.program -> Asm.Program.t
(** Compiles a type-checked program ({!Minic.Sema.check} must have run:
    expression types must be annotated). *)

val compile : ?options:options -> string -> Asm.Program.t
(** Front end pipeline: parse, check, generate.
    @raise Minic.Parser.Error, Minic.Lexer.Error, Minic.Sema.Error,
    Error. *)

val compile_flat : ?options:options -> string -> Asm.Program.flat
(** [compile] followed by {!Asm.Program.resolve}. *)
