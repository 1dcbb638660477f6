(** Assembly programs.

    A program is a list of procedures made of labels and instructions,
    plus an initialized data segment.  [resolve] flattens the procedures
    into one code array with labels replaced by absolute indices; the flat
    form is what the VM executes and the analyzers consume.

    Label scope is global, so the code generator emits unique names.  The
    entry procedure is executed first and must end in [Halt]. *)

type item =
  | Label of string
  | Ins of string Risc.Insn.t

type proc = {
  name : string;
  body : item list;
}

type cell =
  | Int_cell of int
  | Float_cell of float

type t = {
  procs : proc list;
  data : (int * cell array) list;  (** (base address, initial cells) *)
  entry : string;  (** name of the entry procedure *)
}

type flat = {
  code : int Risc.Insn.t array;
  proc_of : int array;  (** procedure index of each instruction *)
  proc_names : string array;
  proc_bounds : (int * int) array;  (** per procedure: [start, stop) *)
  entry_pc : int;
  flat_data : (int * cell array) list;
}

exception Link_error of string

val resolve : t -> flat
(** Flattens and links a program.
    @raise Link_error on duplicate or undefined labels, or a missing
    entry procedure. *)

val proc_of_pc : flat -> int -> string
(** Name of the procedure containing a code index. *)

val pp_flat : Format.formatter -> flat -> unit
(** Disassembly listing with procedure headers and resolved targets. *)

val pp : Format.formatter -> t -> unit
(** Symbolic assembly listing. *)
