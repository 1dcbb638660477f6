(** Register names and conventions for the MIPS-like target ISA.

    The machine has 32 integer registers and 32 floating-point registers.
    Dependence analysis uses a single {e unified} register id space:
    integer register [r] has id [r] (0..31) and float register [f] has id
    [32 + f] (32..63).  Register [r0] is hard-wired to zero: writes to it
    are discarded and reads never create dependences. *)

type t = int
(** An integer register number, 0..31. *)

type f = int
(** A floating-point register number, 0..31. *)

val zero : t (** hard-wired zero, r0 *)

val rv : t (** integer return value, r2 *)

val arg : int -> t
(** [arg i] is the i-th integer argument register (0..3), r4..r7.
    @raise Invalid_argument outside that range. *)

val n_arg_regs : int

val tmp : int -> t
(** [tmp i] is the i-th caller-saved expression temporary (0..7), r8..r15. *)

val n_tmp_regs : int

val sav : int -> t
(** [sav i] is the i-th callee-saved local register (0..7), r16..r23. *)

val n_sav_regs : int

val scratch0 : t (** codegen scratch, r24 *)

val scratch1 : t (** codegen scratch, r25 *)

val sp : t (** stack pointer, r29 *)

val ra : t (** return address, r31 *)

val frv : f (** float return value, f0 *)

val farg : int -> f
(** [farg i] is the i-th float argument register (0..3), f12..f15. *)

val ftmp : int -> f
(** [ftmp i] is the i-th caller-saved float temporary (0..7), f2..f9. *)

val n_ftmp_regs : int

val fsav : int -> f
(** [fsav i] is the i-th callee-saved float local register (0..7), f20..f27. *)

val n_fsav_regs : int

val fscratch : f (** codegen scratch, f30 *)

val fscratch1 : f (** codegen scratch, f31 *)

val uid_of_float : f -> int
(** Unified id of a float register ([32 + f]). *)

val n_unified : int
(** Size of the unified id space (64). *)

val caller_saved : int list
(** Unified ids a call may clobber: return values, argument and temporary
    banks, scratch registers and [ra]. *)

val callee_saved : int list
(** Unified ids preserved across calls: the [sav]/[fsav] banks and [sp]. *)

val pp : Format.formatter -> t -> unit
(** Prints [r4] style names. *)

val pp_f : Format.formatter -> f -> unit
(** Prints [f12] style names. *)

val pp_uid : Format.formatter -> int -> unit
(** Prints a unified id as [r..] or [f..]. *)
