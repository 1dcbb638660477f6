(** Paged word tables.

    An [int]-valued map over word addresses [>= 0], stored as 4 Ki-word
    pages that are created on their first [set].  A page never written
    reads as [0], so the table behaves like a zero-filled array while
    its footprint is proportional to the pages actually touched.  A
    program touches only its data segment (low addresses) and its stack
    (top of memory), a handful of pages out of millions of words.

    Two hot loops share it: the VM's integer memory
    ({!Vm.Exec.run}) and the analyzer's per-machine last-write table
    ({!Ilp.Analyze}), which lands every load and store of every trace
    entry of every machine state here. *)

type t

val page_bits : int
(** [log2 page_words]. *)

val page_words : int
(** Words per page: 4096. *)

val create : int -> t
(** [create words] is an all-zero table sized for addresses
    [0 .. words - 1].  No page is allocated until the first [set]. *)

val words : t -> int
(** The [words] the table was created with. *)

val get : t -> int -> int
(** [get t addr] for [addr >= 0]: the last value [set] at [addr], or [0].
    Addresses beyond the directory read as [0]. *)

val set : t -> int -> int -> unit
(** [set t addr v] for [addr >= 0].  Allocates [addr]'s page on first
    use; an address beyond [words] grows the page directory. *)

val max_run : t -> int -> int array -> int -> unit
(** [max_run t addr row n] raises [row.(i)] to [get t (addr + i)] for
    [i < n], with one page lookup when the run lies in one page. *)

val set_run : t -> int -> int array -> int -> unit
(** [set_run t addr row n] sets [addr + i] to [row.(i)] for [i < n],
    with one page lookup when the run lies in one page. *)
