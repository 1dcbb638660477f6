(** Interpreter for resolved assembly programs.

    Executes a {!Asm.Program.flat} program and records a {!Trace.t}.
    Memory is word addressed; integer and floating-point cells live in
    two paged tables sharing one address space (the typed Mini-C code
    generator never accesses one address with both widths).  A 4 Ki-word
    page is allocated on its first store and a page never stored to
    reads as [0] / [0.], so an execution costs O(pages touched), not
    O([mem_words]).  The stack pointer starts near the top of memory and
    grows down; the data segment occupies low addresses.  A data segment
    that does not fit in memory is a [Mem_out_of_range] fault at step 0.

    Execution is deterministic.  It stops at [Halt], when [fuel]
    instructions have retired (the paper similarly truncates traces at
    100M instructions), or on a fault.

    {b Faults are data, not exceptions.}  Every outcome — including a
    fault — carries the trace prefix and the retired-step count, so a
    failed execution still yields an analyzable partial result; the
    {!Pipeline_error.fault_info} payload says which instruction tripped
    and why.  [run] never raises on program behaviour. *)

type status =
  | Halted of int  (** value of the return-value register at [Halt] *)
  | Out_of_fuel
  | Fault of Pipeline_error.fault_info

type outcome = {
  status : status;
  trace : Trace.t;
  steps : int;
}

val status_string : status -> string
(** One-word tag: ["halted"], ["out_of_fuel"] or ["fault"]. *)

val pp_status : Format.formatter -> status -> unit

val completeness_of : outcome -> Pipeline_error.completeness
(** [Complete] for a halted run; [Truncated] carrying the fuel or fault
    descriptor otherwise.  This is the tag analysis results inherit. *)

val default_mem_words : int

val max_mem_words : int
(** Resource guard: the largest address range the VM will agree to
    serve.  Memory is paged, so this bounds the valid addresses and the
    page directory (one slot per 4 Ki words), not an up-front
    allocation.  See {!validate_mem_words}. *)

val validate_mem_words : ?workload:string -> int -> (int, Pipeline_error.t) result
(** Checks a requested memory size against [1 <= n <= max_mem_words],
    returning [Budget_exceeded] (or [Invalid_request]) instead of
    letting an oversized request OOM the process. *)

val run :
  ?mem_words:int ->
  ?fuel:int ->
  ?record:bool ->
  ?sink:Trace.sink ->
  ?observe:
    (pc:int -> step:int -> regs:int array -> fregs:float array ->
     mem:Stdx.Mem_table.t -> unit) ->
  ?probe:Obs.Probe.vm ->
  Asm.Program.flat ->
  outcome
(** [run flat] executes the program from its entry point.  [fuel]
    defaults to 10 million retired instructions; [record] (default
    [true]) controls whether a materialized trace is captured.  When
    [sink] is given it receives every retired instruction as it
    executes (and a close on termination), independently of [record];
    [~record:false ~sink] streams the trace without ever holding it in
    memory, so the footprint is O(program + VM memory) regardless of
    trace length.  [observe] is called after [sink]'s [on_entry] for
    each retired instruction with the 0-based retirement index [step]
    and the live register files and integer memory (not copies —
    callers must not retain them).  [mem] is the integer page table,
    created with [mem_words]: a {!Stdx.Mem_table.set} below
    [Stdx.Mem_table.words mem] is a store the program will observe.
    Value-level trace checkers ({!Cfg.Verify.Dynamic.observe}) hang off
    this hook, and the fault injector writes through [mem] to corrupt
    state mid-execution.

    [probe] (default {!Obs.Probe.vm_disabled}) publishes execution
    metrics — retired steps, execution/fault counts, and a sampled
    stack-depth histogram — to its registry.  Disabled, it costs the
    retirement path one hoisted bool test.

    [mem_words] is trusted here (callers go through
    {!validate_mem_words}): it fixes the address range and sizes the
    page directory, and [Invalid_argument] is possible only for a
    nonsensical negative size. *)
