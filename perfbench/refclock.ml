(* Timing at reference speed, and the percentile rule the report uses.

   The host's speed drifts by tens of percent over seconds to minutes
   (other tenants, frequency scaling), so a raw op time measures the host
   as much as the program.  Every timed op is bracketed by a fixed,
   allocation-free kernel that touches no repository code; the op's host
   time is divided by the mean of the two kernel times around it and
   multiplied by the kernel's nominal time.  The result is the op's time
   on a host where the kernel takes exactly [nominal_ms]. *)

let now_ns () = Obs.Span.now_ns ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* The kernel's time on the reference host, set once.  Scaled times are
   expressed in this host's milliseconds. *)
let nominal_ms = 20.0

(* The kernel has three parts of about 7 ms each, one per kind of host
   contention the ops feel:
   - [dispatch]: a branchy interpreter loop in L1, like the VM's;
   - [walk]: random read-modify-write over 8 MiB, past the 2 MiB
     per-core L2 into the shared L3, like the analyzer's tables;
   - [stream]: sequential fills of 8 MiB, memory bandwidth, like the VM's
     zero-filled memory and trace buffers.
   Each domain has its own arrays, outside the OCaml heap so the GC never
   scans them.  Refs stay in registers; nothing allocates, so the kernel
   never moves the GC state the timed ops see. *)
let words = 1 lsl 20

type arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type space = { code : arr; regs : arr; table : arr; buf : arr }

let dispatch_steps = 2_000_000
let walk_steps = 1_000_000
let stream_fills = 6

let dispatch s =
  let module B = Bigarray.Array1 in
  let code = s.code and g = s.regs in
  let mask = B.dim code - 1 in
  let pc = ref 0 and acc = ref 0 in
  for _ = 1 to dispatch_steps do
    (match B.unsafe_get code !pc with
    | 0 -> B.unsafe_set g 1 (B.unsafe_get g 1 + B.unsafe_get g 2)
    | 1 -> B.unsafe_set g 2 (B.unsafe_get g 2 lxor (B.unsafe_get g 3 lsl 1))
    | 2 -> B.unsafe_set g 3 (B.unsafe_get g 3 + 7)
    | 3 -> if B.unsafe_get g 1 land 1 = 0 then acc := !acc + 1
    | 4 -> B.unsafe_set g 4 (B.unsafe_get g 4 * 3)
    | 5 -> B.unsafe_set g 5 (B.unsafe_get g 5 - B.unsafe_get g 1)
    | 6 -> acc := !acc lxor B.unsafe_get g 5
    | _ -> B.unsafe_set g 6 (B.unsafe_get g 6 + !acc));
    pc := (!pc + 1) land mask
  done;
  !acc

let walk s =
  let a = s.table in
  let mask = Bigarray.Array1.dim a - 1 in
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to walk_steps do
    x := ((!x * 1103515245) + 12345) land 0x3fff_ffff;
    let i = !x land mask in
    let v = Bigarray.Array1.unsafe_get a i in
    Bigarray.Array1.unsafe_set a i (v + !acc);
    acc := (!acc lxor v) + 1
  done;
  !acc

let stream s =
  for k = 1 to stream_fills do
    Bigarray.Array1.fill s.buf k
  done;
  Bigarray.Array1.unsafe_get s.buf 0

let max_domains = 2

let space () =
  let make n =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Bigarray.Array1.fill a 0;
    a
  in
  let code = make 4096 in
  for i = 0 to 4095 do
    Bigarray.Array1.set code i ((i * 7919) land 7)
  done;
  { code; regs = make 8; table = make words; buf = make words }

let spaces = Array.init max_domains (fun _ -> space ())
let sink = Atomic.make 0

let timed_work s =
  let t0 = now_ns () in
  let r = dispatch s + walk s + stream s in
  let t1 = now_ns () in
  Atomic.set sink r;
  ms_between t0 t1

(* One kernel run on [domains] domains at once, as many as the op it
   brackets uses: a helper domain is spawned, both start together, and
   the time is that of the slower one (the op waits for its slowest
   domain too).  Spawning is outside the timed section. *)
let kernel_ms ~domains =
  let domains = max 1 (min max_domains domains) in
  if domains = 1 then timed_work spaces.(0)
  else begin
    let ready = Atomic.make 0 and go = Atomic.make false in
    let run a () =
      Atomic.incr ready;
      while not (Atomic.get go) do Domain.cpu_relax () done;
      timed_work a
    in
    let helpers =
      List.init (domains - 1) (fun i -> Domain.spawn (run spaces.(i + 1)))
    in
    while Atomic.get ready < domains - 1 do Domain.cpu_relax () done;
    Atomic.incr ready;
    Atomic.set go true;
    let own = run spaces.(0) () in
    List.fold_left (fun m d -> Float.max m (Domain.join d)) own helpers
  end

(* [scale ~before ~after raw_ms]: the bracketing arithmetic. *)
let scale ~before ~after raw_ms =
  raw_ms /. ((before +. after) /. 2.0) *. nominal_ms

(* A chain of bracketed measurements: kernel, op, kernel, op, kernel...
   The kernel after one op is the kernel before the next; only short
   untimed work (checks, a collection) runs between them. *)
type chain = { domains : int; mutable last : float }

let chain ~domains =
  ignore (kernel_ms ~domains);
  { domains; last = kernel_ms ~domains }

(* Time [f] between two kernel runs; returns (result, raw ms, scaled ms). *)
let timed c f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let raw = ms_between t0 t1 in
  let after = kernel_ms ~domains:c.domains in
  let scaled = scale ~before:c.last ~after raw in
  c.last <- after;
  (r, raw, scaled)

(* Nearest-rank percentile: the smallest sample such that at least [p]
   percent of the samples are at or below it. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "percentile: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs
