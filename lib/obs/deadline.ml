(* A wall-clock budget on the monotonic clock (the span clock), so
   suspends/clock steps never fire or starve a deadline spuriously. *)

type t = {
  d_budget_ms : int;
  d_start_ns : int64;
  d_stop_ns : int64;
}

exception Expired of { budget_ms : int; elapsed_ms : int }

let start ~budget_ms =
  let budget_ms = max 0 budget_ms in
  let now = Monotonic_clock.now () in
  { d_budget_ms = budget_ms;
    d_start_ns = now;
    d_stop_ns = Int64.add now (Int64.mul (Int64.of_int budget_ms) 1_000_000L) }

let budget_ms t = t.d_budget_ms

let elapsed_ms t =
  Int64.to_int
    (Int64.div (Int64.sub (Monotonic_clock.now ()) t.d_start_ns) 1_000_000L)

let expired t = Monotonic_clock.now () >= t.d_stop_ns

let check t =
  if expired t then
    raise (Expired { budget_ms = t.d_budget_ms; elapsed_ms = elapsed_ms t })

(* Sampled enforcement for the VM retirement path: one [land] per
   retired instruction, a clock read every [every] (rounded up to a
   power of two).  The hook raises [Expired], which the harness
   converts into the typed [Deadline_exceeded] error — the VM itself
   stays oblivious. *)
let observe ?(every = 4096) t =
  let rec pow2 p = if p >= every then p else pow2 (p * 2) in
  let mask = pow2 1 - 1 in
  fun ~pc:_ ~step ~regs:_ ~fregs:_ ~mem:_ ->
    if step land mask = 0 then check t
