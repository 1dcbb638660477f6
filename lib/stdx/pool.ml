type stats = {
  depth : int;
  depth_highwater : int;
  in_flight : int;
  in_flight_highwater : int;
  submitted : int;
  completed : int;
  steal_attempts : int;
  steals : int;
  parks : int;
  wakes : int;
}

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

(* Run [f x], capturing a raise with its backtrace so a failing task
   never unwinds through the scheduler. *)
let capture f x : _ outcome =
  match f x with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

let unbox : 'a outcome -> 'a = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* Resolved once, under the pool's mutex.  An [Atomic] so that [poll],
   which takes no pool, may read it without the lock. *)
type 'a future = 'a outcome option Atomic.t

(* A queued task: its function and the future it resolves. *)
type job = Job : (unit -> 'a) * 'a future -> job

let no_job = Job ((fun () -> ()), Atomic.make None)

(* One mutex guards every field below, and one condition carries every
   wake-up: a push to an idle worker, a completion to a blocked
   awaiter, the shutdown to all.  The ring is a growable circular
   buffer: workers take the oldest job at [head], helpers the newest at
   [head + depth - 1].  See DESIGN.md §16. *)
type t = {
  jobs : int;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable ring : job array;  (* length a power of two *)
  mutable head : int;
  mutable depth : int;
  mutable sleepers : int;  (* awaiters blocked on [cond] *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable in_flight : int;
  mutable depth_hw : int;
  mutable in_flight_hw : int;
  mutable submitted : int;
  mutable completed : int;
  mutable looks : int;  (* a worker checked the ring *)
  mutable takes : int;  (* ... and took a job from it *)
  mutable parks : int;
  mutable wakes : int;
}

let push t job =
  let n = Array.length t.ring in
  if t.depth = n then begin
    let ring = Array.make (2 * n) no_job in
    for i = 0 to n - 1 do
      ring.(i) <- t.ring.((t.head + i) land (n - 1))
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.((t.head + t.depth) land (Array.length t.ring - 1)) <- job;
  t.depth <- t.depth + 1;
  if t.depth > t.depth_hw then t.depth_hw <- t.depth

(* Clearing the slot keeps a finished closure, and its batch's
   results, from outliving the batch. *)
let take t slot =
  let job = t.ring.(slot) in
  t.ring.(slot) <- no_job;
  t.depth <- t.depth - 1;
  job

let oldest t =
  let slot = t.head in
  t.head <- (slot + 1) land (Array.length t.ring - 1);
  take t slot

let newest t = take t ((t.head + t.depth - 1) land (Array.length t.ring - 1))

(* Run [job] on the calling domain.  Entered and left with the mutex
   held; the mutex is released while the job's function runs.  The
   counts move before the future resolves, so whoever sees the result
   sees the totals that include it. *)
let run t (Job (f, fut)) =
  t.in_flight <- t.in_flight + 1;
  if t.in_flight > t.in_flight_hw then t.in_flight_hw <- t.in_flight;
  Mutex.unlock t.mutex;
  let r = capture f () in
  Mutex.lock t.mutex;
  t.in_flight <- t.in_flight - 1;
  t.completed <- t.completed + 1;
  Atomic.set fut (Some r);
  if t.sleepers > 0 then Condition.broadcast t.cond

let worker t =
  Mutex.lock t.mutex;
  while not t.stop do
    t.looks <- t.looks + 1;
    if t.depth > 0 then begin
      t.takes <- t.takes + 1;
      run t (oldest t)
    end
    else begin
      t.parks <- t.parks + 1;
      Condition.wait t.cond t.mutex;
      t.wakes <- t.wakes + 1
    end
  done;
  Mutex.unlock t.mutex

let create ?(jobs = recommended_jobs ()) () =
  let t =
    { jobs = max 1 jobs; mutex = Mutex.create (); cond = Condition.create ();
      ring = Array.make 16 no_job; head = 0; depth = 0; sleepers = 0;
      stop = false; workers = []; in_flight = 0; depth_hw = 0;
      in_flight_hw = 0; submitted = 0; completed = 0; looks = 0; takes = 0;
      parks = 0; wakes = 0 }
  in
  t.workers <-
    List.init (t.jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let jobs t = t.jobs

let stats t : stats =
  Mutex.lock t.mutex;
  let s =
    { depth = t.depth; depth_highwater = t.depth_hw; in_flight = t.in_flight;
      in_flight_highwater = t.in_flight_hw; submitted = t.submitted;
      completed = t.completed; steal_attempts = t.looks; steals = t.takes;
      parks = t.parks; wakes = t.wakes }
  in
  Mutex.unlock t.mutex;
  s

(* Queue [f] at the back of the ring and wake one waiter, or, when
   [inline], run it here and now with the same accounting. *)
let submit t ~inline f =
  let fut = Atomic.make None in
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: the pool is shut down"
  end;
  t.submitted <- t.submitted + 1;
  if inline then run t (Job (f, fut))
  else begin
    push t (Job (f, fut));
    Condition.signal t.cond
  end;
  Mutex.unlock t.mutex;
  fut

(* Help until [fut] resolves: run the newest queued job, and block only
   while the ring is empty, that is while [fut]'s job runs on another
   domain. *)
let wait t fut =
  if Option.is_none (Atomic.get fut) then begin
    Mutex.lock t.mutex;
    while Option.is_none (Atomic.get fut) do
      if t.depth > 0 then run t (newest t)
      else begin
        t.sleepers <- t.sleepers + 1;
        Condition.wait t.cond t.mutex;
        t.sleepers <- t.sleepers - 1
      end
    done;
    Mutex.unlock t.mutex
  end;
  Option.get (Atomic.get fut)

let async t f = submit t ~inline:(t.jobs = 1) f
let await t fut = unbox (wait t fut)
let poll fut = Option.is_some (Atomic.get fut)

(* Every element is awaited before anything is re-raised, so the batch
   has run whole; then the lowest-indexed failure wins, whichever
   domain hit it first. *)
let map_array t f arr =
  let inline = t.jobs = 1 || Array.length arr = 1 in
  let futs = Array.map (fun x -> submit t ~inline (fun () -> f x)) arr in
  let outcomes = Array.map (wait t) futs in
  Array.iter
    (function Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
    outcomes;
  Array.map unbox outcomes

let map_list t f l = Array.to_list (map_array t f (Array.of_list l))

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.cond;
  let ws = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join ws

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
