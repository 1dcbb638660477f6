type probe_event =
  [ `Submit | `Start | `Finish | `Steal | `Steal_miss | `Park | `Wake ]

type probe = probe_event -> depth:int -> deque:int -> in_flight:int -> unit

type stats = {
  depth : int;
  deque_depth : int;
  in_flight : int;
  submitted : int;
  completed : int;
  steal_attempts : int;
  steals : int;
  parks : int;
  wakes : int;
}

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

type task = unit -> unit
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

(* Single-shot result box, resolved under its own mutex/condition so an
   [await]er that ran out of work to help with can sleep without
   touching any scheduler lock. *)
module Future = struct
  type 'a t = {
    mutex : Mutex.t;
    cond : Condition.t;
    mutable state : 'a outcome option;  (* [None] while pending *)
  }

  let make () =
    { mutex = Mutex.create (); cond = Condition.create (); state = None }

  let resolve fut outcome =
    Mutex.lock fut.mutex;
    fut.state <- Some outcome;
    Condition.broadcast fut.cond;
    Mutex.unlock fut.mutex

  let peek fut =
    Mutex.lock fut.mutex;
    let s = fut.state in
    Mutex.unlock fut.mutex;
    s

  let poll fut = Option.is_some (peek fut)

  (* Block until resolved; used only once helping found nothing
     runnable, i.e. the task is in flight on another domain. *)
  let wait fut =
    Mutex.lock fut.mutex;
    while Option.is_none fut.state do
      Condition.wait fut.cond fut.mutex
    done;
    Mutex.unlock fut.mutex
end

(* A growable circular Chase–Lev deque (Chase & Lev, SPAA 2005), in
   the style of domainslib's ws_deque.  OCaml's GC stands in for the
   reclamation side of the original algorithm, and sequentially
   consistent atomics for its fences. *)
module Deque = struct
  let no_task : task = fun () -> ()

  type t = {
    top : int Atomic.t;  (* next index thieves take from *)
    bottom : int Atomic.t;  (* next index the owner pushes at *)
    buf : task array Atomic.t;  (* circular; length always a power of 2 *)
  }

  type steal_result = Empty | Lost | Stolen of task

  let create () =
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      buf = Atomic.make (Array.make 16 no_task);
    }

  let size d = max 0 (Atomic.get d.bottom - Atomic.get d.top)

  (* Owner only.  The old buffer is copied, never mutated, so a
     concurrent thief holding it still reads valid tasks. *)
  let grow d b t a =
    let n = Array.length a in
    let a' = Array.make (2 * n) no_task in
    for i = t to b - 1 do
      a'.(i land ((2 * n) - 1)) <- a.(i land (n - 1))
    done;
    Atomic.set d.buf a';
    a'

  (* Owner only. *)
  let push d task =
    let b = Atomic.get d.bottom in
    let t = Atomic.get d.top in
    let a = Atomic.get d.buf in
    let a = if b - t >= Array.length a then grow d b t a else a in
    a.(b land (Array.length a - 1)) <- task;
    Atomic.set d.bottom (b + 1)

  (* Owner only. *)
  let pop d =
    let b = Atomic.get d.bottom - 1 in
    Atomic.set d.bottom b;
    let t = Atomic.get d.top in
    if b < t then begin
      (* Already empty. *)
      Atomic.set d.bottom t;
      None
    end
    else begin
      let a = Atomic.get d.buf in
      let i = b land (Array.length a - 1) in
      let task = a.(i) in
      if b > t then begin
        (* More than one element: no thief can be reading slot [i]
           (they contend below [bottom - 1]), so clearing it is safe
           and keeps the closure from outliving its batch. *)
        a.(i) <- no_task;
        Some task
      end
      else begin
        (* Last element: race the thieves for it via [top]. *)
        let won = Atomic.compare_and_set d.top t (t + 1) in
        Atomic.set d.bottom (t + 1);
        if won then Some task else None
      end
    end

  (* Any thief.  [Lost] means a concurrent pop/steal won the race for
     index [t]; the deque may still be non-empty, so callers retry
     the same victim until [Empty] or [Stolen] — that confirmed-empty
     discipline is what the parking argument relies on. *)
  let steal d =
    let t = Atomic.get d.top in
    let b = Atomic.get d.bottom in
    if b - t <= 0 then Empty
    else begin
      let a = Atomic.get d.buf in
      let task = a.(t land (Array.length a - 1)) in
      (* If the owner overwrote slot [t] (buffer wrap) then some thief
         already advanced [top] past [t], so this CAS fails and the
         possibly-stale read is discarded. *)
      if Atomic.compare_and_set d.top t (t + 1) then Stolen task else Lost
    end
end

(* Topology: [jobs] Chase–Lev deques.  Deque 0 belongs to submitting
   threads (the "submitter owns a deque too" re-expression of helping);
   deques 1..jobs-1 each belong to exactly one worker domain.  Owners
   push and pop LIFO at the bottom; thieves steal FIFO at the top with
   a single compare-and-set on [top].

   One asymmetry: worker deques have a true single owner (the worker
   domain), so owner operations there are lock-free.  Deque 0 does
   not — the serve daemon submits from several systhreads of the main
   domain, and tests submit from whatever context they like — so owner
   operations on deque 0 alone are serialized by [sub_mutex].  Thieves
   never take that lock; stealing from deque 0 stays lock-free.

   Parking: a worker that found nothing to pop or steal sleeps on
   [park_cond], guarded by an epoch counter.  Every push bumps [epoch]
   (atomically) and wakes sleepers if any; a worker about to park
   re-reads the epoch under [park_mutex] after a final exhaustive steal
   sweep, and refuses to sleep if the epoch moved.  Because the atomics
   are sequentially consistent this cannot lose a wakeup: a push either
   lands before the worker's final sweep (the sweep finds it — sweeps
   only skip a victim on a confirmed-empty read, retrying lost CAS
   races) or after the worker's epoch read (the recheck sees the bump
   and the worker does not sleep).  See DESIGN.md §16. *)

type t = {
  uid : int;  (* key for the domain-local deque registry *)
  jobs : int;
  deques : Deque.t array;  (* .(0) = submitters, .(k >= 1) = worker k *)
  sub_mutex : Mutex.t;  (* serializes owner ops on deques.(0) only *)
  park_mutex : Mutex.t;
  park_cond : Condition.t;
  epoch : int Atomic.t;  (* bumped by every push *)
  parked : int Atomic.t;  (* workers currently asleep *)
  stop : bool Atomic.t;
  mutable workers : unit Domain.t list;
  in_flight : int Atomic.t;
  submitted : int Atomic.t;
  completed : int Atomic.t;
  steal_attempts : int Atomic.t;
  steals : int Atomic.t;
  parks : int Atomic.t;
  wakes : int Atomic.t;
  probe : probe option Atomic.t;
}

let next_uid = Atomic.make 0

(* Which deque does the calling domain own, per pool?  Workers
   register themselves at spawn; every other domain (the submitter,
   serve's systhreads, test runners) maps to deque 0. *)
let dls_key : (int * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let my_index t =
  match List.assoc_opt t.uid !(Domain.DLS.get dls_key) with
  | Some k -> k
  | None -> 0

let register_index t k =
  let regs = Domain.DLS.get dls_key in
  regs := (t.uid, k) :: !regs

let depths t =
  let total = ref 0 and deepest = ref 0 in
  Array.iter
    (fun d ->
      let s = Deque.size d in
      total := !total + s;
      if s > !deepest then deepest := s)
    t.deques;
  (!total, !deepest)

let notify t event =
  match Atomic.get t.probe with
  | None -> ()
  | Some f ->
      let depth, deque = depths t in
      f event ~depth ~deque ~in_flight:(Atomic.get t.in_flight)

(* Owner operations, routed through [sub_mutex] for deque 0 (shared
   between the main domain's systhreads) and lock-free for the true
   single-owner worker deques. *)
let own_push t k task =
  if k = 0 then begin
    Mutex.lock t.sub_mutex;
    Deque.push t.deques.(0) task;
    Mutex.unlock t.sub_mutex
  end
  else Deque.push t.deques.(k) task

let own_pop t k =
  if k = 0 then begin
    Mutex.lock t.sub_mutex;
    let r = Deque.pop t.deques.(0) in
    Mutex.unlock t.sub_mutex;
    r
  end
  else Deque.pop t.deques.(k)

(* Scheduling-only xorshift: victim order must not be a convoy (every
   thief hammering deque 0 first), and seeding it from the thief's
   identity keeps a run's steal pattern reproducible for a given
   interleaving.  Results never depend on it — only placement does. *)
let rng_seed k = (0x9E3779B9 * (k + 1)) lxor 0x2545F491

let rng_next st =
  let x = !st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  st := x;
  x land max_int

(* One exhaustive steal sweep: every deque except [self], starting
   from a random victim, retrying a victim on a lost race so that
   [None] means every other deque was observed empty. *)
let try_steal t ~self ~rng =
  let n = Array.length t.deques in
  let rec probe_victim v =
    Atomic.incr t.steal_attempts;
    match Deque.steal t.deques.(v) with
    | Deque.Stolen task ->
        Atomic.incr t.steals;
        notify t `Steal;
        Some task
    | Deque.Lost -> probe_victim v
    | Deque.Empty ->
        notify t `Steal_miss;
        None
  in
  if n <= 1 then None
  else begin
    let start = rng_next rng mod n in
    let rec scan i =
      if i = n then None
      else
        let v = (start + i) mod n in
        if v = self then scan (i + 1)
        else
          match probe_victim v with
          | Some task -> Some task
          | None -> scan (i + 1)
    in
    scan 0
  end

(* Execute one task.  The task closure itself performs the finish
   accounting (completed/in_flight/`Finish) *before* signaling its
   batch or future, so a caller woken by the completion observes
   fully-updated totals. *)
let exec_task t task =
  Atomic.incr t.in_flight;
  notify t `Start;
  task ()

let finish_accounting t =
  Atomic.decr t.in_flight;
  Atomic.incr t.completed;
  notify t `Finish

let enqueue t task =
  let k = my_index t in
  own_push t k task;
  Atomic.incr t.submitted;
  notify t `Submit;
  Atomic.incr t.epoch;
  if Atomic.get t.parked > 0 then begin
    Mutex.lock t.park_mutex;
    Condition.broadcast t.park_cond;
    Mutex.unlock t.park_mutex
  end

let worker_loop t k =
  register_index t k;
  let rng = ref (rng_seed k) in
  let rec loop () =
    if Atomic.get t.stop then ()
    else
      match Deque.pop t.deques.(k) with
      | Some task ->
          exec_task t task;
          loop ()
      | None -> (
          match try_steal t ~self:k ~rng with
          | Some task ->
              exec_task t task;
              loop ()
          | None ->
              park ();
              loop ())
  and park () =
    let e = Atomic.get t.epoch in
    (* Final sweep after reading the epoch: a task pushed before the
       read is found here (the sweep only passes a deque on a
       confirmed-empty read), and one pushed after it bumps the
       epoch, so the recheck below refuses to sleep.  Our own deque
       needs no sweep — only its owner pushes there, and we are its
       owner. *)
    match try_steal t ~self:k ~rng with
    | Some task -> exec_task t task
    | None ->
        if not (Atomic.get t.stop) then begin
          Mutex.lock t.park_mutex;
          Atomic.incr t.parked;
          if Atomic.get t.epoch = e && not (Atomic.get t.stop) then begin
            Atomic.incr t.parks;
            notify t `Park;
            Condition.wait t.park_cond t.park_mutex;
            Atomic.incr t.wakes;
            notify t `Wake
          end;
          Atomic.decr t.parked;
          Mutex.unlock t.park_mutex
        end
  in
  loop ()

let create ?(jobs = recommended_jobs ()) () =
  let jobs = max 1 jobs in
  let t =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      jobs;
      deques = Array.init jobs (fun _ -> Deque.create ());
      sub_mutex = Mutex.create ();
      park_mutex = Mutex.create ();
      park_cond = Condition.create ();
      epoch = Atomic.make 0;
      parked = Atomic.make 0;
      stop = Atomic.make false;
      workers = [];
      in_flight = Atomic.make 0;
      submitted = Atomic.make 0;
      completed = Atomic.make 0;
      steal_attempts = Atomic.make 0;
      steals = Atomic.make 0;
      parks = Atomic.make 0;
      wakes = Atomic.make 0;
      probe = Atomic.make None;
    }
  in
  if jobs > 1 then
    t.workers <-
      List.init (jobs - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let jobs t = t.jobs
let set_probe t p = Atomic.set t.probe p

let stats t =
  let depth, deque_depth = depths t in
  {
    depth;
    deque_depth;
    in_flight = Atomic.get t.in_flight;
    submitted = Atomic.get t.submitted;
    completed = Atomic.get t.completed;
    steal_attempts = Atomic.get t.steal_attempts;
    steals = Atomic.get t.steals;
    parks = Atomic.get t.parks;
    wakes = Atomic.get t.wakes;
  }

let check_alive t op =
  if Atomic.get t.stop then
    invalid_arg (Printf.sprintf "Pool.%s: pool is shut down" op)

(* The [jobs = 1] path: run one task at submit time on the calling
   domain, with the same accounting and probe events as a queued
   task. *)
let run_inline t f x =
  Atomic.incr t.submitted;
  notify t `Submit;
  Atomic.incr t.in_flight;
  notify t `Start;
  let r = capture f x in
  finish_accounting t;
  r

(* Help until [quiescent ()] turns true: pop own work LIFO, then
   steal, and only when nothing is runnable anywhere hand control to
   [sleep] (which blocks on the batch's or future's condition and
   returns once signaled).  Helping from an owned deque is what keeps
   nested maps and future-awaiting-future chains deadlock-free: the
   dependency's task is either in some deque (the exhaustive sweep
   finds it) or already running on another domain (sleeping is then
   productive, and bounded by that task's completion). *)
let rec help t ~self ~rng ~quiescent ~sleep =
  if not (quiescent ()) then
    match own_pop t self with
    | Some task ->
        exec_task t task;
        help t ~self ~rng ~quiescent ~sleep
    | None -> (
        match try_steal t ~self ~rng with
        | Some task ->
            exec_task t task;
            help t ~self ~rng ~quiescent ~sleep
        | None ->
            sleep ();
            help t ~self ~rng ~quiescent ~sleep)

(* Re-raise the lowest-indexed failure, if any — deterministic no
   matter which domain hit it first — once the whole batch has run. *)
let settle outcomes =
  Array.iter
    (function Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
    outcomes;
  Array.map unbox outcomes

let map_array t f arr =
  check_alive t "map_array";
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then settle (Array.map (run_inline t f) arr)
  else begin
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let done_mutex = Mutex.create () in
    let done_cond = Condition.create () in
    let run_one i () =
      results.(i) <- Some (capture f arr.(i));
      finish_accounting t;
      (* The atomic decrement publishes the slot write above: a
         reader that saw [remaining = 0] sees every result. *)
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock done_mutex;
        Condition.broadcast done_cond;
        Mutex.unlock done_mutex
      end
    in
    for i = 0 to n - 1 do
      enqueue t (run_one i)
    done;
    let self = my_index t in
    let rng = ref (rng_seed (self + 0x51)) in
    help t ~self ~rng
      ~quiescent:(fun () -> Atomic.get remaining = 0)
      ~sleep:(fun () ->
        Mutex.lock done_mutex;
        while Atomic.get remaining > 0 do
          Condition.wait done_cond done_mutex
        done;
        Mutex.unlock done_mutex);
    settle (Array.map Option.get results)
  end

let map_list t f l = Array.to_list (map_array t f (Array.of_list l))

type 'a future = 'a Future.t

let async t f =
  check_alive t "async";
  let fut = Future.make () in
  if t.jobs = 1 then Future.resolve fut (run_inline t f ())
  else
    enqueue t (fun () ->
        let r = capture f () in
        finish_accounting t;
        Future.resolve fut r);
  fut

let poll = Future.poll

let await t fut =
  match Future.peek fut with
  | Some r -> unbox r
  | None ->
      let self = my_index t in
      let rng = ref (rng_seed (self + 0xA7)) in
      help t ~self ~rng
        ~quiescent:(fun () -> Future.poll fut)
        ~sleep:(fun () -> Future.wait fut);
      unbox (Option.get (Future.peek fut))

let shutdown t =
  Atomic.set t.stop true;
  Mutex.lock t.park_mutex;
  Condition.broadcast t.park_cond;
  Mutex.unlock t.park_mutex;
  let ws = t.workers in
  t.workers <- [];
  List.iter Domain.join ws

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
