type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  q : 'a Queue.t;
  limit : int;
  mutable closed : bool;
}

let create ~limit =
  { mutex = Mutex.create ();
    nonempty = Condition.create ();
    q = Queue.create ();
    limit = max 1 limit;
    closed = false }

let limit t = t.limit

let length t =
  Mutex.lock t.mutex;
  let n = Queue.length t.q in
  Mutex.unlock t.mutex;
  n

let push t x =
  Mutex.lock t.mutex;
  let r =
    if t.closed then `Closed
    else
      let depth = Queue.length t.q in
      if depth >= t.limit then `Overloaded depth
      else begin
        Queue.add x t.q;
        Condition.signal t.nonempty;
        `Ok (depth + 1)
      end
  in
  Mutex.unlock t.mutex;
  r

let pop t =
  Mutex.lock t.mutex;
  let rec go () =
    match Queue.take_opt t.q with
    | Some x -> Some x
    | None ->
      if t.closed then None
      else begin
        Condition.wait t.nonempty t.mutex;
        go ()
      end
  in
  let r = go () in
  Mutex.unlock t.mutex;
  r

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex
