type addr =
  | Unix_sock of string
  | Tcp of string * int

type t = {
  fd : Unix.file_descr;
  mutable next_id : int;
}

let connect addr =
  let domain, sockaddr =
    match addr with
    | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      ( Unix.PF_INET,
        Unix.ADDR_INET (Unix.inet_addr_of_string host, port) )
  in
  match
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd sockaddr
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | fd -> Ok { fd; next_id = 0 }
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let call t payload =
  match Protocol.write_frame t.fd payload with
  | Error e -> Error ("write: " ^ e)
  | Ok () -> (
    match Protocol.read_frame t.fd with
    | Error Protocol.Closed | Error Protocol.Truncated ->
      Error "connection closed by server"
    | Error (Protocol.Too_large n) ->
      Error (Printf.sprintf "oversized response (%d bytes)" n)
    | Error (Protocol.Io e) -> Error ("read: " ^ e)
    | Ok body -> (
      match Stdx.Jsonx.parse body with
      | Ok json -> Ok json
      | Error e -> Error ("unparseable response: " ^ e)))

type outcome = {
  o_response : Protocol.response;
  o_attempts : int;
}

let sleep_ms ms = if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.)

let call_retry ?(attempts = 5) ?(base_ms = 10) ~seed addr ~make_payload =
  let attempts = max 1 attempts in
  let backoff_ms ~attempt ~hint =
    (* seeded jitter: the same (seed, attempt) always waits the same *)
    let jitter =
      if base_ms <= 0 then 0
      else
        let r = Fault.Injector.Rng.derive ~seed ~index:attempt in
        (r land max_int) mod base_ms
    in
    Option.value hint ~default:0 + (base_ms * (1 lsl min attempt 10)) + jitter
  in
  let rec go attempt ~hint ~last_io_error =
    if attempt >= attempts then
      match last_io_error with
      | Some e -> Error e
      | None -> Error "retries exhausted"
    else begin
      if attempt > 0 then sleep_ms (backoff_ms ~attempt ~hint);
      match connect addr with
      | Error e -> go (attempt + 1) ~hint:None ~last_io_error:(Some e)
      | Ok conn -> (
        let id = fresh_id conn in
        let r = call conn (make_payload ~id) in
        close conn;
        match r with
        | Error e -> go (attempt + 1) ~hint:None ~last_io_error:(Some e)
        | Ok json ->
          let resp = Protocol.decode_response json in
          if
            (not resp.r_ok)
            && resp.r_error_cause = Some "overloaded"
            && attempt + 1 < attempts
          then
            go (attempt + 1) ~hint:resp.r_retry_after_ms
              ~last_io_error:None
          else Ok { o_response = resp; o_attempts = attempt + 1 })
    end
  in
  go 0 ~hint:None ~last_io_error:None
