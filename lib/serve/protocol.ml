module Jsonx = Stdx.Jsonx

let max_frame = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Framing *)

type frame_error =
  | Closed
  | Truncated
  | Too_large of int
  | Io of string

let rec read_into fd buf off len =
  if len = 0 then Ok ()
  else
    match Unix.read fd buf off len with
    | 0 -> Error (if off = 0 then Closed else Truncated)
    | n -> read_into fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      read_into fd buf off len
    | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

let read_frame fd =
  let hdr = Bytes.create 4 in
  match read_into fd hdr 0 4 with
  | Error _ as e -> e
  | Ok () ->
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame then Error (Too_large len)
    else
      let body = Bytes.create len in
      (* a clean close after the header is still a torn frame *)
      (match read_into fd body 0 len with
      | Ok () -> Ok (Bytes.unsafe_to_string body)
      | Error Closed -> Error Truncated
      | Error _ as e -> e)

let rec write_all fd buf off len =
  if len = 0 then Ok ()
  else
    match Unix.write fd buf off len with
    | n -> write_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      write_all fd buf off len
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then
    Error (Printf.sprintf "frame of %d bytes exceeds max %d" len max_frame)
  else begin
    let msg = Bytes.create (4 + len) in
    Bytes.set_int32_be msg 0 (Int32.of_int len);
    Bytes.blit_string payload 0 msg 4 len;
    write_all fd msg 0 (4 + len)
  end

(* ------------------------------------------------------------------ *)
(* Requests *)

type analyze = {
  a_workload : string option;
  a_source : string option;
  a_machines : string list;
  a_fuel : int option;
  a_step_budget : int option;
  a_mem_words : int option;
  a_deadline_ms : int option;
  a_inject : (string * int) option;
}

type request =
  | Ping of int
  | Stats of int
  | Metrics of int
  | Analyze of int * analyze

let request_id json = Option.bind (Jsonx.member "id" json) Jsonx.to_int

let ( let* ) = Result.bind

let opt_field name conv json =
  match Jsonx.member name json with
  | None | Some Jsonx.Null -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let decode_analyze json =
  let* workload = opt_field "workload" Jsonx.to_str json in
  let* source = opt_field "source" Jsonx.to_str json in
  let* machines =
    match Jsonx.member "machines" json with
    | None | Some Jsonx.Null -> Ok []
    | Some (Jsonx.List items) ->
      let rec strings acc = function
        | [] -> Ok (List.rev acc)
        | Jsonx.Str s :: rest -> strings (s :: acc) rest
        | _ -> Error "field \"machines\" must be a list of strings"
      in
      strings [] items
    | Some _ -> Error "field \"machines\" must be a list of strings"
  in
  let* fuel = opt_field "fuel" Jsonx.to_int json in
  let* step_budget = opt_field "step_budget" Jsonx.to_int json in
  let* mem_words = opt_field "mem_words" Jsonx.to_int json in
  let* deadline_ms = opt_field "deadline_ms" Jsonx.to_int json in
  let* inject =
    match Jsonx.member "inject" json with
    | None | Some Jsonx.Null -> Ok None
    | Some obj -> (
      match
        ( Option.bind (Jsonx.member "kind" obj) Jsonx.to_str,
          Option.bind (Jsonx.member "seed" obj) Jsonx.to_int )
      with
      | Some kind, Some seed -> Ok (Some (kind, seed))
      | _ -> Error "field \"inject\" needs {\"kind\":string,\"seed\":int}")
  in
  if workload = None && source = None then
    Error "analyze needs a \"workload\" name or a \"source\" string"
  else
    Ok
      { a_workload = workload; a_source = source; a_machines = machines;
        a_fuel = fuel; a_step_budget = step_budget;
        a_mem_words = mem_words; a_deadline_ms = deadline_ms;
        a_inject = inject }

let decode_request json =
  match json with
  | Jsonx.Obj _ -> (
    let* id =
      match request_id json with
      | Some id -> Ok id
      | None -> Error "request needs an integer \"id\""
    in
    match Option.bind (Jsonx.member "op" json) Jsonx.to_str with
    | Some "ping" -> Ok (Ping id)
    | Some "stats" -> Ok (Stats id)
    | Some "metrics" -> Ok (Metrics id)
    | Some "analyze" ->
      let* a = decode_analyze json in
      Ok (Analyze (id, a))
    | Some op -> Error (Printf.sprintf "unknown op %S" op)
    | None -> Error "request needs a string \"op\"")
  | _ -> Error "request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Request rendering *)

let simple_request op ~id =
  Jsonx.to_string (Jsonx.Obj [ ("id", Jsonx.Int id); ("op", Jsonx.Str op) ])

let ping_request = simple_request "ping"
let stats_request = simple_request "stats"
let metrics_request = simple_request "metrics"

let analyze ?source ?(machines = []) ?fuel ?step_budget ?mem_words
    ?deadline_ms ?inject ?workload () =
  { a_workload = workload; a_source = source; a_machines = machines;
    a_fuel = fuel; a_step_budget = step_budget; a_mem_words = mem_words;
    a_deadline_ms = deadline_ms; a_inject = inject }

let analyze_request ~id a =
  let opt name conv v fields =
    match v with None -> fields | Some x -> (name, conv x) :: fields
  in
  let fields =
    []
    |> opt "inject"
         (fun (kind, seed) ->
           Jsonx.Obj [ ("kind", Jsonx.Str kind); ("seed", Jsonx.Int seed) ])
         a.a_inject
    |> opt "deadline_ms" (fun i -> Jsonx.Int i) a.a_deadline_ms
    |> opt "mem_words" (fun i -> Jsonx.Int i) a.a_mem_words
    |> opt "step_budget" (fun i -> Jsonx.Int i) a.a_step_budget
    |> opt "fuel" (fun i -> Jsonx.Int i) a.a_fuel
  in
  let fields =
    match a.a_machines with
    | [] -> fields
    | ms ->
      ("machines", Jsonx.List (List.map (fun m -> Jsonx.Str m) ms))
      :: fields
  in
  let fields = opt "source" (fun s -> Jsonx.Str s) a.a_source fields in
  let fields = opt "workload" (fun s -> Jsonx.Str s) a.a_workload fields in
  Jsonx.to_string
    (Jsonx.Obj
       (("id", Jsonx.Int id) :: ("op", Jsonx.Str "analyze") :: fields))

(* ------------------------------------------------------------------ *)
(* Response rendering *)

let ok_ping ~id =
  Jsonx.to_string
    (Jsonx.Obj
       [ ("id", Jsonx.Int id); ("ok", Jsonx.Bool true);
         ("pong", Jsonx.Bool true) ])

let status_json = function
  | Vm.Exec.Halted v ->
    Jsonx.Obj [ ("kind", Jsonx.Str "halted"); ("value", Jsonx.Int v) ]
  | Vm.Exec.Out_of_fuel -> Jsonx.Obj [ ("kind", Jsonx.Str "out_of_fuel") ]
  | Vm.Exec.Fault f ->
    Jsonx.Obj
      [ ("kind", Jsonx.Str "fault");
        ("fault", Jsonx.Str (Pipeline_error.fault_kind_name f.f_kind));
        ("pc", Jsonx.Int f.f_pc); ("step", Jsonx.Int f.f_step) ]

let result_json (r : Ilp.Analyze.result) =
  Jsonx.Obj
    [ ("machine", Jsonx.Str r.machine); ("counted", Jsonx.Int r.counted);
      ("seq_cycles", Jsonx.Int r.seq_cycles);
      ("cycles", Jsonx.Int r.cycles);
      (* fixed format: cached and fresh replies must be byte-identical *)
      ("parallelism",
       Jsonx.Str (Printf.sprintf "%.4f" r.parallelism));
      ("dyn_branches", Jsonx.Int r.dyn_branches);
      ("mispredicts", Jsonx.Int r.mispredicts);
      ("completeness",
       Jsonx.Str (Pipeline_error.completeness_tag r.completeness)) ]

let ok_analyze ~id ~cached (reply : Harness.Request.reply) =
  Jsonx.to_string
    (Jsonx.Obj
       [ ("id", Jsonx.Int id); ("ok", Jsonx.Bool true);
         ("cached", Jsonx.Bool cached);
         ("steps", Jsonx.Int reply.r_steps);
         ("status", status_json reply.r_status);
         ("results", Jsonx.List (List.map result_json reply.r_results)) ])

let ok_stats ~id ~queue_depth ~queue_limit ~in_flight ~connections
    ~requests ~shed ~cache_hits ~cache_misses ~draining =
  Jsonx.to_string
    (Jsonx.Obj
       [ ("id", Jsonx.Int id); ("ok", Jsonx.Bool true);
         ("queue_depth", Jsonx.Int queue_depth);
         ("queue_limit", Jsonx.Int queue_limit);
         ("in_flight", Jsonx.Int in_flight);
         ("connections", Jsonx.Int connections);
         ("requests", Jsonx.Int requests); ("shed", Jsonx.Int shed);
         ("cache_hits", Jsonx.Int cache_hits);
         ("cache_misses", Jsonx.Int cache_misses);
         ("draining", Jsonx.Bool draining) ])

let ok_metrics ~id ~body =
  Jsonx.to_string
    (Jsonx.Obj
       [ ("id", Jsonx.Int id); ("ok", Jsonx.Bool true);
         ("metrics", Jsonx.Str body) ])

let error_response ~id err =
  Jsonx.to_string
    (Jsonx.Obj
       [ ("id", Option.fold ~none:Jsonx.Null ~some:(fun i -> Jsonx.Int i) id);
         ("ok", Jsonx.Bool false); ("error", Pipeline_error.to_json err) ])

(* ------------------------------------------------------------------ *)
(* Response decoding *)

type response = {
  r_id : int option;
  r_ok : bool;
  r_body : Jsonx.t;
  r_error_cause : string option;
  r_retry_after_ms : int option;
}

let decode_response json =
  let error = Jsonx.member "error" json in
  { r_id = request_id json;
    r_ok =
      (match Option.bind (Jsonx.member "ok" json) Jsonx.to_bool with
      | Some b -> b
      | None -> false);
    r_body = json;
    r_error_cause =
      Option.bind error (fun e ->
          Option.bind (Jsonx.member "cause" e) Jsonx.to_str);
    r_retry_after_ms =
      Option.bind error (fun e ->
          Option.bind (Jsonx.member "retry_after_ms" e) Jsonx.to_int) }
