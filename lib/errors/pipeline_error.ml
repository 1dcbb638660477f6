type fault_kind =
  | Div_by_zero
  | Mem_out_of_range
  | Pc_out_of_range
  | Jtab_out_of_range
  | Out_of_fuel
  | Step_budget
  | Trace_cut
  | Injected

let fault_kind_name = function
  | Div_by_zero -> "div_by_zero"
  | Mem_out_of_range -> "mem_out_of_range"
  | Pc_out_of_range -> "pc_out_of_range"
  | Jtab_out_of_range -> "jtab_out_of_range"
  | Out_of_fuel -> "out_of_fuel"
  | Step_budget -> "step_budget"
  | Trace_cut -> "trace_cut"
  | Injected -> "injected"

type fault_info = {
  f_kind : fault_kind;
  f_pc : int;
  f_step : int;
  f_detail : string;
}

let fault ?(pc = -1) ?(detail = "") ~step kind =
  { f_kind = kind; f_pc = pc; f_step = step; f_detail = detail }

let pp_fault ppf f =
  Format.fprintf ppf "%s" (fault_kind_name f.f_kind);
  if f.f_pc >= 0 then Format.fprintf ppf " at pc %d" f.f_pc;
  Format.fprintf ppf " after %d steps" f.f_step;
  if f.f_detail <> "" then Format.fprintf ppf " (%s)" f.f_detail

type completeness =
  | Complete
  | Truncated of fault_info

let pp_completeness ppf = function
  | Complete -> Format.fprintf ppf "complete"
  | Truncated f -> Format.fprintf ppf "truncated: %a" pp_fault f

let completeness_tag = function
  | Complete -> "complete"
  | Truncated f -> fault_kind_name f.f_kind

type stage =
  | Lookup
  | Compile
  | Execute
  | Analyze
  | Report

let stage_name = function
  | Lookup -> "lookup"
  | Compile -> "compile"
  | Execute -> "execute"
  | Analyze -> "analyze"
  | Report -> "report"

type cause =
  | Unknown_workload of { name : string; hint : string option }
  | Unknown_machine of { name : string; hint : string option }
  | Invalid_machine_spec of { spec : string; msg : string }
  | Unknown_fault of { name : string; hint : string option }
  | Compile_error of string
  | Vm_fault of fault_info
  | Budget_exceeded of { what : string; limit : int; requested : int }
  | Invalid_request of string
  | Deadline_exceeded of { budget_ms : int; elapsed_ms : int }
  | Overloaded of { depth : int; limit : int; retry_after_ms : int }
  | Rejected_by_estimate of { spec : string; estimate : float; ceiling : float }
  | Failed of string
  | Internal of string

type t = {
  stage : stage;
  workload : string option;
  cause : cause;
}

let v ?workload stage cause = { stage; workload; cause }

let pp_hint ppf = function
  | Some h -> Format.fprintf ppf " (did you mean %S?)" h
  | None -> ()

let pp_cause ppf = function
  | Unknown_workload { name; hint } ->
    Format.fprintf ppf "unknown workload %S%a; try the 'list' command" name
      pp_hint hint
  | Unknown_machine { name; hint } ->
    Format.fprintf ppf "unknown machine %S%a" name pp_hint hint
  | Invalid_machine_spec { spec; msg } ->
    Format.fprintf ppf "invalid machine spec %S: %s" spec msg
  | Unknown_fault { name; hint } ->
    Format.fprintf ppf "unknown fault kind %S%a" name pp_hint hint
  | Compile_error msg -> Format.fprintf ppf "compile error: %s" msg
  | Vm_fault f -> Format.fprintf ppf "VM fault: %a" pp_fault f
  | Budget_exceeded { what; limit; requested } ->
    Format.fprintf ppf "%s budget exceeded: requested %d, cap %d" what
      requested limit
  | Invalid_request msg -> Format.fprintf ppf "invalid request: %s" msg
  | Deadline_exceeded { budget_ms; elapsed_ms } ->
    Format.fprintf ppf
      "deadline exceeded: %d ms budget, %d ms elapsed" budget_ms elapsed_ms
  | Overloaded { depth; limit; retry_after_ms } ->
    Format.fprintf ppf
      "overloaded: request queue full (%d/%d); retry after %d ms" depth
      limit retry_after_ms
  | Rejected_by_estimate { spec; estimate; ceiling } ->
    Format.fprintf ppf
      "rejected by static estimate: %s estimated work %s exceeds \
       ceiling %.0f"
      spec
      (if estimate = infinity then "unbounded"
       else Printf.sprintf "%.0f" estimate)
      ceiling
  | Failed msg -> Format.fprintf ppf "%s" msg
  | Internal msg ->
    Format.fprintf ppf "internal error (escaped exception): %s" msg

let pp ppf t =
  Format.fprintf ppf "[%s" (stage_name t.stage);
  (match t.workload with
  | Some w -> Format.fprintf ppf "/%s" w
  | None -> ());
  Format.fprintf ppf "] %a" pp_cause t.cause

let to_string t = Format.asprintf "%a" pp t

let exit_code t =
  match t.cause with
  | Failed _ | Internal _ -> 1
  | Unknown_workload _ | Unknown_machine _ | Invalid_machine_spec _
  | Unknown_fault _ | Invalid_request _ -> 2
  | Compile_error _ -> 3
  | Vm_fault _ -> 4
  | Budget_exceeded _ -> 5
  | Deadline_exceeded _ -> 6
  | Overloaded _ -> 7
  | Rejected_by_estimate _ -> 8

let cause_name t =
  match t.cause with
  | Unknown_workload _ -> "unknown_workload"
  | Unknown_machine _ -> "unknown_machine"
  | Invalid_machine_spec _ -> "invalid_machine_spec"
  | Unknown_fault _ -> "unknown_fault"
  | Compile_error _ -> "compile_error"
  | Vm_fault _ -> "vm_fault"
  | Budget_exceeded _ -> "budget_exceeded"
  | Invalid_request _ -> "invalid_request"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Overloaded _ -> "overloaded"
  | Rejected_by_estimate _ -> "rejected_by_estimate"
  | Failed _ -> "failed"
  | Internal _ -> "internal"

(* JSON rendering: the wire shape every server error response carries.
   Kept here so the one place that defines causes also defines their
   serialization — a new cause fails to compile until it renders. *)
module Jsonx = Stdx.Jsonx

(* A whole number as the message prints it: [%.0f] rounds a tie to
   even.  Non-finite values (an unbounded estimate) print as [null]. *)
let whole x =
  let r = Float.of_string (Printf.sprintf "%.0f" x) in
  if Float.abs r < 0x1p62 then Jsonx.Int (Float.to_int r) else Jsonx.Float r

let to_json t =
  (* cause-specific structured payload, so clients never parse the
     human message *)
  let details =
    match t.cause with
    | Deadline_exceeded { budget_ms; elapsed_ms } ->
      [ ("budget_ms", Jsonx.Int budget_ms);
        ("elapsed_ms", Jsonx.Int elapsed_ms) ]
    | Overloaded { depth; limit; retry_after_ms } ->
      [ ("depth", Jsonx.Int depth); ("limit", Jsonx.Int limit);
        ("retry_after_ms", Jsonx.Int retry_after_ms) ]
    | Rejected_by_estimate { spec; estimate; ceiling } ->
      [ ("spec", Jsonx.Str spec); ("estimate", whole estimate);
        ("ceiling", whole ceiling) ]
    | Budget_exceeded { what; limit; requested } ->
      [ ("what", Jsonx.Str what); ("limit", Jsonx.Int limit);
        ("requested", Jsonx.Int requested) ]
    | Vm_fault f ->
      [ ("fault_kind", Jsonx.Str (fault_kind_name f.f_kind));
        ("pc", Jsonx.Int f.f_pc); ("step", Jsonx.Int f.f_step) ]
    | _ -> []
  in
  let workload =
    match t.workload with Some w -> [ ("workload", Jsonx.Str w) ] | None -> []
  in
  Jsonx.Obj
    ((("cause", Jsonx.Str (cause_name t)) :: ("code", Jsonx.Int (exit_code t))
      :: ("stage", Jsonx.Str (stage_name t.stage)) :: workload)
    @ (("message", Jsonx.Str (to_string t)) :: details))

(* Damerau-Levenshtein distance (transposition counts as one edit, so
   "akw" suggests "awk"); small strings only. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do d.(i).(0) <- i done;
  for j = 0 to lb do d.(0).(j) <- j done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      let best =
        min (min (d.(i).(j - 1) + 1) (d.(i - 1).(j) + 1))
          (d.(i - 1).(j - 1) + cost)
      in
      let best =
        if i > 1 && j > 1 && a.[i - 1] = b.[j - 2] && a.[i - 2] = b.[j - 1]
        then min best (d.(i - 2).(j - 2) + 1)
        else best
      in
      d.(i).(j) <- best
    done
  done;
  d.(la).(lb)

let suggest name candidates =
  let name = String.lowercase_ascii name in
  let scored =
    List.filter_map
      (fun c ->
        let d = edit_distance name (String.lowercase_ascii c) in
        (* close enough to be a typo: at most 1 edit for short names,
           about a third of the length for longer ones *)
        let threshold = max 1 (String.length c / 3) in
        if d <= threshold then Some (d, c) else None)
      candidates
  in
  match List.sort compare scored with
  | (_, best) :: _ -> Some best
  | [] -> None

let guard ?workload stage f =
  try f () with
  | e ->
    let msg = Printexc.to_string e in
    Error (v ?workload stage (Internal msg))
