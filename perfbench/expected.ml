(* The expected-outputs table: one row per (program, fuel, machine spec)
   the workloads use, holding the exact analysis results and how the
   execution ended.  Every op's output is compared with it. *)

type row = {
  counted : int;
  cycles : int;
  dyn_branches : int;
  mispredicts : int;
  completeness : string;  (** "complete" or the truncation kind *)
  ret : string;  (** the program's return value, or "-" when it did not halt *)
}

type t = (string * int * string, row) Hashtbl.t

let header =
  "# program fuel spec counted cycles dyn_branches mispredicts \
   completeness ret"

let row_line (program, fuel, spec) r =
  Printf.sprintf "%s %d %s %d %d %d %d %s %s" program fuel spec r.counted
    r.cycles r.dyn_branches r.mispredicts r.completeness r.ret

let parse_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ program; fuel; spec; counted; cycles; dyn_branches; mispredicts;
      completeness; ret ] -> (
    match
      ( int_of_string_opt fuel, int_of_string_opt counted,
        int_of_string_opt cycles, int_of_string_opt dyn_branches,
        int_of_string_opt mispredicts )
    with
    | Some fuel, Some counted, Some cycles, Some dyn_branches,
      Some mispredicts ->
      Some
        ( (program, fuel, spec),
          { counted; cycles; dyn_branches; mispredicts; completeness; ret } )
    | _ -> None)
  | _ -> None

let of_lines lines =
  let t = Hashtbl.create 256 in
  let rec go n = function
    | [] -> Ok t
    | l :: rest ->
      let s = String.trim l in
      if s = "" || s.[0] = '#' then go (n + 1) rest
      else (
        match parse_line s with
        | Some (k, r) when not (Hashtbl.mem t k) ->
          Hashtbl.replace t k r;
          go (n + 1) rest
        | Some _ -> Error (Printf.sprintf "line %d: duplicate key" n)
        | None -> Error (Printf.sprintf "line %d: malformed row %S" n s))
  in
  go 1 lines

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    let rec read acc =
      match input_line ic with
      | l -> read (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    let lines = read [] in
    close_in ic;
    of_lines lines

let save path rows =
  let oc = open_out path in
  output_string oc (header ^ "\n");
  List.iter (fun (k, r) -> output_string oc (row_line k r ^ "\n"))
    (List.sort compare rows);
  close_out oc

(* Compare one result with its row.  [ret] is [None] when the caller
   cannot see the return value (the harness result carries none). *)
let check t ~program ~fuel ~spec ?ret got =
  match Hashtbl.find_opt t (program, fuel, spec) with
  | None -> Error (Printf.sprintf "%s/%d/%s: no expected row" program fuel spec)
  | Some want ->
    let got =
      match ret with Some r -> { got with ret = r } | None -> { got with ret = want.ret }
    in
    if got = want then Ok ()
    else
      Error
        (Printf.sprintf "%s/%d/%s: got %s, want %s" program fuel spec
           (row_line (program, fuel, spec) got)
           (row_line (program, fuel, spec) want))
