type item =
  | Label of string
  | Ins of string Risc.Insn.t

type proc = {
  name : string;
  body : item list;
}

type cell =
  | Int_cell of int
  | Float_cell of float

type t = {
  procs : proc list;
  data : (int * cell array) list;
  entry : string;
}

type flat = {
  code : int Risc.Insn.t array;
  proc_of : int array;
  proc_names : string array;
  proc_bounds : (int * int) array;
  entry_pc : int;
  flat_data : (int * cell array) list;
}

exception Link_error of string

let link_err fmt = Format.kasprintf (fun s -> raise (Link_error s)) fmt

let resolve prog =
  let labels : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let define name pc =
    if Hashtbl.mem labels name then link_err "duplicate label %S" name;
    Hashtbl.add labels name pc
  in
  (* First pass: assign addresses.  A procedure's name is itself a label
     pointing at its first instruction. *)
  let pc = ref 0 in
  let measure proc =
    define proc.name !pc;
    let item = function
      | Label l -> define l !pc
      | Ins _ -> incr pc
    in
    List.iter item proc.body
  in
  List.iter measure prog.procs;
  let n = !pc in
  if n = 0 then link_err "empty program";
  let code = Array.make n Risc.Insn.Halt in
  let proc_of = Array.make n 0 in
  let n_procs = List.length prog.procs in
  let proc_names = Array.make n_procs "" in
  let proc_bounds = Array.make n_procs (0, 0) in
  let lookup l =
    match Hashtbl.find_opt labels l with
    | Some target -> target
    | None -> link_err "undefined label %S" l
  in
  let pc = ref 0 in
  let fill idx proc =
    proc_names.(idx) <- proc.name;
    let start = !pc in
    let item = function
      | Label _ -> ()
      | Ins i ->
        code.(!pc) <- Risc.Insn.map_label lookup i;
        proc_of.(!pc) <- idx;
        incr pc
    in
    List.iter item proc.body;
    proc_bounds.(idx) <- (start, !pc)
  in
  List.iteri fill prog.procs;
  let entry_pc =
    match Hashtbl.find_opt labels prog.entry with
    | Some pc -> pc
    | None -> link_err "entry procedure %S not defined" prog.entry
  in
  { code; proc_of; proc_names; proc_bounds; entry_pc;
    flat_data = prog.data }

let proc_of_pc flat pc = flat.proc_names.(flat.proc_of.(pc))

let pp_flat ppf flat =
  let current = ref (-1) in
  let insn pc i =
    if flat.proc_of.(pc) <> !current then begin
      current := flat.proc_of.(pc);
      Format.fprintf ppf "%s:@." flat.proc_names.(!current)
    end;
    Format.fprintf ppf "  %4d  %a@." pc Risc.Insn.pp_resolved i
  in
  Array.iteri insn flat.code

let pp ppf prog =
  let item = function
    | Label l -> Format.fprintf ppf "%s:@." l
    | Ins i -> Format.fprintf ppf "  %a@." Risc.Insn.pp_string i
  in
  let proc p =
    Format.fprintf ppf "%s:@." p.name;
    List.iter item p.body
  in
  List.iter proc prog.procs
