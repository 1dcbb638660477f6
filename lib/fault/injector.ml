module Rng = struct
  (* splitmix64: tiny, stateless-per-draw, and stable across OCaml
     versions (unlike Stdlib.Random), which the same-seed-same-report
     guarantee depends on. *)
  type t = { mutable s : int64 }

  let gamma = 0x9E3779B97F4A7C15L

  let create seed = { s = Int64.of_int seed }

  let mix z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next t =
    t.s <- Int64.add t.s gamma;
    mix t.s

  let int t n =
    if n <= 0 then invalid_arg "Injector.Rng.int";
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int)
                    (Int64.of_int n))

  (* [derive ~seed ~index] is output [index] of the splitmix64 stream
     rooted at [seed] — a decorrelated per-task seed that depends only
     on (seed, index), never on which domain draws it or when, so
     parallel fuzzing stays bit-reproducible under any scheduling. *)
  let derive ~seed ~index =
    let z =
      Int64.add (Int64.of_int seed)
        (Int64.mul (Int64.of_int (index + 1)) gamma)
    in
    Int64.to_int (Int64.logand (mix z) Int64.max_int)
end

type kind =
  | Bit_flip
  | Mem_corrupt
  | Trace_cut
  | Fuel_cut

let all_kinds = [ Bit_flip; Mem_corrupt; Trace_cut; Fuel_cut ]

let kind_name = function
  | Bit_flip -> "bit-flip"
  | Mem_corrupt -> "mem-corrupt"
  | Trace_cut -> "trace-cut"
  | Fuel_cut -> "fuel-cut"

let kind_names = List.map kind_name all_kinds

let kind_of_string s =
  let canon =
    String.map (function '_' -> '-' | c -> c) (String.lowercase_ascii s)
  in
  List.find_opt (fun k -> kind_name k = canon) all_kinds

type applied = {
  kind : kind;
  seed : int;
  description : string;
  flat : Asm.Program.flat;
  fuel : int;
  observe :
    (pc:int -> step:int -> regs:int array -> fregs:float array ->
     mem:Stdx.Mem_table.t -> unit)
      option;
  wrap_sink : Vm.Trace.sink -> Vm.Trace.sink;
  cut : Pipeline_error.fault_info option ref;
}

(* ------------------------------------------------------------------ *)
(* Structured instruction corruption. *)

let alu_ops =
  Risc.Insn.[| Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra; Slt;
               Sle; Seq; Sne |]

let conds = Risc.Insn.[| Eq; Ne; Lt; Le; Gt; Ge |]

(* Flip one of the low five bits: register indices stay inside the
   register file, so the damage surfaces as pipeline faults (wild
   values, addresses, targets), not host array bounds errors. *)
let flip_reg rng r = r lxor (1 lsl Rng.int rng 5)

let flip_imm rng imm = imm lxor (1 lsl Rng.int rng 16)

(* Branch/jump targets stay inside the code segment; a wild-but-valid
   target stresses the CFG checks and the analyzers far deeper than an
   immediate out-of-range fault would. *)
let flip_target rng n_code t =
  if n_code <= 1 then t else (t lxor (1 lsl Rng.int rng 16)) mod n_code

let mutate_insn rng n_code insn =
  let open Risc.Insn in
  let pick arr cur =
    let i = Rng.int rng (Array.length arr) in
    if arr.(i) = cur then arr.((i + 1) mod Array.length arr) else arr.(i)
  in
  match insn with
  | Alu (op, rd, rs, rt) -> (
    match Rng.int rng 4 with
    | 0 -> Alu (pick alu_ops op, rd, rs, rt)
    | 1 -> Alu (op, flip_reg rng rd, rs, rt)
    | 2 -> Alu (op, rd, flip_reg rng rs, rt)
    | _ -> Alu (op, rd, rs, flip_reg rng rt))
  | Alui (op, rd, rs, imm) -> (
    match Rng.int rng 4 with
    | 0 -> Alui (pick alu_ops op, rd, rs, imm)
    | 1 -> Alui (op, flip_reg rng rd, rs, imm)
    | 2 -> Alui (op, rd, flip_reg rng rs, imm)
    | _ -> Alui (op, rd, rs, flip_imm rng imm))
  | Li (rd, imm) ->
    if Rng.int rng 2 = 0 then Li (flip_reg rng rd, imm)
    else Li (rd, flip_imm rng imm)
  | Fli (fd, x) ->
    if Rng.int rng 2 = 0 then Fli (flip_reg rng fd, x)
    else Fli (fd, x *. -2.0)
  | Lw (rd, base, off) -> (
    match Rng.int rng 3 with
    | 0 -> Lw (flip_reg rng rd, base, off)
    | 1 -> Lw (rd, flip_reg rng base, off)
    | _ -> Lw (rd, base, flip_imm rng off))
  | Sw (rsrc, base, off) -> (
    match Rng.int rng 3 with
    | 0 -> Sw (flip_reg rng rsrc, base, off)
    | 1 -> Sw (rsrc, flip_reg rng base, off)
    | _ -> Sw (rsrc, base, flip_imm rng off))
  | Flw (fd, base, off) -> (
    match Rng.int rng 3 with
    | 0 -> Flw (flip_reg rng fd, base, off)
    | 1 -> Flw (fd, flip_reg rng base, off)
    | _ -> Flw (fd, base, flip_imm rng off))
  | Fsw (fsrc, base, off) -> (
    match Rng.int rng 3 with
    | 0 -> Fsw (flip_reg rng fsrc, base, off)
    | 1 -> Fsw (fsrc, flip_reg rng base, off)
    | _ -> Fsw (fsrc, base, flip_imm rng off))
  | Falu (op, fd, fs, ft) -> (
    match Rng.int rng 3 with
    | 0 -> Falu (op, flip_reg rng fd, fs, ft)
    | 1 -> Falu (op, fd, flip_reg rng fs, ft)
    | _ -> Falu (op, fd, fs, flip_reg rng ft))
  | Fcmp (op, rd, fs, ft) -> (
    match Rng.int rng 3 with
    | 0 -> Fcmp (op, flip_reg rng rd, fs, ft)
    | 1 -> Fcmp (op, rd, flip_reg rng fs, ft)
    | _ -> Fcmp (op, rd, fs, flip_reg rng ft))
  | Movn (rd, rs, rg) -> (
    match Rng.int rng 3 with
    | 0 -> Movn (flip_reg rng rd, rs, rg)
    | 1 -> Movn (rd, flip_reg rng rs, rg)
    | _ -> Movn (rd, rs, flip_reg rng rg))
  | Fmov (fd, fs) ->
    if Rng.int rng 2 = 0 then Fmov (flip_reg rng fd, fs)
    else Fmov (fd, flip_reg rng fs)
  | I2f (fd, rs) ->
    if Rng.int rng 2 = 0 then I2f (flip_reg rng fd, rs)
    else I2f (fd, flip_reg rng rs)
  | F2i (rd, fs) ->
    if Rng.int rng 2 = 0 then F2i (flip_reg rng rd, fs)
    else F2i (rd, flip_reg rng fs)
  | B (c, rs, rt, target) -> (
    match Rng.int rng 4 with
    | 0 -> B (pick conds c, rs, rt, target)
    | 1 -> B (c, flip_reg rng rs, rt, target)
    | 2 -> B (c, rs, flip_reg rng rt, target)
    | _ -> B (c, rs, rt, flip_target rng n_code target))
  | Bi (c, rs, imm, target) -> (
    match Rng.int rng 4 with
    | 0 -> Bi (pick conds c, rs, imm, target)
    | 1 -> Bi (c, flip_reg rng rs, imm, target)
    | 2 -> Bi (c, rs, flip_imm rng imm, target)
    | _ -> Bi (c, rs, imm, flip_target rng n_code target))
  | J target -> J (flip_target rng n_code target)
  | Jal target -> Jal (flip_target rng n_code target)
  | Jr rs -> Jr (flip_reg rng rs)
  | Jtab (rs, table) ->
    if Array.length table > 0 && Rng.int rng 2 = 0 then begin
      let table = Array.copy table in
      let i = Rng.int rng (Array.length table) in
      table.(i) <- flip_target rng n_code table.(i);
      Jtab (rs, table)
    end
    else Jtab (flip_reg rng rs, table)
  | Halt ->
    (* dropping a Halt sends execution running off into other code *)
    J (Rng.int rng n_code)

let identity_wrap sink = sink

let plan ?metrics ~seed ~fuel kind (flat : Asm.Program.flat) =
  (match metrics with
  | Some m ->
    Obs.Metrics.incr
      (Obs.Metrics.counter m
         ~help:"fault injections planned, by kind"
         (Printf.sprintf "fault_planned_total{kind=%S}" (kind_name kind)))
  | None -> ());
  let rng = Rng.create seed in
  let base =
    { kind; seed; description = ""; flat; fuel; observe = None;
      wrap_sink = identity_wrap; cut = ref None }
  in
  match kind with
  | Bit_flip ->
    let n_code = Array.length flat.code in
    let pc = Rng.int rng (max 1 n_code) in
    let before = flat.code.(pc) in
    let after = mutate_insn rng n_code before in
    let code = Array.copy flat.code in
    code.(pc) <- after;
    let description =
      Format.asprintf "bit-flip at pc %d: %a -> %a" pc
        Risc.Insn.pp_resolved before Risc.Insn.pp_resolved after
    in
    { base with flat = { flat with code }; description }
  | Mem_corrupt ->
    let step = Rng.int rng (max 1 (min fuel 100_000)) in
    let addr = Rng.int rng Vm.Exec.default_mem_words in
    let value = Rng.int rng (1 lsl 30) - (1 lsl 29) in
    let armed = ref true in
    let observe ~pc:_ ~step:s ~regs:_ ~fregs:_ ~mem =
      if !armed && s = step then begin
        armed := false;
        Stdx.Mem_table.set mem (addr mod Stdx.Mem_table.words mem) value
      end
    in
    { base with
      observe = Some observe;
      description =
        Printf.sprintf "mem-corrupt at step %d: mem[%d] <- %d" step addr
          value }
  | Trace_cut ->
    let keep = 1 + Rng.int rng (max 1 (min fuel 50_000)) in
    let cut = ref None in
    let wrap_sink (inner : Vm.Trace.sink) =
      let seen = ref 0 in
      { Vm.Trace.on_entry =
          (fun ~pc ~aux ->
            if !seen < keep then begin
              incr seen;
              inner.Vm.Trace.on_entry ~pc ~aux
            end
            else if !cut = None then
              cut :=
                Some
                  (Pipeline_error.fault ~pc ~step:keep
                     ~detail:
                       (Printf.sprintf "trace delivery cut after %d entries"
                          keep)
                     Pipeline_error.Trace_cut));
        on_close = (fun () -> inner.Vm.Trace.on_close ()) }
    in
    { base with
      wrap_sink;
      cut;
      description = Printf.sprintf "trace-cut after %d entries" keep }
  | Fuel_cut ->
    let fuel' = 1 + Rng.int rng (max 1 (min fuel 50_000)) in
    { base with
      fuel = fuel';
      description = Printf.sprintf "fuel-cut to %d instructions" fuel' }
