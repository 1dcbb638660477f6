type t = int
type f = int

let zero = 0
let rv = 2
let n_arg_regs = 4

let arg i =
  if i < 0 || i >= n_arg_regs then invalid_arg "Reg.arg";
  4 + i

let n_tmp_regs = 8

let tmp i =
  if i < 0 || i >= n_tmp_regs then invalid_arg "Reg.tmp";
  8 + i

let n_sav_regs = 8

let sav i =
  if i < 0 || i >= n_sav_regs then invalid_arg "Reg.sav";
  16 + i

let scratch0 = 24
let scratch1 = 25
let sp = 29
let ra = 31

let frv = 0

let farg i =
  if i < 0 || i >= 4 then invalid_arg "Reg.farg";
  12 + i

let n_ftmp_regs = 8

let ftmp i =
  if i < 0 || i >= n_ftmp_regs then invalid_arg "Reg.ftmp";
  2 + i

let n_fsav_regs = 8

let fsav i =
  if i < 0 || i >= n_fsav_regs then invalid_arg "Reg.fsav";
  20 + i

let fscratch = 30
let fscratch1 = 31

let uid_of_float f = 32 + f
let n_unified = 64

(* Calling convention over unified ids.  Caller-saved registers are the
   ones a call may clobber: return values, arguments, temporaries,
   scratch and [ra]; callee-saved registers survive calls: the [sav]
   banks and the stack pointer. *)
let caller_saved =
  List.concat
    [ [ rv ];
      List.init n_arg_regs arg;
      List.init n_tmp_regs tmp;
      [ scratch0; scratch1; ra ];
      [ uid_of_float frv ];
      List.init 4 (fun i -> uid_of_float (farg i));
      List.init n_ftmp_regs (fun i -> uid_of_float (ftmp i));
      [ uid_of_float fscratch; uid_of_float fscratch1 ] ]

let callee_saved =
  List.concat
    [ List.init n_sav_regs sav;
      [ sp ];
      List.init n_fsav_regs (fun i -> uid_of_float (fsav i)) ]

let pp ppf r = Format.fprintf ppf "r%d" r
let pp_f ppf f = Format.fprintf ppf "f%d" f

let pp_uid ppf u =
  if u < 32 then Format.fprintf ppf "r%d" u
  else Format.fprintf ppf "f%d" (u - 32)
