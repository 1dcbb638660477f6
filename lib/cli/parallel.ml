let err cause = Error (Pipeline_error.v Execute cause)

let resolve_jobs = function
  | Some j -> j
  | None -> Stdx.Pool.recommended_jobs ()

let validate_jobs = Harness.validate_jobs

let segmenting_of_flag = function
  | None -> Ok `Off
  | Some "auto" -> Ok `Auto
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok (`Steps n)
      | _ ->
          err
            (Invalid_request
               (Printf.sprintf
                  "segment-steps must be a positive integer or \"auto\" \
                   (got %S)"
                  s)))

open Cmdliner

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel fan-out (default: the \
           runtime's recommended domain count; 1 keeps everything on \
           the calling domain).  Output is bit-identical for every \
           value of N.")

let default_segment_doc =
  "Replay each workload's trace through a pipeline of \
   $(docv)-instruction segments when $(b,--jobs) is above 1: the VM \
   fills one segment while the pool applies the previous one, at most \
   two segments at a time, so even a single workload keeps two domains \
   busy.  $(b,auto) is one 16384-entry trace chunk.  Results are \
   bit-identical to the un-segmented run."

let segment_steps_arg ?(doc = default_segment_doc) () =
  Arg.(
    value
    & opt (some string) None
    & info [ "segment-steps" ] ~docv:"N|auto" ~doc)
