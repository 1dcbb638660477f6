let resolve_jobs = function
  | Some j -> j
  | None -> Stdx.Pool.recommended_jobs ()

let validate_jobs = Harness.validate_jobs

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

let default_split_doc =
  "Split each workload's trace across the pool when $(b,--jobs) is \
   above 1: the VM fills one 16384-entry segment while the pool \
   applies the previous one, at most two segments at a time, so even a \
   single workload keeps two domains busy.  Results are bit-identical \
   to the unsplit run."

let split_trace_arg ?(doc = default_split_doc) () =
  Arg.(value & flag & info [ "split-trace" ] ~doc)
