(* The trace a prepared workload's replay analyzes, recorded by one more
   execution with the same fuel and memory, for tests that compare the
   harness against the materialized analyzers or scan the trace. *)
let trace (p : Harness.prepared) =
  (Vm.Exec.run ?mem_words:p.mem_words ~fuel:p.fuel p.flat).trace
