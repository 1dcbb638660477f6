(* Quickstart: measure the control-flow parallelism limits of your own
   Mini-C program under the paper's seven abstract machines.

     dune exec examples/quickstart.exe *)

let source =
  {|
// Count primes below 4000 with trial division: a small, branchy
// program with data-dependent control flow.
int is_prime(int n) {
  int d;
  if (n < 2) return 0;
  for (d = 2; d * d <= n; d = d + 1) {
    if (n % d == 0) return 0;
  }
  return 1;
}

int main(void) {
  int n;
  int count = 0;
  for (n = 2; n < 4000; n = n + 1) {
    if (is_prime(n)) count = count + 1;
  }
  return count;
}
|}

let () =
  (* Compile and run the training execution (no trace is recorded). *)
  let prepared = Harness.prepare_source ~name:"primes" source in
  (match prepared.halted with
  | Some v -> Format.printf "program result: %d primes below 4000@." v
  | None -> Format.printf "program did not halt within its fuel budget@.");
  Format.printf "trace: %d dynamic instructions@.@." prepared.steps;
  (* The replay: all seven machine models advance together over one
     trace pass, straight off a second execution. *)
  let results =
    Harness.Run.on_prepared prepared
      (List.map Harness.spec Ilp.Machine.all_paper)
  in
  let rows =
    List.map
      (fun (r : Ilp.Analyze.result) ->
        [ r.machine;
          string_of_int r.counted;
          string_of_int r.cycles;
          Report.Table.fnum r.parallelism ])
      results
  in
  print_string
    (Report.Table.render ~title:"Parallelism limits for primes"
       ~header:[ "Machine"; "Instructions"; "Cycles"; "Parallelism" ]
       ~align:[ Left; Right; Right; Right ]
       rows);
  print_newline ();
  (* The three techniques at a glance. *)
  let get name =
    (List.find
       (fun (r : Ilp.Analyze.result) -> r.machine = name)
       results)
      .parallelism
  in
  Format.printf
    "control dependence alone:   %.2fx over BASE@."
    (get "CD" /. get "BASE");
  Format.printf
    "+ multiple flows:           %.2fx over BASE@."
    (get "CD-MF" /. get "BASE");
  Format.printf
    "speculation alone:          %.2fx over BASE@."
    (get "SP" /. get "BASE");
  Format.printf
    "all three techniques:       %.2fx over BASE (oracle: %.2fx)@."
    (get "SP-CD-MF" /. get "BASE")
    (get "ORACLE" /. get "BASE")
