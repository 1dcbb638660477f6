(** Exporters over {!Span} and {!Metrics} snapshots.

    Three formats, all appended to a caller-supplied [Buffer.t] so the
    same data can go to stdout, a file, or a test golden:

    - {!tree}: human summary — the span forest indented by depth with
      durations, then the metric values;
    - {!jsonl}: one JSON object per line ([{"type":"span",...}] /
      [{"type":"counter",...}] / ...), the [--trace-out] file format.
      Each line is a {!Stdx.Jsonx.t} printed by its printer; the
      [Int64] nanosecond fields become [Int], exact below 2{^62};
    - {!prometheus}: Prometheus text exposition (TYPE/HELP comments,
      cumulative histogram buckets with [le] labels).

    All three are pure functions of their inputs: golden tests build
    fixed spans/snapshots and pin the exact output. *)

val tree : Buffer.t -> ?metrics:Metrics.snap list -> Span.span array -> unit

val jsonl :
  Buffer.t -> spans:Span.span array -> metrics:Metrics.snap list -> unit

val prometheus : Buffer.t -> Metrics.snap list -> unit
