let ms ns = Int64.to_float ns /. 1e6

let span_label (s : Span.span) =
  let b = Buffer.create 32 in
  Buffer.add_string b s.sp_stage;
  if s.sp_workload <> "" then Buffer.add_string b (" w=" ^ s.sp_workload);
  if s.sp_machine <> "" then Buffer.add_string b (" m=" ^ s.sp_machine);
  Buffer.contents b

let tree buf ?(metrics = []) spans =
  if Array.length spans > 0 then begin
    Buffer.add_string buf "spans:\n";
    Array.iter
      (fun (s : Span.span) ->
        Buffer.add_string buf
          (Printf.sprintf "%s%-*s %9.3f ms\n"
             (String.make (2 * (s.sp_depth + 1)) ' ')
             (max 1 (38 - (2 * s.sp_depth)))
             (span_label s)
             (ms (Span.dur_ns s))))
      spans
  end;
  if metrics <> [] then begin
    Buffer.add_string buf "metrics:\n";
    List.iter
      (fun (m : Metrics.snap) ->
        match m.value with
        | Metrics.Counter v | Metrics.Gauge v ->
          Buffer.add_string buf (Printf.sprintf "  %-56s %d\n" m.name v)
        | Metrics.Histogram { counts; sum; _ } ->
          let total = Array.fold_left ( + ) 0 counts in
          Buffer.add_string buf
            (Printf.sprintf "  %-56s count=%d sum=%d\n" m.name total sum))
      metrics
  end

(* ------------------------------------------------------------------ *)

module Jsonx = Stdx.Jsonx

let jsonl buf ~spans ~metrics =
  let line fields =
    Jsonx.to_buffer buf (Jsonx.Obj fields);
    Buffer.add_char buf '\n'
  in
  let ints a = Jsonx.List (List.map (fun i -> Jsonx.Int i) (Array.to_list a)) in
  Array.iter
    (fun (s : Span.span) ->
      line
        [ ("type", Jsonx.Str "span"); ("stage", Jsonx.Str s.sp_stage);
          ("workload", Jsonx.Str s.sp_workload);
          ("machine", Jsonx.Str s.sp_machine); ("depth", Jsonx.Int s.sp_depth);
          ("start_ns", Jsonx.Int (Int64.to_int s.sp_start_ns));
          ("dur_ns", Jsonx.Int (Int64.to_int (Span.dur_ns s))) ])
    spans;
  List.iter
    (fun (m : Metrics.snap) ->
      let name = ("name", Jsonx.Str m.name) in
      line
        (match m.value with
        | Metrics.Counter v ->
          [ ("type", Jsonx.Str "counter"); name; ("value", Jsonx.Int v) ]
        | Metrics.Gauge v ->
          [ ("type", Jsonx.Str "gauge"); name; ("value", Jsonx.Int v) ]
        | Metrics.Histogram { bounds; counts; sum } ->
          [ ("type", Jsonx.Str "histogram"); name; ("bounds", ints bounds);
            ("counts", ints counts); ("sum", Jsonx.Int sum) ]))
    metrics

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition.  Metric names carry their labels inline
   (["name{machine=\"SP\"}"]); the family — what TYPE/HELP lines
   describe, once per family — is the part before the brace.  Histogram
   buckets are cumulative with an [le] label spliced into any existing
   label set, per the exposition format. *)

let split_labels name =
  match String.index_opt name '{' with
  | None -> (name, None)
  | Some i ->
    ( String.sub name 0 i,
      Some (String.sub name (i + 1) (String.length name - i - 2)) )

let with_label name extra =
  let base, labels = split_labels name in
  match labels with
  | None -> Printf.sprintf "%s{%s}" base extra
  | Some l -> Printf.sprintf "%s{%s,%s}" base l extra

let with_suffix name suffix =
  let base, labels = split_labels name in
  match labels with
  | None -> base ^ suffix
  | Some l -> Printf.sprintf "%s%s{%s}" base suffix l

let prometheus buf metrics =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (m : Metrics.snap) ->
      let family, _ = split_labels m.name in
      let kind =
        match m.value with
        | Metrics.Counter _ -> "counter"
        | Metrics.Gauge _ -> "gauge"
        | Metrics.Histogram _ -> "histogram"
      in
      if not (Hashtbl.mem seen family) then begin
        Hashtbl.add seen family ();
        if m.help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" family m.help);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" family kind)
      end;
      match m.value with
      | Metrics.Counter v | Metrics.Gauge v ->
        Buffer.add_string buf (Printf.sprintf "%s %d\n" m.name v)
      | Metrics.Histogram { bounds; counts; sum } ->
        let cum = ref 0 in
        Array.iteri
          (fun i bound ->
            cum := !cum + counts.(i);
            Buffer.add_string buf
              (Printf.sprintf "%s %d\n"
                 (with_label (with_suffix m.name "_bucket")
                    (Printf.sprintf "le=\"%d\"" bound))
                 !cum))
          bounds;
        cum := !cum + counts.(Array.length bounds);
        Buffer.add_string buf
          (Printf.sprintf "%s %d\n"
             (with_label (with_suffix m.name "_bucket") "le=\"+Inf\"")
             !cum);
        Buffer.add_string buf
          (Printf.sprintf "%s %d\n" (with_suffix m.name "_sum") sum);
        Buffer.add_string buf
          (Printf.sprintf "%s %d\n" (with_suffix m.name "_count") !cum))
    metrics
