(* The process-row (pid) registry for every track this repo can merge
   into one Perfetto trace.  Each data source gets its own pid — both
   because several run on different time bases (simulated cycles
   vs. wall clock) that would render nonsense interleaved on one row,
   and so independently-generated fragments can always be concatenated
   without collisions.  All pid constants live here; nothing else may
   hardcode one. *)

(* Wall-clock simulator spans ([Obs.Span]). *)
let spans_pid = 1

(* Counter tracks: timestamps are simulated time (cycles / instruction
   windows), byte-deterministic for a fixed seed while the span rows
   stay timing-tolerant. *)
let counters_pid = 2

(* Warp timeline slices share the counters' simulated time base but get
   their own process row: one thread per warp, so the run opens in
   Perfetto as a pipeline waterfall. *)
let timeline_pid = 3

(* Host-engine decomposition rows ([Obs.Engine.trace_events]), wall
   clock, one thread per worker domain. *)
let engine_pid = 4

(* GC pause rows ([Obs.Engine.gc_trace_events]), wall clock, one
   thread per worker domain — lines up under the engine track so a
   task slice and the collector time inside it are one vertical. *)
let gc_pid = 5

(* Every track source names its process row and its thread rows with
   the same metadata events; domain 0 is the main domain. *)
let domain_name did = if did = 0 then "domain 0 (main)" else Printf.sprintf "domain %d" did

let process_rows ~pid ~name ?(thread = domain_name) tids =
  let row what tid label =
    Json.Obj
      [
        ("name", Json.Str what);
        ("ph", Json.Str "M");
        ("pid", Json.int pid);
        ("tid", Json.int tid);
        ("args", Json.Obj [ ("name", Json.Str label) ]);
      ]
  in
  row "process_name" 0 name :: List.map (fun tid -> row "thread_name" tid (thread tid)) tids

let json_of_timeline (ivs : Timeline.interval list) =
  let warps = List.sort_uniq compare (List.map (fun iv -> iv.Timeline.warp) ivs) in
  let events =
    List.map
      (fun (iv : Timeline.interval) ->
        Json.Obj
          [
            ("name", Json.Str (Timeline.state_name iv.Timeline.state));
            ("cat", Json.Str "rfh");
            ("ph", Json.Str "X");
            ("ts", Json.int iv.Timeline.start);
            ("dur", Json.int (iv.Timeline.stop - iv.Timeline.start));
            ("pid", Json.int timeline_pid);
            ("tid", Json.int iv.Timeline.warp);
          ])
      ivs
  in
  process_rows ~pid:timeline_pid ~name:"rfh warp timeline (cycles)"
    ~thread:(Printf.sprintf "warp %d") warps
  @ events

let json_of_counters (tracks : Counters.track list) =
  let domains =
    List.concat_map (fun (t : Counters.track) -> List.map (fun s -> s.Counters.domain) t.Counters.samples) tracks
    |> List.sort_uniq compare
  in
  let events =
    List.concat_map
      (fun (t : Counters.track) ->
        List.map
          (fun (s : Counters.sample) ->
            Json.Obj
              [
                ("name", Json.Str t.Counters.track);
                ("cat", Json.Str "rfh");
                ("ph", Json.Str "C");
                ("ts", Json.Num s.Counters.at);
                ("pid", Json.int counters_pid);
                ("tid", Json.int s.Counters.domain);
                ("args", Json.Obj [ ("value", Json.Num s.Counters.value) ]);
              ])
          t.Counters.samples)
      tracks
  in
  process_rows ~pid:counters_pid ~name:"rfh counters (simulated time)" domains @ events

let earliest_span_ns spans =
  List.fold_left
    (fun acc (s : Span.span) -> if Int64.compare s.Span.ts_ns acc < 0 then s.Span.ts_ns else acc)
    (match spans with [] -> 0L | s :: _ -> s.Span.ts_ns)
    spans

let json_of_spans ?(process_name = "rfh") ?(counters = []) ?(timeline = []) ?base_ns ?(extra = [])
    spans =
  let base = match base_ns with Some b -> b | None -> earliest_span_ns spans in
  (* One trace track (tid) per recording domain: spans from a --jobs N
     fan-out render as N parallel rows in Perfetto instead of
     collapsing onto one. *)
  let domains =
    List.sort_uniq compare (List.map (fun (s : Span.span) -> s.Span.domain) spans)
  in
  let events =
    List.map
      (fun (s : Span.span) ->
        Json.Obj
          [
            ("name", Json.Str s.Span.name);
            ("cat", Json.Str "rfh");
            ("ph", Json.Str "X");
            ("ts", Json.Num (Clock.ns_to_us (Int64.sub s.Span.ts_ns base)));
            ("dur", Json.Num (Clock.ns_to_us s.Span.dur_ns));
            ("pid", Json.int spans_pid);
            ("tid", Json.int s.Span.domain);
            ("args", Json.Obj [ ("depth", Json.int s.Span.depth) ]);
          ])
      spans
  in
  let counter_events = match counters with [] -> [] | tracks -> json_of_counters tracks in
  let timeline_events = match timeline with [] -> [] | ivs -> json_of_timeline ivs in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (process_rows ~pid:spans_pid ~name:process_name domains
          @ events @ counter_events @ timeline_events @ extra) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_string ?process_name ?counters ?timeline ?base_ns ?extra spans =
  Json.to_string (json_of_spans ?process_name ?counters ?timeline ?base_ns ?extra spans)

let write_file ~path ?process_name ?counters ?timeline ?base_ns ?extra spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (json_of_spans ?process_name ?counters ?timeline ?base_ns ?extra spans);
      output_char oc '\n')
