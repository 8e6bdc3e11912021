(** Chrome trace-event export for {!Span} recordings, {!Counters}
    tracks and {!Timeline} warp intervals.

    Produces the JSON object format understood by [chrome://tracing]
    and the Perfetto UI: a [traceEvents] array of complete ("X")
    events with microsecond [ts]/[dur], one per recorded span.
    Timestamps are rebased to the earliest span so traces start near
    zero.  Each span carries its recording domain's id as the event
    [tid] (plus a [thread_name] metadata row per domain), so a
    [--jobs N] profile renders as N parallel tracks.

    When [counters] is supplied, each {!Counters.track} is emitted as a
    Perfetto counter ("C") track on a separate process row (pid 2,
    named ["rfh counters (simulated time)"]): counter timestamps are
    simulated time (cycles or instruction windows), not wall clock, and
    are byte-deterministic for a fixed seed.  Counter samples keep
    their recording domain as the event [tid].

    When [timeline] is supplied, each {!Timeline.interval} is emitted
    as a duration slice on a third process row (pid 3, named
    ["rfh warp timeline (cycles)"]): one thread ([tid]) per warp, slice
    name = pipeline state, [ts]/[dur] in cycles — the run opens in
    Perfetto as a per-warp pipeline waterfall alongside the counter
    tracks.  Like counters, timeline rows are byte-deterministic for a
    fixed seed.

    [?base_ns] overrides the rebase point (default: earliest span):
    pass a common absolute timestamp when combining spans with
    separately-based rows (e.g. {!Engine.trace_events}) so every
    wall-clock track shares one zero.  [?extra] appends pre-built
    trace events (already rebased by the caller) to the [traceEvents]
    array. *)

(** {1 Process-row registry}

    Every track source that can appear in a merged trace owns exactly
    one Perfetto process id, assigned here and nowhere else, so
    independently generated fragments never collide. *)

val spans_pid : int
(** [1] — wall-clock simulator spans ({!Span}). *)

val counters_pid : int
(** [2] — counter tracks, simulated time ({!Counters}). *)

val timeline_pid : int
(** [3] — per-warp pipeline timeline, simulated time ({!Timeline}). *)

val engine_pid : int
(** [4] — host-engine decomposition rows ({!Engine.trace_events}). *)

val gc_pid : int
(** [5] — GC pause rows ({!Engine.gc_trace_events}). *)

val domain_name : int -> string
(** ["domain N"]; domain 0 is ["domain 0 (main)"]. *)

val process_rows : pid:int -> name:string -> ?thread:(int -> string) -> int list -> Json.t list
(** The metadata rows every track source starts with: process [pid]
    named [name], then one thread row per tid, named by [thread]
    (default {!domain_name}). *)

val earliest_span_ns : Span.span list -> int64
(** The default rebase point: the earliest span timestamp (0 when
    there are no spans). *)

val json_of_spans :
  ?process_name:string ->
  ?counters:Counters.track list ->
  ?timeline:Timeline.interval list ->
  ?base_ns:int64 ->
  ?extra:Json.t list ->
  Span.span list ->
  Json.t

val to_string :
  ?process_name:string ->
  ?counters:Counters.track list ->
  ?timeline:Timeline.interval list ->
  ?base_ns:int64 ->
  ?extra:Json.t list ->
  Span.span list ->
  string

val write_file :
  path:string ->
  ?process_name:string ->
  ?counters:Counters.track list ->
  ?timeline:Timeline.interval list ->
  ?base_ns:int64 ->
  ?extra:Json.t list ->
  Span.span list ->
  unit
(** @raise Sys_error on I/O failure. *)
