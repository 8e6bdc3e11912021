(** Nestable phase spans over the monotonic clock.

    Recording is off by default: {!with_span} costs one branch and no
    allocation until {!set_enabled}[ true].  Spans nest lexically
    (partition inside allocate inside a benchmark span, etc.); each
    completed span records its start timestamp, duration and nesting
    depth, which {!Trace_export} maps onto Chrome complete ("X")
    events. *)

type span = {
  name : string;
  ts_ns : int64;   (** start, monotonic *)
  dur_ns : int64;
  depth : int;     (** nesting depth at entry (0 = top level) *)
  domain : int;    (** recording domain's id — one trace track each *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk, recording a span when enabled.  Exception-safe: the
    span is recorded (and the depth restored) even if the thunk
    raises. *)

val spans : unit -> span list
(** Completed spans in chronological (start-time) order. *)

val reset : unit -> unit
(** Drop recorded spans (does not change enablement). *)

val totals : unit -> (string * (int * float)) list
(** Per-name aggregation of recorded spans: [(name, (calls, total_ms))]
    sorted by descending total time.  Nested spans are counted in their
    parents too, as in any inclusive-time profile. *)

val totals_table : wall_ms:float -> Util.Table.t
(** ["Profile: per-phase time (inclusive)"]: {!totals} as a table,
    each phase's time also as a percentage of [wall_ms]. *)
