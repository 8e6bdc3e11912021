(** Metrics registry: named counters, gauges and histograms.

    Instrumented code obtains a handle once (lookups intern by name, so
    a handle per call site is cheap to create at module init) and bumps
    it with no further hashing.  Snapshots decouple reporting from
    collection: take one before and one after a region of interest and
    {!diff} them, or {!reset} the registry between runs.

    Histograms keep running count/sum/min/max plus integer-binned
    observations from which the summary percentiles are estimated; an
    observation boxes nothing beyond its argument. *)

type registry

val default : registry
(** The process-wide registry every instrumented library reports into. *)

val create_registry : unit -> registry

type counter
type gauge
type histogram

val counter : ?registry:registry -> string -> counter
(** Intern a counter by name (creating it at zero). *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : ?registry:registry -> string -> gauge
val set_gauge : gauge -> float -> unit

val histogram : ?registry:registry -> string -> histogram
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hist_summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;  (** 0 when empty *)
  max : float;
  p50 : float;  (** estimated from integer bins *)
  p95 : float;
  p99 : float;
}

type snapshot = {
  counters : (string * int) list;       (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}

val snapshot : ?registry:registry -> unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: counter-wise subtraction; gauges keep the
    later value; histogram count/sum subtract while min/max/percentiles
    keep the later window's values (they are not invertible). *)

val reset : ?registry:registry -> unit -> unit
(** Zero every registered instrument (handles stay valid). *)

val is_empty : snapshot -> bool
(** No counters/histograms with activity and no gauges set. *)

val to_table : ?title:string -> snapshot -> Util.Table.t
val to_json : snapshot -> Json.t

val snapshot_codec : snapshot Json.codec
(** The {!to_json} encoding and its decoder (run manifests embed a
    snapshot).  Entry order is kept from the JSON, which {!to_json}
    emits name-sorted, so a decode/re-encode round-trip is
    byte-stable. *)
