(** Per-domain GC/memory observability over [Runtime_events].

    Where {!Engine} decomposes parallel wall time into engine
    categories, this module watches the OCaml 5 runtime itself: a
    consumer thread drains the self-process [Runtime_events] ring
    buffers (one ring per domain) and turns [runtime_begin]/
    [runtime_end] phase events into {e top-level GC pauses} — the
    outermost span of nested runtime phases, classified as minor
    collection, major work, or a stop-the-world barrier.  Alongside,
    [Gc.quick_stat] deltas are snapshotted at every {!Util.Eprof}
    region boundary (on the region's calling domain), giving each
    profiled region its minor/promoted/major word counts and
    collection counts.

    {!Engine.profile} runs a capture around every profiled window (on
    by default there, suppressible with [~gcprof:false]) and attributes
    each pause to the domain's task intervals, splitting every
    region's [useful] budget exactly into [compute + gc] — the same
    sum-exactness contract as the engine categories, re-verified by
    {!Engine.check}.

    Recording discipline (same contract as {!Util.Eprof}):

    - off by default; when off the only residue is one uninstalled
      hook load per recorded Eprof event — results are byte-identical
      with the recorder on or off, at any [--jobs] setting;
    - {!start} starts runtime-events collection (ring files land in
      the temp directory, not the working tree), opens a self cursor,
      installs the {!Util.Eprof} hooks and spawns the consumer
      thread; {!stop} joins it, drains the cursor and returns the
      {!capture};
    - ring-buffer slots are mapped back to Eprof domain ids by a
      handshake: each profiled domain writes one user event (carrying
      its own id) into its ring at worker start, and pauses resolve
      against the handshake nearest in time — {!pause}s whose ring
      never handshook keep [gp_dom = -1] and are excluded from
      attribution;
    - overwritten ring events are tolerated, not fatal: the consumer
      counts them in [c_lost_events] and the capture stays usable. *)

type kind =
  | Minor  (** stop-the-world minor collection *)
  | Major  (** major slice / sweep / mark work *)
  | Barrier  (** stop-the-world synchronisation without collection work *)
  | Other  (** non-GC runtime phases (condition waits, ring admin) *)

val kind_name : kind -> string
(** ["minor"], ["major"], ["barrier"], ["other"]. *)

val counts_as_gc : kind -> bool
(** Whether a pause of this kind charges a region's [gc] split
    ({!Minor}, {!Major} and {!Barrier} do; {!Other} does not). *)

type pause = {
  gp_ring : int;  (** runtime ring-buffer index the span came from *)
  gp_dom : int;  (** resolved Eprof domain id, [-1] when unresolved *)
  gp_kind : kind;
  gp_start_ns : int;  (** relative to the {!Util.Eprof} epoch *)
  gp_dur_ns : int;
}

type region_mem = {
  gm_region : int;  (** {!Util.Eprof} region id *)
  gm_minor_words : float;  (** [Gc.quick_stat] delta over the region, caller domain *)
  gm_promoted_words : float;
  gm_major_words : float;
  gm_minor_collections : int;
  gm_major_collections : int;
}

type capture = {
  c_pauses : pause list;  (** start-ascending *)
  c_region_mem : region_mem list;  (** region-id-ascending *)
  c_lost_events : int;  (** ring events overwritten before consumption *)
  c_unmatched : int;  (** [runtime_end] events without a matching begin *)
}

val enabled : unit -> bool
(** One atomic load. *)

val start : unit -> unit
(** Start capturing: enable runtime-events collection, install the
    {!Util.Eprof} hooks, spawn the consumer thread.  No-op when
    already capturing. *)

val stop : unit -> capture
(** Stop capturing and return everything captured since {!start}:
    joins the consumer, drains the cursor, uninstalls the hooks and
    pauses runtime-events collection.  Returns an empty capture when
    not capturing.  Pause timestamps are resolved against the
    {!Util.Eprof} epoch of the capture window. *)
