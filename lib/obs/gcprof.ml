(* Per-domain GC/memory capture over Runtime_events.  See gcprof.mli
   for the contract.  One consumer thread owns all ring-side state
   (ring phase stacks, raw pauses, handshakes); the Eprof hooks run on
   the emitting domains and only touch the region-snapshot table,
   which has its own mutex.  Nothing here runs at all while disabled —
   the hooks are installed by [start] and removed by [stop]. *)

module Re = Runtime_events

type kind = Minor | Major | Barrier | Other

let kind_name = function
  | Minor -> "minor"
  | Major -> "major"
  | Barrier -> "barrier"
  | Other -> "other"

let counts_as_gc = function Minor | Major | Barrier -> true | Other -> false

type pause = {
  gp_ring : int;
  gp_dom : int;
  gp_kind : kind;
  gp_start_ns : int;
  gp_dur_ns : int;
}

type region_mem = {
  gm_region : int;
  gm_minor_words : float;
  gm_promoted_words : float;
  gm_major_words : float;
  gm_minor_collections : int;
  gm_major_collections : int;
}

type capture = {
  c_pauses : pause list;
  c_region_mem : region_mem list;
  c_lost_events : int;
  c_unmatched : int;
}

let empty_capture = { c_pauses = []; c_region_mem = []; c_lost_events = 0; c_unmatched = 0 }
let on = Atomic.make false
let enabled () = Atomic.get on

(* Bumped at every [start]; the per-domain handshake key compares
   against it so each domain re-tags its ring once per window. *)
let generation = Atomic.make 0

(* ---- phase classification ---------------------------------------- *)

let prefixed p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Classify a runtime phase name.  The 5.1 phase vocabulary is flat
   strings like "minor_local_roots", "major_slice", "stw_api_barrier",
   "explicit_gc_full_major", "domain_condition_wait" — prefix rules
   cover it without enumerating every variant. *)
let classify name =
  if prefixed "minor" name || prefixed "explicit_gc_minor" name then Minor
  else if
    prefixed "major" name || prefixed "explicit_gc_major" name
    || prefixed "explicit_gc_full" name
    || prefixed "explicit_gc_compact" name
    || prefixed "finalise" name
  then Major
  else if prefixed "stw" name || prefixed "interrupt" name then Barrier
  else Other

(* ---- consumer-side state (single-threaded: consumer, then the
   [stop] caller after the join) ------------------------------------ *)

(* Runtime phases nest; a "pause" is the outermost span.  The kind is
   decided by what the span contained: any minor phase makes it a
   minor collection (minor GCs hide inside stw spans), else any major
   phase makes it major work, else the top phase's own class. *)
type ring_state = {
  mutable depth : int;
  mutable top_kind : kind;
  mutable top_start : int64;
  mutable saw_minor : bool;
  mutable saw_major : bool;
}

type raw_pause = { rp_ring : int; rp_kind : kind; rp_start : int64; rp_stop : int64 }

let rings : (int, ring_state) Hashtbl.t = Hashtbl.create 8

let ring_state ring =
  match Hashtbl.find_opt rings ring with
  | Some st -> st
  | None ->
    let st =
      { depth = 0; top_kind = Other; top_start = 0L; saw_minor = false; saw_major = false }
    in
    Hashtbl.add rings ring st;
    st

let raw_pauses : raw_pause list ref = ref []
let lost = ref 0
let unmatched = ref 0

(* ring index -> (abs timestamp, Eprof domain id) handshakes, newest
   first.  Written only by the consumer (from the user events the
   worker domains put in their own rings). *)
let handshakes : (int, (int64 * int) list ref) Hashtbl.t = Hashtbl.create 8

let handshake_list ring =
  match Hashtbl.find_opt handshakes ring with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add handshakes ring l;
    l

(* ---- ring -> domain handshake (emitting-domain side) -------------- *)

type Re.User.tag += Dom_id

let dom_user_ev = lazy (Re.User.register "rfh.gcprof.dom" Dom_id Re.Type.int)
let hs_key = Domain.DLS.new_key (fun () -> ref (-1))

(* Tag the calling domain's ring with its Eprof id, once per capture
   window.  Costs one DLS read + int compare when already tagged. *)
let handshake () =
  let gen = Atomic.get generation in
  let last = Domain.DLS.get hs_key in
  if !last <> gen then begin
    last := gen;
    Re.User.write (Lazy.force dom_user_ev) (Util.Eprof.self ())
  end

(* ---- region quick_stat deltas (emitting-domain side) -------------- *)

let reg_mu = Mutex.create ()
let reg_snaps : (int, Gc.stat) Hashtbl.t = Hashtbl.create 64
let reg_mem : region_mem list ref = ref []

let on_emit ev =
  handshake ();
  match ev with
  | Util.Eprof.Region_begin { region; _ } ->
    let s = Gc.quick_stat () in
    Mutex.lock reg_mu;
    Hashtbl.replace reg_snaps region s;
    Mutex.unlock reg_mu
  | Util.Eprof.Region_end { region; _ } ->
    let s1 = Gc.quick_stat () in
    Mutex.lock reg_mu;
    (match Hashtbl.find_opt reg_snaps region with
    | Some s0 ->
      Hashtbl.remove reg_snaps region;
      reg_mem :=
        {
          gm_region = region;
          gm_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
          gm_promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
          gm_major_words = s1.Gc.major_words -. s0.Gc.major_words;
          gm_minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
          gm_major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
        }
        :: !reg_mem
    | None -> ());
    Mutex.unlock reg_mu
  | _ -> ()

(* ---- callbacks ---------------------------------------------------- *)

let on_runtime_begin ring ts phase =
  let k = classify (Re.runtime_phase_name phase) in
  let st = ring_state ring in
  if st.depth = 0 then begin
    st.top_kind <- k;
    st.top_start <- Re.Timestamp.to_int64 ts;
    st.saw_minor <- false;
    st.saw_major <- false
  end;
  (match k with
  | Minor -> st.saw_minor <- true
  | Major -> st.saw_major <- true
  | Barrier | Other -> ());
  st.depth <- st.depth + 1

let on_runtime_end ring ts _phase =
  let st = ring_state ring in
  if st.depth = 0 then incr unmatched
  else begin
    st.depth <- st.depth - 1;
    if st.depth = 0 then begin
      let kind =
        if st.saw_minor then Minor else if st.saw_major then Major else st.top_kind
      in
      raw_pauses :=
        { rp_ring = ring; rp_kind = kind; rp_start = st.top_start; rp_stop = Re.Timestamp.to_int64 ts }
        :: !raw_pauses
    end
  end

let on_lost ring_ n = ignore (ring_ : int); lost := !lost + n

let on_dom ring ts ev v =
  match Re.User.tag ev with
  | Dom_id ->
    let l = handshake_list ring in
    l := (Re.Timestamp.to_int64 ts, v) :: !l
  | _ -> ()

let process_callbacks =
  lazy
    (Re.Callbacks.create ~runtime_begin:on_runtime_begin ~runtime_end:on_runtime_end
       ~lost_events:on_lost ()
    |> Re.Callbacks.add_user_event Re.Type.int on_dom)

(* Used to skip stale ring contents left by earlier windows: a fresh
   cursor starts at the oldest data in the ring, not at "now". *)
let discard_callbacks = lazy (Re.Callbacks.create ())

(* ---- lifecycle ---------------------------------------------------- *)

let started_once = ref false
let cursor : Re.cursor option ref = ref None
let consumer : Thread.t option ref = ref None

let consume () =
  let cbs = Lazy.force process_callbacks in
  while Atomic.get on do
    (match !cursor with
    | Some c -> ignore (Re.read_poll c cbs None : int)
    | None -> ());
    Thread.delay 0.001
  done

let reset_state () =
  Hashtbl.reset rings;
  Hashtbl.reset handshakes;
  raw_pauses := [];
  lost := 0;
  unmatched := 0;
  Mutex.lock reg_mu;
  Hashtbl.reset reg_snaps;
  reg_mem := [];
  Mutex.unlock reg_mu

let start () =
  if not (Atomic.get on) then begin
    if not !started_once then begin
      (* The runtime creates its <pid>.events ring file in this
         directory (read once, here); keep it out of the work tree. *)
      Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" (Filename.get_temp_dir_name ());
      Re.start ();
      started_once := true
    end;
    Re.pause ();
    let c = Re.create_cursor None in
    let disc = Lazy.force discard_callbacks in
    while Re.read_poll c disc None > 0 do
      ()
    done;
    reset_state ();
    cursor := Some c;
    Atomic.incr generation;
    Re.resume ();
    Atomic.set on true;
    Util.Eprof.set_emit_hook (Some on_emit);
    Util.Eprof.set_worker_start_hook (Some handshake);
    (* The caller is always part of any team it profiles. *)
    handshake ();
    consumer := Some (Thread.create consume ())
  end

let stop () =
  if not (Atomic.get on) then empty_capture
  else begin
    Util.Eprof.set_emit_hook None;
    Util.Eprof.set_worker_start_hook None;
    Atomic.set on false;
    (match !consumer with Some t -> Thread.join t | None -> ());
    consumer := None;
    let cbs = Lazy.force process_callbacks in
    (match !cursor with
    | Some c ->
      while Re.read_poll c cbs None > 0 do
        ()
      done;
      Re.free_cursor c
    | None -> ());
    cursor := None;
    Re.pause ();
    let epoch = Util.Eprof.epoch_ns () in
    (* Map a pause back to a domain: the handshake on the same ring
       nearest before it, else the earliest after (a fresh domain may
       trigger GC during spawn, before it can tag its ring). *)
    let resolve_dom ring t =
      match Hashtbl.find_opt handshakes ring with
      | None -> -1
      | Some l -> (
        let entries = List.sort (fun (a, _) (b, _) -> Int64.compare a b) !l in
        let before = List.filter (fun (ts, _) -> Int64.compare ts t <= 0) entries in
        match List.rev before with
        | (_, d) :: _ -> d
        | [] -> ( match entries with (_, d) :: _ -> d | [] -> -1))
    in
    let pauses =
      !raw_pauses
      |> List.rev_map (fun rp ->
             {
               gp_ring = rp.rp_ring;
               gp_dom = resolve_dom rp.rp_ring rp.rp_start;
               gp_kind = rp.rp_kind;
               gp_start_ns = Int64.to_int (Int64.sub rp.rp_start epoch);
               gp_dur_ns = Int64.to_int (Int64.sub rp.rp_stop rp.rp_start);
             })
      |> List.sort (fun a b -> compare (a.gp_start_ns, a.gp_ring) (b.gp_start_ns, b.gp_ring))
    in
    Mutex.lock reg_mu;
    let mems = List.sort (fun a b -> compare a.gm_region b.gm_region) !reg_mem in
    Mutex.unlock reg_mu;
    let cap =
      { c_pauses = pauses; c_region_mem = mems; c_lost_events = !lost; c_unmatched = !unmatched }
    in
    reset_state ();
    cap
  end
