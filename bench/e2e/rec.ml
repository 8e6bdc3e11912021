(* The benchmark's own span recorder.

   One span per call the benchmark makes into a library layer: name
   (the layer), a class (scheme, IPC band or artefact), start, end,
   the enclosing benchmark span and the timed operation it belongs to.
   Spans stay in memory and are written out once, at exit.  Only the
   main domain calls in here, so the state is plain refs.

   Off by default: [call] is then one branch and runs the thunk. *)

type span = {
  id : int;
  name : string;
  cls : string;
  op : int;  (** timed operation id; -1 during set-up *)
  parent : int;  (** enclosing benchmark span id; -1 at top level *)
  t0 : int64;
  t1 : int64;
  work : int;  (** instructions the call processed (static or simulated) *)
  words : float;  (** minor words the call allocated *)
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let current_op = ref (-1)

let start () =
  recorded := [];
  next_id := 0;
  open_ids := [];
  current_op := -1;
  on := true

let stop () = on := false

let spans () = List.rev !recorded

let no_tag _ = ("", 0)

(* [tag] sees the call's result, so classes and instruction counts
   known only afterwards (simulated instructions, achieved IPC) are
   still attached to the span. *)
let call ?(tag = no_tag) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let w0 = Gc.minor_words () in
    let t0 = Obs.Clock.now_ns () in
    let r = Fun.protect ~finally:(fun () -> open_ids := List.tl !open_ids) f in
    let t1 = Obs.Clock.now_ns () in
    let words = Gc.minor_words () -. w0 in
    let cls, work = tag r in
    recorded := { id; name; cls; op = !current_op; parent; t0; t1; work; words } :: !recorded;
    r
  end

let dur_ns s = Int64.to_int (Int64.sub s.t1 s.t0)

(* Layer of a span the library records itself ([Obs.Span]).  The
   analysis and strand passes are one layer: [Alloc.Context.create] is
   their only public entry. *)
let layer_of_obs_span = function
  | "cfg" | "dominance" | "liveness" | "reaching" | "duchain" | "partition" | "must_defined" ->
    "analysis"
  | "allocate" -> "alloc.allocate"
  | "simulate.perf" -> "sim.perf"
  | "simulate" -> "sim.traffic"
  | "simulate.simt" -> "sim.simt"
  | "energy" -> "energy"
  | n when String.starts_with ~prefix:"artefact:" n -> "experiments"
  | n when String.starts_with ~prefix:"manifest." n -> "experiments"
  | n when String.starts_with ~prefix:"transform." n -> "transform"
  | n -> n

type interval = { layer : string; dom : int; a : int64; b : int64; outer_first : int }

(* Self time per layer over a window of [wall_ns] on [jobs] domains:
   each span's duration minus the part its direct children cover, per
   domain, summed by layer.  The [unattributed] row is whatever of
   [wall_ns * jobs] no span claims, so the rows sum to the budget
   exactly; [check_table] rejects a negative one. *)
let layer_table ~wall_ns ~jobs (own : span list) (lib : Obs.Span.span list) =
  let main = (Domain.self () :> int) in
  let ivs =
    List.map (fun s -> { layer = s.name; dom = main; a = s.t0; b = s.t1; outer_first = 0 }) own
    @ List.map
        (fun (s : Obs.Span.span) ->
          {
            layer = layer_of_obs_span s.Obs.Span.name;
            dom = s.Obs.Span.domain;
            a = s.Obs.Span.ts_ns;
            b = Int64.add s.Obs.Span.ts_ns s.Obs.Span.dur_ns;
            outer_first = 1;
          })
        lib
  in
  let order x y =
    match compare x.dom y.dom with
    | 0 -> (
      match Int64.compare x.a y.a with
      | 0 -> (
        match Int64.compare y.b x.b with 0 -> compare x.outer_first y.outer_first | c -> c)
      | c -> c)
    | c -> c
  in
  let self = Hashtbl.create 16 in
  let add layer ns =
    Hashtbl.replace self layer (ns + Option.value ~default:0 (Hashtbl.find_opt self layer))
  in
  (* Stack of open intervals with the child time charged to each. *)
  let stack = ref [] in
  let close_until dom t =
    let rec go () =
      match !stack with
      | (iv, child) :: rest when iv.dom <> dom || Int64.compare iv.b t <= 0 ->
        let d = Int64.to_int (Int64.sub iv.b iv.a) in
        add iv.layer (d - child);
        stack := rest;
        (match rest with
         | (p, pc) :: rest' when p.dom = iv.dom -> stack := (p, pc + d) :: rest'
         | _ -> ());
        go ()
      | _ -> ()
    in
    go ()
  in
  List.iter
    (fun iv ->
      close_until iv.dom iv.a;
      stack := (iv, 0) :: !stack)
    (List.stable_sort order ivs);
  close_until (-1) Int64.max_int;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [] |> List.sort compare in
  let claimed = List.fold_left (fun acc (_, v) -> acc + v) 0 rows in
  rows @ [ ("unattributed", (wall_ns * jobs) - claimed) ]

let check_table ~wall_ns ~jobs rows =
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 rows in
  let negative = List.filter (fun (_, v) -> v < 0) rows in
  (if total <> wall_ns * jobs then
     [ Printf.sprintf "layer table sums to %d ns, budget is %d ns" total (wall_ns * jobs) ]
   else [])
  @ List.map (fun (l, v) -> Printf.sprintf "layer %s has negative self time %d ns" l v) negative

(* Chrome-trace rows for the benchmark's spans, on the library span
   process row and the main domain's thread, so each benchmark call
   encloses the library's own spans for it. *)
let trace_events ~base_ns (own : span list) =
  let us t = Obs.Clock.ns_to_us (Int64.sub t base_ns) in
  List.map
    (fun s ->
      Obs.Json.Obj
        [
          ("name", Obs.Json.Str (if s.cls = "" then s.name else s.name ^ ":" ^ s.cls));
          ("cat", Obs.Json.Str "bmk");
          ("ph", Obs.Json.Str "X");
          ("ts", Obs.Json.Num (us s.t0));
          ("dur", Obs.Json.Num (us s.t1 -. us s.t0));
          ("pid", Obs.Json.int Obs.Trace_export.spans_pid);
          ("tid", Obs.Json.int (Domain.self () :> int));
          ( "args",
            Obs.Json.Obj
              [
                ("id", Obs.Json.int s.id);
                ("parent", Obs.Json.int s.parent);
                ("op", Obs.Json.int s.op);
                ("work", Obs.Json.int s.work);
              ] );
        ])
    own
