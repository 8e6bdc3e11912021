(* Domain-safety: counters and gauges are atomics (a bump from a worker
   domain is one fetch-and-add, no lock); histograms carry their own
   mutex; each registry's intern tables are protected by the registry
   mutex.  Snapshots lock the registry, then each histogram — always in
   that order, so the two-level locking cannot deadlock.

   Both lock levels are profiled through Util.Eprof (all histogram
   mutexes share one "obs.metrics.hist" profile: contention there is a
   property of the telemetry design, not of any one histogram), so
   `rfh engine` can say how much parallel wall time is spent waiting
   on metrics. *)

let rlock = Util.Eprof.lock_create "obs.metrics.registry"
let hlock = Util.Eprof.lock_create "obs.metrics.hist"

module Bins = Hashtbl.Make (Int)

(* [stats] holds the running sum, min and max, in that order: stores
   into a float array neither box nor go through the write barrier, as
   float fields of a mixed record would.  [bins] counts observations
   truncated to int, in a table specialised to int keys. *)
type hist = {
  hmu : Mutex.t;
  mutable hcount : int;
  stats : float array;
  bins : int ref Bins.t;
}

type registry = {
  rmu : Mutex.t;
  counters : (string, int Atomic.t) Hashtbl.t;
  gauges : (string, float Atomic.t) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create_registry () =
  {
    rmu = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
  }

let default = create_registry ()

type counter = int Atomic.t
type gauge = float Atomic.t
type histogram = hist

let intern registry table name make =
  Util.Eprof.lock_acquire rlock registry.rmu;
  let x =
    match Hashtbl.find_opt table name with
    | Some x -> x
    | None ->
      let x = make () in
      Hashtbl.add table name x;
      x
  in
  Mutex.unlock registry.rmu;
  x

let counter ?(registry = default) name =
  intern registry registry.counters name (fun () -> Atomic.make 0)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by : int)

let counter_value c = Atomic.get c

let gauge ?(registry = default) name =
  intern registry registry.gauges name (fun () -> Atomic.make 0.0)

let set_gauge g v = Atomic.set g v

let histogram ?(registry = default) name =
  intern registry registry.hists name (fun () ->
      {
        hmu = Mutex.create ();
        hcount = 0;
        stats = [| 0.0; infinity; neg_infinity |];
        bins = Bins.create 16;
      })

let observe h v =
  Util.Eprof.lock_acquire hlock h.hmu;
  h.hcount <- h.hcount + 1;
  let st = h.stats in
  st.(0) <- st.(0) +. v;
  if v < st.(1) then st.(1) <- v;
  if v > st.(2) then st.(2) <- v;
  let bin = int_of_float v in
  (match Bins.find h.bins bin with
   | n -> n := !n + 1
   | exception Not_found -> Bins.add h.bins bin (ref 1));
  Mutex.unlock h.hmu

type hist_summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}

let percentile_of_sorted_bins bins total q =
  if total = 0 then 0.0
  else begin
    let want = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let seen = ref 0 in
    let result = ref 0.0 in
    (try
       List.iter
         (fun (k, n) ->
           seen := !seen + n;
           if !seen >= want then begin
             result := float_of_int k;
             raise Exit
           end)
         bins
     with Exit -> ());
    !result
  end

(* Percentiles are computed on a copy of the bins taken under the
   histogram mutex; the O(n log n) sort happens after release, so a
   large histogram can't stall concurrent [observe] calls (or, via the
   registry lock in [snapshot], concurrent counter interning). *)
let summarize h =
  Util.Eprof.lock_acquire hlock h.hmu;
  let count = h.hcount in
  let sum = h.stats.(0) in
  let hmin = h.stats.(1) in
  let hmax = h.stats.(2) in
  let bins = Bins.fold (fun k n acc -> (k, !n) :: acc) h.bins [] in
  Mutex.unlock h.hmu;
  let bins = List.sort (fun (a, _) (b, _) -> compare (a : int) b) bins in
  {
    count;
    sum;
    mean = (if count = 0 then 0.0 else sum /. float_of_int count);
    min = (if count = 0 then 0.0 else hmin);
    max = (if count = 0 then 0.0 else hmax);
    p50 = percentile_of_sorted_bins bins count 0.50;
    p95 = percentile_of_sorted_bins bins count 0.95;
    p99 = percentile_of_sorted_bins bins count 0.99;
  }

let sorted_bindings table f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot ?(registry = default) () =
  (* Hold the registry lock only long enough to collect handles — the
     per-histogram summaries (which sort bins) run after release. *)
  Util.Eprof.lock_acquire rlock registry.rmu;
  let counters = sorted_bindings registry.counters Fun.id in
  let gauges = sorted_bindings registry.gauges Fun.id in
  let hists = sorted_bindings registry.hists Fun.id in
  Mutex.unlock registry.rmu;
  {
    counters = List.map (fun (k, c) -> (k, Atomic.get c)) counters;
    gauges = List.map (fun (k, g) -> (k, Atomic.get g)) gauges;
    histograms = List.map (fun (k, h) -> (k, summarize h)) hists;
  }

let diff later earlier =
  let find name xs = List.assoc_opt name xs in
  let counters =
    List.map
      (fun (name, v) ->
        (name, v - Option.value ~default:0 (find name earlier.counters)))
      later.counters
  in
  let histograms =
    List.map
      (fun (name, (s : hist_summary)) ->
        match find name earlier.histograms with
        | None -> (name, s)
        | Some e ->
          let count = s.count - e.count in
          let sum = s.sum -. e.sum in
          ( name,
            { s with count; sum; mean = (if count = 0 then 0.0 else sum /. float_of_int count) } ))
      later.histograms
  in
  { counters; gauges = later.gauges; histograms }

let reset ?(registry = default) () =
  Util.Eprof.lock_acquire rlock registry.rmu;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) registry.counters;
  Hashtbl.iter (fun _ g -> Atomic.set g 0.0) registry.gauges;
  Hashtbl.iter
    (fun _ h ->
      Util.Eprof.lock_acquire hlock h.hmu;
      h.hcount <- 0;
      h.stats.(0) <- 0.0;
      h.stats.(1) <- infinity;
      h.stats.(2) <- neg_infinity;
      Bins.reset h.bins;
      Mutex.unlock h.hmu)
    registry.hists;
  Mutex.unlock registry.rmu

let is_empty s =
  List.for_all (fun (_, v) -> v = 0) s.counters
  && s.gauges = []
  && List.for_all (fun (_, (h : hist_summary)) -> h.count = 0) s.histograms

let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e12 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.3f" x

let to_table ?(title = "Metrics") s =
  let t = Util.Table.create ~title ~columns:[ "Metric"; "Value"; "Detail" ] in
  List.iter
    (fun (name, v) -> Util.Table.add_row t [ name; string_of_int v; "counter" ])
    s.counters;
  List.iter
    (fun (name, v) -> Util.Table.add_row t [ name; fmt_float v; "gauge" ])
    s.gauges;
  List.iter
    (fun (name, (h : hist_summary)) ->
      Util.Table.add_row t
        [
          name;
          string_of_int h.count;
          Printf.sprintf "mean %s  min %s  p50 %s  p95 %s  p99 %s  max %s" (fmt_float h.mean)
            (fmt_float h.min) (fmt_float h.p50) (fmt_float h.p95) (fmt_float h.p99)
            (fmt_float h.max);
        ])
    s.histograms;
  t

let summary_codec =
  Json.(
    obj (fun count sum mean min max p50 p95 p99 -> { count; sum; mean; min; max; p50; p95; p99 })
    |> req "count" integer (fun h -> h.count)
    |> req "sum" num (fun h -> h.sum)
    |> req "mean" num (fun h -> h.mean)
    |> req "min" num (fun h -> h.min)
    |> req "max" num (fun h -> h.max)
    |> req "p50" num (fun h -> h.p50)
    |> req "p95" num (fun h -> h.p95)
    |> req "p99" num (fun h -> h.p99)
    |> seal)

let snapshot_codec =
  Json.(
    obj (fun counters gauges histograms -> { counters; gauges; histograms })
    |> req "counters" (assoc integer) (fun s -> s.counters)
    |> req "gauges" (assoc num) (fun s -> s.gauges)
    |> req "histograms" (assoc summary_codec) (fun s -> s.histograms)
    |> seal)

let to_json = Json.encode snapshot_codec
