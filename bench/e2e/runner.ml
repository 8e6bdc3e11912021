(* One benchmark run: set-up, a reference pass, the timed phase, the
   output checks and the metrics.

   End-to-end metrics come from an untraced run.  A traced run records
   the benchmark's own spans ({!Rec}), the library's [Obs.Span] spans
   and, on a workload that fans out, an [Obs.Engine] profile, and
   reports the per-layer metrics instead. *)

type metric = { name : string; unit : string; better : string }

let m ?(better = "lower") name unit = { name; unit; better }

let end_to_end =
  [
    m "setup_s" "s";
    m ~better:"higher" "ops_per_s" "1/s";
    m "op_ms_p50" "ms";
    m "peak_rss_mb" "MB";
  ]

let artefact_metric a = Printf.sprintf "experiments.%s_ms_per_op" a
let memo_tables = [ "sweep.run"; "sweep.context"; "perf_study.result" ]
let pool_metric cat = Printf.sprintf "util.pool.%s_share" (String.map (function ' ' -> '_' | c -> c) cat)

let self_layers =
  [ "analysis"; "alloc.allocate"; "alloc.verify"; "sim.perf"; "sim.traffic"; "energy"; "experiments";
    "util.table" ]

let per_layer =
  [ m "workloads.generate_s" "s" ]
  @ List.map (fun l -> m (l ^ ".self_ms_per_op") "ms/op") self_layers
  @ [
      m "unattributed_ms_per_op" "ms/op";
      m "analysis.ns_per_instr" "ns/instr";
      m "alloc.allocate.ns_per_instr" "ns/instr";
      m "alloc.verify.ns_per_instr" "ns/instr";
      m "alloc.verify_share" "%";
      m "sim.perf.ns_per_instr" "ns/instr";
      m "sim.perf.ns_per_instr.lowipc" "ns/instr";
      m "sim.perf.ns_per_instr.highipc" "ns/instr";
      m "sim.perf.minor_words_per_run" "words";
      m "sim.traffic.ns_per_instr" "ns/instr";
      m "sim.traffic.ns_per_instr.baseline" "ns/instr";
      m "sim.traffic.ns_per_instr.sw" "ns/instr";
      m "sim.traffic.ns_per_instr.hw" "ns/instr";
      m "sim.traffic.minor_words_per_run" "words";
      m "energy.ns_per_run" "ns/run";
    ]
  @ List.map (fun (a, _) -> m (artefact_metric a) "ms/op") Experiments.Report.artefact_names
  @ List.concat_map
      (fun t ->
        [
          m (Printf.sprintf "util.memo.%s.hits_per_op" t) "count";
          m (Printf.sprintf "util.memo.%s.misses_per_op" t) "count";
          m (Printf.sprintf "util.memo.%s.waits_per_op" t) "count";
          m (Printf.sprintf "util.memo.%s.wait_ms_per_op" t) "ms/op";
        ])
      memo_tables
  @ [ m ~better:"higher" "util.memo.hit_ratio" "ratio" ]
  @ List.map
      (fun c -> m ~better:(if c = "useful" then "higher" else "lower") (pool_metric c) "%")
      Obs.Engine.category_names
  @ [
      m "runtime.gc.minor_collections_per_op" "count";
      m "runtime.gc.major_collections_per_op" "count";
      m "runtime.gc.promoted_mwords_per_op" "Mwords";
      m "runtime.gc.share" "%";
      m "trace.overhead" "ratio";
      m "ir.instrs_per_kernel" "count";
      m "strand.strands_per_kernel" "count";
      m ~better:"higher" "alloc.candidates_per_kernel" "count";
      m ~better:"higher" "alloc.placed_ratio" "ratio";
      m "alloc.partial_per_kernel" "count";
      m "alloc.verify_rejects" "count";
      m "sim.perf.idle_cycle_share" "%";
    ]
  @ List.map
      (fun c ->
        m
          ~better:(if c = Obs.Timeline.Issued then "higher" else "lower")
          (Printf.sprintf "sim.perf.stall.%s_share" (Obs.Timeline.state_name c))
          "%")
      Obs.Timeline.all_states
  @ List.map
      (fun l -> m (Printf.sprintf "sim.traffic.reads.%s" (Energy.Counts.json_key l)) "count")
      Energy.Model.[ Mrf; Orf; Rfc; Lrf ]
  @ [ m "sim.traffic.desched_events" "count"; m "sim.traffic.capped_warps" "count" ]

(* ------------------------------------------------------------------ *)
(* Order statistics.                                                   *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank. *)
let percentile p xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* [statistics.quantiles(xs, n=4)] of Python (the "exclusive"
   method), so spreads read the same as the acceptance check's. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then None
  else
    let at j = if j < 1 then a.(n - 1 + j) else a.(j - 1) in
    let q i =
      let j = i * (n + 1) / 4 and delta = (i * (n + 1)) mod 4 in
      ((at j *. float_of_int (4 - delta)) +. (at (j + 1) *. float_of_int delta)) /. 4.0
    in
    Some (q 1, q 2, q 3)

let now = Obs.Clock.now_ns
let since t0 = Int64.to_int (Int64.sub (now ()) t0)

(* Raises when the kernel does not report VmHWM: no other quantity
   stands in for it. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "peak_rss_mb: no VmHWM line in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)

type stop = Seconds of float | Ops of int

type outcome = {
  workload : Wl.workload;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, labelled *)
  notes : string list;
  digest : string;
  setup_ns : int;  (** this process's set-up, from [started] to the first timed operation *)
  metrics : (metric * float * int) list;  (** value and sample count *)
  p99_ms : float * int;
      (** printed, not gated: host load moves it beyond any bound *)
  layers : (string * int) list;  (** traced: self ns per layer, unattributed last *)
  budget_ns : int;  (** traced: timed wall x domains *)
  table_errors : string list;
}

let max_listed = 20

(* Set-up is everything from [started] to the first timed operation:
   building the inputs, the reference pass and the collection after
   it.  It runs once per process, cold: the library's lazily built
   kernels and caches are built inside it, as in any fresh command.
   [more_setups] is called after an untraced timed phase and returns
   further cold set-up times, each from its own process; [setup_s] is
   the median of all of them. *)
let run ?(wrap = Fun.id) ?expected_digest ?trace_out ?(started = now ())
    ?(more_setups = fun () -> []) ~scale ~seed ~stop ~trace w =
  if trace then Rec.start ();
  let (Wl.W spec) = wrap (Wl.setup w scale ~seed) in
  let generate_ns =
    if not trace then 0
    else
      List.fold_left
        (fun acc s -> if s.Rec.name = "workloads" then acc + Rec.dur_ns s else acc)
        0 (Rec.spans ())
  in
  Rec.stop ();
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  let fail i why =
    incr failed;
    if !failed <= max_listed then
      failures := Printf.sprintf "%s: %s: %s" (Wl.name w) (spec.Wl.label i) why :: !failures
  in
  let attempt i =
    incr attempted;
    try Some (spec.Wl.run i)
    with e ->
      fail i ("raised " ^ Printexc.to_string e);
      None
  in
  (* Reference pass: every output is checked, learned and
     canonicalised; later passes must reproduce it byte for byte. *)
  let results = Array.init spec.Wl.pass attempt in
  Array.iteri (fun i r -> Option.iter (spec.Wl.learn i) r) results;
  let reference =
    Array.mapi
      (fun i r ->
        Option.map
          (fun r ->
            Option.iter (fail i) (spec.Wl.check i r);
            spec.Wl.canon r)
          r)
      results
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (Array.to_list (Array.map (Option.value ~default:"<failed>") reference))))
  in
  let stats, notes = spec.Wl.stats () in
  let judge i r =
    match (r, reference.(i)) with
    | None, _ -> ()
    | Some r, ref_canon -> (
      match spec.Wl.check i r with
      | Some why -> fail i why
      | None ->
        if Some (spec.Wl.canon r) <> ref_canon then fail i "output differs from the reference pass")
  in
  let timed i =
    let t0 = now () in
    let r = attempt i in
    let dt = since t0 in
    judge i r;
    (dt, r <> None)
  in
  (* The timed phase starts with the set-up's garbage collected, so it
     does not pay for it. *)
  Gc.full_major ();
  let setup_ns = since started in
  (* A traced run first times one untraced pass, so the tracing cost
     is measured on the same operations. *)
  let untraced_ns =
    if not trace then [||]
    else begin
      let a = Array.init spec.Wl.pass (fun i -> fst (timed i)) in
      Gc.full_major ();
      a
    end
  in
  let lat = ref [] and traced_sum = ref 0 and untraced_sum = ref 0 in
  let gc0 = Gc.quick_stat () and memo0 = Util.Eprof.memo_stats () in
  let window () =
    let t_start = now () in
    let k = ref 0 in
    let finished () =
      match stop with
      | Ops n -> !k >= n
      | Seconds s -> !k > 0 && float_of_int (since t_start) >= s *. 1e9
    in
    while not (finished ()) do
      let i = !k mod spec.Wl.pass in
      Rec.current_op := !k;
      let dt, ok = timed i in
      if ok then lat := float_of_int dt :: !lat;
      if trace then begin
        traced_sum := !traced_sum + dt;
        untraced_sum := !untraced_sum + untraced_ns.(i)
      end;
      incr k
    done;
    (t_start, now (), !k)
  in
  if trace then begin
    Rec.start ();
    Obs.Span.reset ();
    Obs.Span.set_enabled true
  end;
  let (t_start, t_end, ops), engine =
    if trace && spec.Wl.jobs > 1 then begin
      (* The runtime-events ring of the GC capture lives next to the
         trace, inside the working tree. *)
      Option.iter (fun p -> Filename.set_temp_dir_name (Filename.dirname p)) trace_out;
      let r, report = Obs.Engine.profile ~label:(Wl.name w) ~jobs:spec.Wl.jobs window in
      (r, Some report)
    end
    else (window (), None)
  in
  Obs.Span.set_enabled false;
  Rec.stop ();
  let gc1 = Gc.quick_stat () and memo1 = Util.Eprof.memo_stats () in
  let wall_ns = Int64.to_int (Int64.sub t_end t_start) in
  (match expected_digest with
   | Some d when d <> digest ->
     failed := !attempted;
     failures :=
       Printf.sprintf "%s: output digest %s differs from the expected %s" (Wl.name w) digest d
       :: !failures
   | _ -> ());
  let samples = List.length !lat in
  let setups = if trace then [ setup_ns ] else setup_ns :: more_setups () in
  let e2e =
    [
      (median (List.map float_of_int setups) /. 1e9, List.length setups);
      (float_of_int ops /. (float_of_int wall_ns /. 1e9), ops);
      (median !lat /. 1e6, samples);
      (peak_rss_mb (), 1);
    ]
  in
  let own = if trace then List.filter (fun s -> s.Rec.op >= 0) (Rec.spans ()) else [] in
  let lib = if trace then Obs.Span.spans () else [] in
  let layers = if trace then Rec.layer_table ~wall_ns ~jobs:spec.Wl.jobs own lib else [] in
  let budget_ns = wall_ns * spec.Wl.jobs in
  let layer_values =
    if not trace then []
    else begin
      let per_op x = x /. float_of_int (max 1 ops) in
      let ms_per_op ns = per_op (float_of_int ns /. 1e6) in
      let fold p f = List.fold_left (fun acc s -> if p s then acc +. f s else acc) 0.0 own in
      let named n s = s.Rec.name = n in
      let dur s = float_of_int (Rec.dur_ns s) in
      let ns_per_instr p =
        Util.Stats.ratio (fold p dur) (fold p (fun s -> float_of_int s.Rec.work))
      in
      let per_call n f = Util.Stats.ratio (fold (named n) f) (fold (named n) (fun _ -> 1.0)) in
      let cls n c s = named n s && s.Rec.cls = c in
      let self l = Option.value ~default:0 (List.assoc_opt l layers) in
      let memo_delta t f =
        let get stats =
          match List.find_opt (fun (s : Util.Eprof.memo_stats) -> s.Util.Eprof.table = t) stats with
          | Some s -> f s
          | None -> 0
        in
        float_of_int (get memo1 - get memo0)
      in
      let hits = List.fold_left (fun a t -> a +. memo_delta t (fun s -> s.Util.Eprof.hits)) 0.0 memo_tables in
      let lookups =
        List.fold_left (fun a t -> a +. memo_delta t (fun s -> s.Util.Eprof.lookups)) 0.0 memo_tables
      in
      let pool =
        match engine with
        | None -> List.map (fun c -> (pool_metric c, 0.0)) Obs.Engine.category_names
        | Some r ->
          let cats = Obs.Engine.cat_list (Obs.Engine.agg_categories r) in
          let total = float_of_int (List.fold_left (fun a (_, v) -> a + v) 0 cats) in
          List.map (fun (c, v) -> (pool_metric c, 100.0 *. Util.Stats.ratio (float_of_int v) total)) cats
      in
      [ ("workloads.generate_s", float_of_int generate_ns /. 1e9) ]
      @ List.map (fun l -> (l ^ ".self_ms_per_op", ms_per_op (self l))) self_layers
      @ [
          ("unattributed_ms_per_op", ms_per_op (self "unattributed"));
          ("analysis.ns_per_instr", ns_per_instr (named "analysis"));
          ("alloc.allocate.ns_per_instr", ns_per_instr (named "alloc.allocate"));
          ("alloc.verify.ns_per_instr", ns_per_instr (named "alloc.verify"));
          ( "alloc.verify_share",
            100.0 *. Util.Stats.ratio (float_of_int (self "alloc.verify")) (float_of_int !traced_sum) );
          ("sim.perf.ns_per_instr", ns_per_instr (named "sim.perf"));
          ("sim.perf.ns_per_instr.lowipc", ns_per_instr (cls "sim.perf" "lowipc"));
          ("sim.perf.ns_per_instr.highipc", ns_per_instr (cls "sim.perf" "highipc"));
          ("sim.perf.minor_words_per_run", per_call "sim.perf" (fun s -> s.Rec.words));
          ("sim.traffic.ns_per_instr", ns_per_instr (named "sim.traffic"));
          ("sim.traffic.ns_per_instr.baseline", ns_per_instr (cls "sim.traffic" "baseline"));
          ("sim.traffic.ns_per_instr.sw", ns_per_instr (cls "sim.traffic" "sw"));
          ("sim.traffic.ns_per_instr.hw", ns_per_instr (cls "sim.traffic" "hw"));
          ("sim.traffic.minor_words_per_run", per_call "sim.traffic" (fun s -> s.Rec.words));
          ("energy.ns_per_run", per_call "energy" dur);
        ]
      @ List.map
          (fun (a, _) -> (artefact_metric a, per_op (fold (cls "experiments" a) dur /. 1e6)))
          Experiments.Report.artefact_names
      @ List.concat_map
          (fun t ->
            [
              (Printf.sprintf "util.memo.%s.hits_per_op" t, per_op (memo_delta t (fun s -> s.Util.Eprof.hits)));
              ( Printf.sprintf "util.memo.%s.misses_per_op" t,
                per_op (memo_delta t (fun s -> s.Util.Eprof.misses)) );
              (Printf.sprintf "util.memo.%s.waits_per_op" t, per_op (memo_delta t (fun s -> s.Util.Eprof.waits)));
              ( Printf.sprintf "util.memo.%s.wait_ms_per_op" t,
                per_op (memo_delta t (fun s -> s.Util.Eprof.wait_ns) /. 1e6) );
            ])
          memo_tables
      @ [ ("util.memo.hit_ratio", Util.Stats.ratio hits lookups) ]
      @ pool
      @ [
          ( "runtime.gc.minor_collections_per_op",
            per_op (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)) );
          ( "runtime.gc.major_collections_per_op",
            per_op (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) );
          ("runtime.gc.promoted_mwords_per_op", per_op ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6));
          ("runtime.gc.share", match engine with Some r -> 100.0 *. Obs.Engine.gc_share r | None -> 0.0);
          ( "trace.overhead",
            Util.Stats.ratio (float_of_int !traced_sum) (float_of_int !untraced_sum) -. 1.0 );
        ]
      @ stats
    end
  in
  let metrics =
    if trace then
      List.map
        (fun mt ->
          ( mt,
            Option.value ~default:0.0 (List.assoc_opt mt.name layer_values),
            if mt.name = "workloads.generate_s" then 1 else ops ))
        per_layer
    else List.map2 (fun mt (v, n) -> (mt, v, n)) end_to_end e2e
  in
  Option.iter
    (fun path ->
      let extra =
        Rec.trace_events ~base_ns:t_start own
        @ match engine with Some r -> Obs.Engine.trace_events ~base_ns:t_start r | None -> []
      in
      Obs.Trace_export.write_file ~path ~base_ns:t_start ~extra lib)
    (if trace then trace_out else None);
  let table_errors = if trace then Rec.check_table ~wall_ns ~jobs:spec.Wl.jobs layers else [] in
  {
    workload = w;
    seed;
    traced = trace;
    correct = !failed = 0 && table_errors = [];
    attempted = !attempted;
    failed = !failed;
    failures = List.rev !failures;
    notes;
    digest;
    setup_ns;
    metrics;
    p99_ms = (percentile 0.99 !lat /. 1e6, samples);
    layers;
    budget_ns;
    table_errors;
  }

(* The result line: exactly these four keys. *)
let result_json o =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool o.correct);
      ("attempted", Obs.Json.int o.attempted);
      ("failed", Obs.Json.int o.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (mt, v, _) ->
               (mt.name, Obs.Json.Obj [ ("value", Obs.Json.Num v); ("unit", Obs.Json.Str mt.unit) ]))
             o.metrics) );
    ]

(* One line of a [--json-out] file, the input of [bmk compare]. *)
let record_json o =
  match result_json o with
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      ([
         ("workload", Obs.Json.Str (Wl.name o.workload));
         ("seed", Obs.Json.int o.seed);
         ("trace", Obs.Json.Bool o.traced);
         ("digest", Obs.Json.Str o.digest);
       ]
      @ fields)
  | j -> j

let print o =
  Printf.printf "%s seed %d%s: %d operations attempted, %d failed, digest %s\n" (Wl.name o.workload)
    o.seed
    (if o.traced then " (traced)" else "")
    o.attempted o.failed o.digest;
  List.iter (fun (mt, v, n) -> Printf.printf "%s %.6g %s (n=%d)\n" mt.name v mt.unit n) o.metrics;
  if not o.traced then Printf.printf "op_ms_p99 %.6g ms (n=%d, not gated)\n" (fst o.p99_ms) (snd o.p99_ms);
  if o.traced then begin
    let t =
      Util.Table.create
        ~title:(Printf.sprintf "Self time by layer over the timed phase (wall x domains = %.1f ms)"
                  (float_of_int o.budget_ns /. 1e6))
        ~columns:[ "Layer"; "Self ms"; "Share %" ]
    in
    List.iter
      (fun (l, ns) ->
        Util.Table.add_row t
          [
            l;
            Printf.sprintf "%.2f" (float_of_int ns /. 1e6);
            Printf.sprintf "%.2f" (100.0 *. Util.Stats.ratio (float_of_int ns) (float_of_int o.budget_ns));
          ])
      o.layers;
    Util.Table.print t
  end;
  List.iter prerr_endline o.notes;
  List.iter prerr_endline o.failures;
  List.iter (fun e -> prerr_endline ("layer table: " ^ e)) o.table_errors
