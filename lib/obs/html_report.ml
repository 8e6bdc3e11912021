(* Self-contained HTML pages: inline CSS, no scripts, no external
   assets — each file must open from disk offline and attach to CI runs
   as a single artifact.  A page is a list of blocks: the Util.Table
   values its command prints, rendered by Util.Table.html, the charts
   and banners that have no table form, and the run report where the
   command collects a manifest. *)

let escape = Util.Table.escape_html

let style =
  {|body { font: 14px/1.45 system-ui, sans-serif; color: #1c2330; margin: 2em auto; max-width: 72em; padding: 0 1em; }
h1 { font-size: 1.5em; border-bottom: 2px solid #1c2330; padding-bottom: .3em; }
h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; margin: 1.4em 0 .6em; }
caption { text-align: left; font-weight: 600; padding-bottom: .3em; }
th, td { border: 1px solid #c8cdd6; padding: .25em .6em; text-align: right; }
th { background: #eef1f5; }
td.l, th.l { text-align: left; }
.headline { font-size: 1.05em; background: #eef6ee; border: 1px solid #b8d4b8; padding: .6em .9em; display: inline-block; }
.bar { display: flex; height: 1.15em; background: #f2f3f6; border: 1px solid #c8cdd6; }
.bar > span { display: block; height: 100%; }
.seg-mrf { background: #5470c6; } .seg-orf { background: #91cc75; }
.seg-rfc { background: #fac858; } .seg-lrf { background: #ee6666; }
.st-issued { background: #91cc75; } .st-wait_long_latency { background: #5470c6; }
.st-wait_short_latency { background: #73c0de; } .st-bank_conflict_serialization { background: #ee6666; }
.st-descheduled_pending { background: #fac858; } .st-no_issue_slot { background: #9a60b4; }
.st-finished { background: #d4d9e1; }
.bench-bar { margin: .25em 0; display: flex; align-items: center; gap: .6em; }
.bench-bar .label { width: 11em; text-align: right; font-variant-numeric: tabular-nums; }
.bench-bar .track { flex: 1; }
.legend span { display: inline-block; margin-right: 1.2em; }
.swatch { display: inline-block; width: .85em; height: .85em; vertical-align: -.1em; margin-right: .35em; border: 1px solid #99a; }
.eg-useful { background: #91cc75; } .eg-spawn { background: #fac858; }
.eg-teardown { background: #f0924e; } .eg-lock-wait { background: #ee6666; }
.eg-memo-wait { background: #9a60b4; } .eg-dispatch { background: #73c0de; }
.eg-idle { background: #d4d9e1; }
.eg-compute { background: #91cc75; } .eg-gc { background: #c4543f; }
.muted { color: #5b6472; }
h3 { font-size: 1.05em; margin-top: 1.5em; } h4 { font-size: .95em; }
.heatmap { border: 1px solid #c8cdd6; padding: .3em .5em; font-variant-numeric: tabular-nums; }
.hm-row { display: flex; gap: .8em; padding: 0 .3em; }
.hm-pc { width: 3em; text-align: right; color: #5b6472; }
.hm-strand { width: 2.5em; color: #5b6472; }
.hm-row code { flex: 1; }
.hm-pj { color: #5b6472; white-space: nowrap; }
.gate-fail { background: #fbeeee; border: 1px solid #d4a0a0; padding: .6em .9em; }
.gate-ok { background: #eef6ee; border: 1px solid #b8d4b8; padding: .6em .9em; }
.why-bar { display: flex; align-items: center; gap: .6em; margin: .2em 0; }
.why-bar .label { width: 17em; text-align: right; font-variant-numeric: tabular-nums; }
.why-bar .track { flex: 1; position: relative; height: 1em; background: #f2f3f6; border: 1px solid #c8cdd6; }
.why-bar .mid { position: absolute; left: 50%; top: 0; bottom: 0; width: 1px; background: #99a; }
.why-bar .seg { position: absolute; top: 0; bottom: 0; }
.why-worse { background: #ee6666; } .why-better { background: #91cc75; }
.why-bar .pct { width: 6em; font-variant-numeric: tabular-nums; }|}

let pf = Printf.bprintf

type block = Table of Util.Table.t | Html of string

(* Every page shares one document shell: the inline stylesheet and
   nothing else, so each file opens offline on its own. *)
let page ~title blocks =
  let body =
    String.concat ""
      (List.map (function Table t -> Util.Table.html t | Html h -> h) blocks)
  in
  Printf.sprintf
    "<!DOCTYPE html>\n<html lang=en>\n<head>\n<meta charset=utf-8>\n<title>%s</title>\n<style>\n%s\n</style>\n</head>\n<body>\n<h1>%s</h1>\n%s</body>\n</html>\n"
    (escape title) style (escape title) body

let write_page ~path html = Out_channel.with_open_text path (fun oc -> output_string oc html)

(* A block drawn into a buffer. *)
let html draw =
  let buf = Buffer.create 4096 in
  draw buf;
  Html (Buffer.contents buf)

let heading text = Html (Printf.sprintf "<h2>%s</h2>\n" (escape text))
let muted text = Html (Printf.sprintf "<p class=muted>%s</p>\n" (escape text))

let num = Printf.sprintf "%.4g"

(* ------------------------------------------------------------------ *)
(* Charts.                                                             *)

let legend buf items =
  pf buf "<p class=legend>";
  List.iter
    (fun (cls, label) ->
      pf buf "<span><span class=\"swatch %s\"></span>%s</span>" cls (escape label))
    items;
  pf buf "</p>\n"

(* One labelled stacked bar, [width]% of the track wide; each segment
   (css class, value, tooltip) takes its share of the segments' sum. *)
let bar buf ?(width = 100.0) label segs =
  let total = Float.max 1e-9 (List.fold_left (fun acc (_, v, _) -> acc +. v) 0.0 segs) in
  pf buf "<div class=bench-bar><span class=label>%s</span>" (escape label);
  pf buf "<span class=track><span class=bar style=\"width:%.2f%%\">" width;
  List.iter
    (fun (cls, v, tip) ->
      let pct = 100.0 *. v /. total in
      if pct > 0.01 then
        pf buf "<span class=\"%s\" style=\"width:%.2f%%\" title=\"%s\"></span>" cls pct
          (escape tip))
    segs;
  pf buf "</span></span></div>\n"

let seg_class level = "seg-" ^ String.lowercase_ascii level

(* Bar width is norm_energy relative to the worst benchmark; segments
   split it by each level's share of total pJ. *)
let energy_bars buf (m : Manifest.t) =
  pf buf "<h2>Energy breakdown per benchmark</h2>\n";
  match m.benches with
  | [] -> pf buf "<p class=muted>no benchmarks</p>\n"
  | b0 :: _ ->
    legend buf
      (List.map (fun (level, _) -> (seg_class level, String.uppercase_ascii level)) b0.energy_pj);
    let widest =
      List.fold_left (fun acc b -> Float.max acc b.Manifest.norm_energy) 0.0 m.benches
      |> Float.max 1e-9
    in
    List.iter
      (fun (b : Manifest.bench) ->
        bar buf
          ~width:(100.0 *. b.norm_energy /. widest)
          (b.bench ^ "  " ^ num b.norm_energy)
          (List.map
             (fun (level, (access, wire)) ->
               let pj = access +. wire in
               ( seg_class level,
                 pj,
                 Printf.sprintf "%s: %s pJ" (String.uppercase_ascii level) (num pj) ))
             b.energy_pj))
      m.benches

(* Stall attribution of the manifest's reference perf run: one stacked
   bar per benchmark splitting its cycles x warps budget by cause.
   Rendered purely from manifest fields, so a decoded manifest reports
   identically to a fresh run. *)
let stall_bars buf (benches : Manifest.bench list) =
  pf buf "<h2>Warp stall attribution</h2>\n";
  match benches with
  | [] -> pf buf "<p class=muted>no stall breakdown recorded</p>\n"
  | b0 :: _ ->
    legend buf (List.map (fun (cause, _) -> ("st-" ^ cause, cause)) b0.stalls);
    List.iter
      (fun (b : Manifest.bench) ->
        bar buf b.bench
          (List.map
             (fun (cause, n) ->
               ("st-" ^ cause, float_of_int n, Printf.sprintf "%s: %d warp-cycles" cause n))
             b.stalls))
      benches

let heatmap (r : Explain.kernel_report) =
  html @@ fun buf ->
  pf buf "<h4>Energy heatmap</h4>\n";
  pf buf
    "<p class=muted>background intensity &prop; attributed register-file energy per instruction</p>\n";
  let peak =
    List.fold_left (fun acc (l : Explain.instr_line) -> Float.max acc l.pj) 0.0 r.kr_instrs
    |> Float.max 1e-9
  in
  pf buf "<div class=heatmap>\n";
  List.iter
    (fun (l : Explain.instr_line) ->
      pf buf
        "<div class=hm-row style=\"background: rgba(238,102,102,%.3f)\"><span class=hm-pc>%d</span><span class=hm-strand>s%d</span><code>%s</code><span class=hm-pj>%s pJ (%.1f%%)</span></div>\n"
        (l.pj /. peak) l.pc l.strand (escape l.text) (num l.pj) (100.0 *. l.share))
    r.kr_instrs;
  pf buf "</div>\n"

let eg_class name = "eg-" ^ String.map (fun c -> if c = ' ' then '-' else c) name

let engine_ms ns = float_of_int ns /. 1e6

(* The wall × domains budget of every parallel region decomposed into
   the seven exact categories, one stacked bar per --jobs setting and
   per region, then the compute/gc sub-split of useful time (gc is a
   slice of useful, not an eighth category). *)
let engine_bars (reports : Engine.report list) =
  html @@ fun buf ->
  pf buf "<h2>Overhead breakdown</h2>\n";
  legend buf (List.map (fun name -> (eg_class name, name)) Engine.category_names);
  let cat_bar label cats =
    bar buf label
      (List.map
         (fun (name, v) ->
           (eg_class name, float_of_int v, Printf.sprintf "%s: %.2f ms" name (engine_ms v)))
         (Engine.cat_list cats))
  in
  List.iter
    (fun (r : Engine.report) -> cat_bar (Printf.sprintf "jobs=%d" r.jobs) (Engine.agg_categories r))
    reports;
  List.iter
    (fun (r : Engine.report) ->
      if r.regions <> [] then begin
        pf buf "<h3>Regions at jobs=%d</h3>\n" r.jobs;
        List.iter
          (fun (reg : Engine.region) ->
            cat_bar
              (Printf.sprintf "%s#%d (%d dom, %d tasks, %.2f ms)" reg.label reg.id reg.domains
                 reg.tasks (engine_ms reg.wall_ns))
              reg.cats)
          r.regions
      end)
    reports;
  match List.filter (fun (r : Engine.report) -> r.gc <> None) reports with
  | [] -> ()
  | with_gc ->
    pf buf "<h2>GC share of useful time</h2>\n";
    legend buf [ ("eg-compute", "compute"); ("eg-gc", "gc") ];
    List.iter
      (fun (r : Engine.report) ->
        let agg = Engine.agg_categories r in
        let compute = agg.useful_ns - agg.gc_ns in
        bar buf
          (Printf.sprintf "jobs=%d" r.jobs)
          [
            ( "eg-compute",
              float_of_int compute,
              Printf.sprintf "compute: %.2f ms" (engine_ms compute) );
            ("eg-gc", float_of_int agg.gc_ns, Printf.sprintf "gc: %.2f ms" (engine_ms agg.gc_ns));
          ])
      with_gc

(* For IPC a drop is the bad direction; for everything else (energies,
   counts) a rise is. *)
let metric_worse metric rel = if metric = "ipc" then rel < 0.0 else rel > 0.0

let why_delta_bars (r : Rootcause.t) =
  html @@ fun buf ->
  pf buf "<h2>Per-benchmark metric deltas</h2>\n";
  if r.r_metrics = [] then pf buf "<p class=muted>no benchmarks common to both sides</p>\n"
  else begin
    legend buf [ ("why-worse", "worse"); ("why-better", "better") ];
    pf buf "<p class=muted>bar length is the signed relative delta; the rule marks zero</p>\n";
    let widest =
      List.fold_left (fun acc (m : Rootcause.metric_delta) -> Float.max acc (Float.abs m.md_rel))
        0.0 r.r_metrics
      |> Float.max 1e-9
    in
    List.iter
      (fun (m : Rootcause.metric_delta) ->
        let rel = m.md_rel in
        let w = 48.0 *. Float.abs rel /. widest in
        let cls = if metric_worse m.md_metric rel then "why-worse" else "why-better" in
        pf buf "<div class=why-bar><span class=label>%s · %s</span><span class=track><span class=mid></span>"
          (escape m.md_bench) (escape m.md_metric);
        if Float.abs rel > 1e-12 then
          pf buf "<span class=\"seg %s\" style=\"left:%.2f%%;width:%.2f%%\"></span>" cls
            (if rel >= 0.0 then 50.0 else 50.0 -. w)
            w;
        pf buf "</span><span class=pct>%+.4g%%</span></div>\n" (rel *. 100.0))
      r.r_metrics
  end

(* ------------------------------------------------------------------ *)
(* Run-report tables: views only the HTML report shows.                *)

let options_table (o : Manifest.options) =
  let t =
    Util.Table.create ~title:"Run options"
      ~columns:[ "warps"; "seed"; "jobs"; "ORF entries"; "LRF"; "params fp"; "benchmarks" ]
  in
  Util.Table.add_row t
    [
      string_of_int o.warps;
      Printf.sprintf "0x%x" o.seed;
      string_of_int o.jobs;
      string_of_int o.orf_entries;
      o.lrf;
      o.params_fp;
      String.concat ", " o.benchmarks;
    ];
  t

let bench_table ?compare (m : Manifest.t) =
  let t =
    Util.Table.create ~title:"Benchmark results"
      ~columns:
        ([ "benchmark"; "strands"; "dyn. instrs"; "IPC"; "desched"; "capped"; "total pJ";
           "baseline pJ"; "norm. energy" ]
        @ if compare = None then [] else [ "Δ norm." ])
  in
  List.iter
    (fun (b : Manifest.bench) ->
      let delta =
        match compare with
        | None -> []
        | Some (base : Manifest.t) -> (
          match List.find_opt (fun (c : Manifest.bench) -> c.bench = b.bench) base.benches with
          | None -> [ "new" ]
          | Some c -> [ Printf.sprintf "%+0.4g" (b.norm_energy -. c.norm_energy) ])
      in
      Util.Table.add_row t
        ([
           b.bench;
           string_of_int b.strands;
           string_of_int b.dynamic_instrs;
           Printf.sprintf "%.3f" b.ipc;
           string_of_int b.desched_events;
           string_of_int b.capped_warps;
           num b.total_pj;
           num b.baseline_pj;
           num b.norm_energy;
         ]
        @ delta))
    m.benches;
  t

let phase_table (m : Manifest.t) =
  let t = Util.Table.create ~title:"Phase times" ~columns:[ "phase"; "calls"; "total ms" ] in
  List.iter
    (fun (p : Manifest.phase) ->
      Util.Table.add_row t [ p.phase; string_of_int p.calls; Printf.sprintf "%.3f" p.total_ms ])
    m.phases;
  t

let audit_table (a : Manifest.audit) =
  let t =
    Util.Table.create
      ~title:(Printf.sprintf "Allocator audit (%d allocation events recorded)" a.alloc_events)
      ~columns:[ "reg"; "level"; "reads"; "savings pJ" ]
  in
  List.iter
    (fun (e : Audit.alloc) ->
      Util.Table.add_row t
        [ e.reg; Audit.level_name e.level; string_of_int e.reads; num e.savings ])
    a.top_allocs;
  t

(* ------------------------------------------------------------------ *)
(* Run report and page headers.                                        *)

let render ?compare (m : Manifest.t) =
  let with_stalls = List.filter (fun (b : Manifest.bench) -> b.stalls <> []) m.benches in
  [
    html (fun buf ->
        pf buf "<h2>rfh run report</h2>\n";
        pf buf "<p class=muted>schema v%d · %d benchmarks%s</p>\n" Manifest.schema_version
          (List.length m.benches)
          (if compare = None then "" else " · compared against baseline");
        let mean = Manifest.mean_norm_energy m in
        pf buf "<p class=headline>mean normalized RF energy: <strong>%s</strong>%s</p>\n"
          (num mean)
          (match compare with
          | None -> ""
          | Some base ->
            let bmean = Manifest.mean_norm_energy base in
            Printf.sprintf " (baseline %s, %+0.4g)" (num bmean) (mean -. bmean)));
    Table (options_table m.options);
    html (fun buf -> energy_bars buf m);
    Table (bench_table ?compare m);
    html (fun buf -> stall_bars buf with_stalls);
  ]
  @ (if with_stalls <> [] then
       [
         Table
           (Manifest.residency_table ~label:"benchmark"
              (List.map (fun (b : Manifest.bench) -> (b.bench, b.sched)) with_stalls));
       ]
     else [])
  @ [ Table (phase_table m); Table (Metrics.to_table m.metrics); Table (audit_table m.audit) ]

let explain_header (r : Explain.kernel_report) =
  html @@ fun buf ->
  pf buf "<h3>%s</h3>\n" (escape r.kr_kernel);
  pf buf "<p class=muted>%d decisions &middot; %d placed &middot; %s pJ attributed</p>\n"
    (List.length r.kr_decisions)
    (List.length (List.filter Explain.placed r.kr_decisions))
    (num r.kr_total_pj)

let trend_header ~records (g : Trend.gate_result) =
  html @@ fun buf ->
  (match (records, List.rev records) with
  | (first : History.t) :: _, (last : History.t) :: _ ->
    pf buf "<p class=muted>%s … %s</p>\n" (escape first.timestamp) (escape last.timestamp)
  | _ -> ());
  match g.g_exit with
  | 2 ->
    pf buf "<p class=gate-fail>Not enough history to judge drift (need at least 3 records).</p>\n"
  | 1 ->
    pf buf "<p class=gate-fail>Sustained drift detected in %d gated series:</p>\n<ul>\n"
      (List.length g.g_failures);
    List.iter
      (fun (f : Trend.failure) ->
        pf buf "<li>%s: %s → %s at record %d (rev %s)</li>\n" (escape f.f_series)
          (num f.f_before) (num f.f_after) f.f_index
          (escape (Host.short_rev f.f_rev)))
      g.g_failures;
    pf buf "</ul>\n"
  | _ -> pf buf "<p class=gate-ok>No sustained drift in any gated series.</p>\n"

let trend_note =
  Html
    "<p class=muted>z is a robust score (0.6745·(latest−median)/MAD); shift compares the last segment's median against the previous segment's. Gated series fail rfh trend --check on a sustained shift beyond their tolerance in the bad direction.</p>\n"

let why_header ~baseline_label ~candidate_label (r : Rootcause.t) =
  html @@ fun buf ->
  pf buf "<p class=muted>baseline: %s · candidate: %s</p>\n" (escape baseline_label)
    (escape candidate_label);
  (match Rootcause.check r with
  | [] ->
    pf buf "<p class=gate-ok>Attribution self-check passed: every cause sums back to its source counters.</p>\n"
  | issues ->
    pf buf "<p class=gate-fail>Attribution self-check FAILED:</p>\n<ul>\n";
    List.iter (fun i -> pf buf "<li>%s</li>\n" (escape i)) issues;
    pf buf "</ul>\n");
  (match Rootcause.top_cause r with
  | Some c ->
    pf buf "<p class=headline>top cause — %s: %s, %s</p>\n" (escape c.c_bench) (escape c.c_what)
      (escape c.c_delta)
  | None -> ());
  if r.r_only_a <> [] || r.r_only_b <> [] then
    pf buf "<p class=gate-fail>benchmarks only in baseline: [%s] · only in candidate: [%s]</p>\n"
      (escape (String.concat ", " r.r_only_a))
      (escape (String.concat ", " r.r_only_b))

let why_details (r : Rootcause.t) =
  why_delta_bars r
  :: List.map
       (fun t -> Table t)
       (Rootcause.stall_tables r @ Option.fold ~none:[] ~some:Explain_diff.tables r.r_explain)
