(* Self-contained HTML rendering of a run manifest: inline CSS, no
   scripts, no external assets — the file must open from disk offline
   and attach to CI runs as a single artifact. *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&#39;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let style =
  {|body { font: 14px/1.45 system-ui, sans-serif; color: #1c2330; margin: 2em auto; max-width: 72em; padding: 0 1em; }
h1 { font-size: 1.5em; border-bottom: 2px solid #1c2330; padding-bottom: .3em; }
h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; margin: .6em 0; }
th, td { border: 1px solid #c8cdd6; padding: .25em .6em; text-align: right; }
th { background: #eef1f5; }
td.l, th.l { text-align: left; }
.headline { font-size: 1.05em; background: #eef6ee; border: 1px solid #b8d4b8; padding: .6em .9em; display: inline-block; }
.delta-up { color: #a02020; } .delta-down { color: #207020; }
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
code { background: #f2f3f6; padding: 0 .25em; }
h3 { font-size: 1.05em; margin-top: 1.5em; } h4 { font-size: .95em; }
.heatmap { border: 1px solid #c8cdd6; padding: .3em .5em; font-variant-numeric: tabular-nums; }
.hm-row { display: flex; gap: .8em; padding: 0 .3em; }
.hm-pc { width: 3em; text-align: right; color: #5b6472; }
.hm-strand { width: 2.5em; color: #5b6472; }
.hm-row code { background: transparent; flex: 1; }
.hm-pj { color: #5b6472; white-space: nowrap; }
.v-stable { color: #207020; } .v-improved { color: #20609a; font-weight: 600; }
.v-regressed { color: #a02020; font-weight: 600; } .v-noisy { color: #9a7020; }
td.spark { padding: .1em .3em; } td.spark svg { display: block; }
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

(* Every page shares one document shell: the inline stylesheet and
   nothing else, so each file opens offline on its own. *)
let page ~title body =
  Printf.sprintf
    "<!DOCTYPE html>\n<html lang=en>\n<head>\n<meta charset=utf-8>\n<title>%s</title>\n<style>\n%s\n</style>\n</head>\n<body>\n%s</body>\n</html>\n"
    title style body

let write_page ~path html = Out_channel.with_open_text path (fun oc -> output_string oc html)

let short_rev rev = if String.length rev > 10 then String.sub rev 0 10 else rev

let num = Printf.sprintf "%.4g"
let seg_class level = "seg-" ^ String.lowercase_ascii level

let levels_of (b : Manifest.bench) = List.map fst b.energy_pj

(* ------------------------------------------------------------------ *)
(* Sections.                                                           *)

let options_section buf (o : Manifest.options) =
  pf buf "<h2>Run options</h2><table>\n";
  pf buf "<tr><th class=l>warps</th><th class=l>seed</th><th class=l>jobs</th>";
  pf buf "<th class=l>ORF entries</th><th class=l>LRF</th><th class=l>params fp</th></tr>\n";
  pf buf "<tr><td>%d</td><td>0x%x</td><td>%d</td><td>%d</td><td class=l>%s</td><td class=l><code>%s</code></td></tr>\n"
    o.warps o.seed o.jobs o.orf_entries (escape o.lrf) (escape o.params_fp);
  pf buf "</table>\n<p class=muted>benchmarks: %s</p>\n"
    (escape (String.concat ", " o.benchmarks))

let headline buf (m : Manifest.t) (compare : Manifest.t option) =
  let mean = Manifest.mean_norm_energy m in
  pf buf "<p class=headline>mean normalized RF energy: <strong>%s</strong>" (num mean);
  (match compare with
  | None -> ()
  | Some base ->
    let bmean = Manifest.mean_norm_energy base in
    let delta = mean -. bmean in
    let cls = if delta > 0.0 then "delta-up" else "delta-down" in
    pf buf " &nbsp;(baseline %s, <span class=%s>%+0.4g</span>)" (num bmean) cls delta);
  pf buf "</p>\n"

let energy_bars buf (m : Manifest.t) =
  pf buf "<h2>Energy breakdown per benchmark</h2>\n";
  (match m.benches with
  | [] -> pf buf "<p class=muted>no benchmarks</p>\n"
  | b0 :: _ ->
    pf buf "<p class=legend>";
    List.iter
      (fun level ->
        pf buf "<span><span class=\"swatch %s\"></span>%s</span>" (seg_class level)
          (escape (String.uppercase_ascii level)))
      (levels_of b0);
    pf buf "</p>\n";
    let widest =
      List.fold_left (fun acc b -> Float.max acc b.Manifest.norm_energy) 0.0 m.benches
      |> Float.max 1e-9
    in
    List.iter
      (fun (b : Manifest.bench) ->
        (* Bar width is norm_energy relative to the worst benchmark;
           segments split it by each level's share of total pJ. *)
        let bar_pct = 100.0 *. b.norm_energy /. widest in
        let total = Float.max b.total_pj 1e-9 in
        pf buf "<div class=bench-bar><span class=label>%s &nbsp;%s</span>"
          (escape b.bench) (num b.norm_energy);
        pf buf "<span class=track><span class=bar style=\"width:%.2f%%\">" bar_pct;
        List.iter
          (fun (level, (access, wire)) ->
            let pct = 100.0 *. (access +. wire) /. total in
            if pct > 0.01 then
              pf buf "<span class=\"%s\" style=\"width:%.2f%%\" title=\"%s: %s pJ\"></span>"
                (seg_class level) pct
                (escape (String.uppercase_ascii level))
                (num (access +. wire)))
          b.energy_pj;
        pf buf "</span></span></div>\n")
      m.benches)

let bench_table buf (m : Manifest.t) (compare : Manifest.t option) =
  pf buf "<h2>Benchmark results</h2><table>\n";
  pf buf "<tr><th class=l>benchmark</th><th>strands</th><th>dyn. instrs</th><th>IPC</th>";
  pf buf "<th>desched</th><th>capped</th><th>total pJ</th><th>baseline pJ</th><th>norm. energy</th>";
  if compare <> None then pf buf "<th>&Delta; norm.</th>";
  pf buf "</tr>\n";
  List.iter
    (fun (b : Manifest.bench) ->
      pf buf
        "<tr><td class=l>%s</td><td>%d</td><td>%d</td><td>%.3f</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td>"
        (escape b.bench) b.strands b.dynamic_instrs b.ipc b.desched_events b.capped_warps
        (num b.total_pj) (num b.baseline_pj) (num b.norm_energy);
      (match compare with
      | None -> ()
      | Some base -> (
        match List.find_opt (fun c -> c.Manifest.bench = b.bench) base.benches with
        | None -> pf buf "<td class=muted>new</td>"
        | Some c ->
          let d = b.norm_energy -. c.norm_energy in
          let cls = if d > 0.0 then "delta-up" else "delta-down" in
          pf buf "<td class=%s>%+0.4g</td>" cls d));
      pf buf "</tr>\n")
    m.benches;
  pf buf "</table>\n"

(* Stall attribution of the manifest's reference perf run: one stacked
   bar per benchmark splitting its cycles x warps budget by cause, plus
   the active-set residency table.  Rendered purely from manifest
   fields, so a decoded manifest reports identically to a fresh run. *)
let stall_section buf (m : Manifest.t) =
  pf buf "<h2>Warp stall attribution</h2>\n";
  let with_stalls = List.filter (fun (b : Manifest.bench) -> b.Manifest.stalls <> []) m.benches in
  if with_stalls = [] then pf buf "<p class=muted>no stall breakdown recorded</p>\n"
  else begin
    (match with_stalls with
    | [] -> ()
    | b0 :: _ ->
      pf buf "<p class=legend>";
      List.iter
        (fun (cause, _) ->
          pf buf "<span><span class=\"swatch st-%s\"></span>%s</span>" (escape cause)
            (escape cause))
        b0.Manifest.stalls;
      pf buf "</p>\n");
    List.iter
      (fun (b : Manifest.bench) ->
        let total =
          Float.max 1e-9 (float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 b.stalls))
        in
        pf buf "<div class=bench-bar><span class=label>%s</span>" (escape b.bench);
        pf buf "<span class=track><span class=bar>";
        List.iter
          (fun (cause, n) ->
            let pct = 100.0 *. float_of_int n /. total in
            if pct > 0.01 then
              pf buf "<span class=\"st-%s\" style=\"width:%.2f%%\" title=\"%s: %d warp-cycles\"></span>"
                (escape cause) pct (escape cause) n)
          b.stalls;
        pf buf "</span></span></div>\n")
      with_stalls;
    pf buf "<h3>Active-set residency</h3><table>\n";
    pf buf
      "<tr><th class=l>benchmark</th><th>entries</th><th>exits</th><th>resident cycles</th><th>mean residency</th><th>desched LL</th><th>desched strand</th><th>desched conflict</th></tr>\n";
    List.iter
      (fun (b : Manifest.bench) ->
        let s = b.Manifest.sched in
        let mean =
          if s.Manifest.entries = 0 then 0.0
          else float_of_int s.Manifest.resident_cycles /. float_of_int s.Manifest.entries
        in
        pf buf
          "<tr><td class=l>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%.1f</td><td>%d</td><td>%d</td><td>%d</td></tr>\n"
          (escape b.bench) s.Manifest.entries s.Manifest.exits s.Manifest.resident_cycles mean
          s.Manifest.desched_long_latency s.Manifest.desched_strand_boundary
          s.Manifest.desched_bank_conflict)
      with_stalls;
    pf buf "</table>\n"
  end

let phase_table buf (m : Manifest.t) =
  pf buf "<h2>Phase times</h2><table>\n";
  pf buf "<tr><th class=l>phase</th><th>calls</th><th>total ms</th></tr>\n";
  List.iter
    (fun (p : Manifest.phase) ->
      pf buf "<tr><td class=l>%s</td><td>%d</td><td>%.3f</td></tr>\n" (escape p.phase)
        p.calls p.total_ms)
    m.phases;
  pf buf "</table>\n"

let metrics_section buf (m : Manifest.t) =
  let s = m.metrics in
  pf buf "<h2>Metrics</h2>\n";
  if s.Metrics.counters <> [] then begin
    pf buf "<table>\n<tr><th class=l>counter</th><th>value</th></tr>\n";
    List.iter
      (fun (name, v) -> pf buf "<tr><td class=l>%s</td><td>%d</td></tr>\n" (escape name) v)
      s.Metrics.counters;
    pf buf "</table>\n"
  end;
  if s.Metrics.gauges <> [] then begin
    pf buf "<table>\n<tr><th class=l>gauge</th><th>value</th></tr>\n";
    List.iter
      (fun (name, v) ->
        pf buf "<tr><td class=l>%s</td><td>%s</td></tr>\n" (escape name) (num v))
      s.Metrics.gauges;
    pf buf "</table>\n"
  end;
  if s.Metrics.histograms <> [] then begin
    pf buf
      "<table>\n<tr><th class=l>histogram</th><th>count</th><th>mean</th><th>p50</th><th>p95</th><th>p99</th><th>max</th></tr>\n";
    List.iter
      (fun (name, (h : Metrics.hist_summary)) ->
        pf buf
          "<tr><td class=l>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
          (escape name) h.count (num h.mean) (num h.p50) (num h.p95) (num h.p99)
          (num h.max))
      s.Metrics.histograms;
    pf buf "</table>\n"
  end;
  if s.Metrics.counters = [] && s.Metrics.gauges = [] && s.Metrics.histograms = [] then
    pf buf "<p class=muted>no metrics recorded</p>\n"

let audit_section buf (m : Manifest.t) =
  pf buf "<h2>Allocator audit</h2>\n";
  pf buf "<p class=muted>%d allocation events recorded</p>\n" m.audit.alloc_events;
  if m.audit.top_allocs <> [] then begin
    pf buf
      "<table>\n<tr><th class=l>value</th><th class=l>level</th><th>accesses</th><th>saved pJ</th></tr>\n";
    List.iter
      (fun ev ->
        let str name = Option.value ~default:"-" (Option.bind (Json.member name ev) Json.to_str) in
        let intv name = Option.value ~default:0 (Option.bind (Json.member name ev) Json.to_int) in
        let numv name = Option.value ~default:0.0 (Option.bind (Json.member name ev) Json.to_num) in
        pf buf "<tr><td class=l>%s</td><td class=l>%s</td><td>%d</td><td>%s</td></tr>\n"
          (escape (str "value")) (escape (str "level")) (intv "accesses")
          (num (numv "saved_pj")))
      m.audit.top_allocs;
    pf buf "</table>\n"
  end

(* ------------------------------------------------------------------ *)
(* Explain section: per-kernel allocation decisions plus an energy
   heatmap over the instruction stream.  Heatmap intensity is inline
   rgba backgrounds — still no scripts or external assets. *)

let verdict_cell (c : Explain.candidate) =
  let label =
    match c.verdict with
    | Explain.Chosen -> "<strong>chosen</strong>"
    | Explain.Ineligible why -> Printf.sprintf "ineligible <span class=muted>(%s)</span>" (escape why)
    | Explain.Negative_savings -> "negative savings"
    | Explain.No_free_slot -> "no free slot"
  in
  Printf.sprintf "%s %s" (num c.savings) label

let explain_outcome (d : Explain.decision) =
  match d.outcome with
  | Explain.To_lrf { bank } -> Printf.sprintf "LRF[%d]" bank
  | Explain.To_orf { entry; shortened } ->
    if shortened > 0 then Printf.sprintf "ORF[%d] (shortened &times;%d)" entry shortened
    else Printf.sprintf "ORF[%d]" entry
  | Explain.To_mrf -> "MRF"

let explain_section buf (reports : Explain.kernel_report list) =
  pf buf "<h2>Allocation explainer</h2>\n";
  List.iter
    (fun (r : Explain.kernel_report) ->
      let placed = List.filter Explain.placed r.Explain.kr_decisions in
      pf buf "<h3>%s</h3>\n" (escape r.Explain.kr_kernel);
      pf buf
        "<p class=muted>%d decisions &middot; %d placed &middot; %s pJ attributed</p>\n"
        (List.length r.Explain.kr_decisions)
        (List.length placed) (num r.Explain.kr_total_pj);
      if r.Explain.kr_decisions <> [] then begin
        pf buf
          "<table>\n<tr><th>#</th><th class=l>value</th><th class=l>kind</th><th>strand</th><th>range</th><th>reads</th><th class=l>LRF</th><th class=l>ORF</th><th class=l>outcome</th></tr>\n";
        List.iter
          (fun (d : Explain.decision) ->
            let cand level =
              match
                List.find_opt (fun (c : Explain.candidate) -> c.Explain.level = level) d.Explain.candidates
              with
              | None -> "<span class=muted>&mdash;</span>"
              | Some c -> verdict_cell c
            in
            pf buf
              "<tr><td>%d</td><td class=l><code>%s</code></td><td class=l>%s</td><td>%d</td><td>[%d, %d)</td><td>%d%s</td><td class=l>%s</td><td class=l>%s</td><td class=l>%s%s</td></tr>\n"
              d.Explain.seq (escape d.Explain.reg) (escape d.Explain.kind) d.Explain.strand
              d.Explain.first d.Explain.last
              (List.length d.Explain.covered)
              (if d.Explain.dropped_reads > 0 then
                 Printf.sprintf " <span class=muted>(&minus;%d)</span>" d.Explain.dropped_reads
               else "")
              (cand "lrf") (cand "orf") (explain_outcome d)
              (if d.Explain.mrf_copy then " <span class=muted>+MRF copy</span>" else ""))
          r.Explain.kr_decisions;
        pf buf "</table>\n"
      end;
      if r.Explain.kr_instrs <> [] then begin
        pf buf "<h4>Energy heatmap</h4>\n";
        pf buf
          "<p class=muted>background intensity &prop; attributed register-file energy per instruction</p>\n";
        let peak =
          List.fold_left (fun acc (l : Explain.instr_line) -> Float.max acc l.Explain.pj) 0.0
            r.Explain.kr_instrs
          |> Float.max 1e-9
        in
        pf buf "<div class=heatmap>\n";
        List.iter
          (fun (l : Explain.instr_line) ->
            let alpha = l.Explain.pj /. peak in
            pf buf
              "<div class=hm-row style=\"background: rgba(238,102,102,%.3f)\"><span class=hm-pc>%d</span><span class=hm-strand>s%d</span><code>%s</code><span class=hm-pj>%s pJ (%.1f%%)</span></div>\n"
              alpha l.Explain.pc l.Explain.strand (escape l.Explain.text) (num l.Explain.pj)
              (100.0 *. l.Explain.share))
          r.Explain.kr_instrs;
        pf buf "</div>\n"
      end)
    reports

(* ------------------------------------------------------------------ *)
(* Engine profiling section: the wall × domains budget of every
   parallel region decomposed into the seven exact categories, one
   stacked bar per --jobs setting.                                     *)

let eg_class name =
  "eg-" ^ String.map (fun c -> if c = ' ' then '-' else c) name

let engine_ms ns = float_of_int ns /. 1e6

let engine_legend buf =
  pf buf "<p class=legend>";
  List.iter
    (fun name ->
      pf buf "<span><span class=\"swatch %s\"></span>%s</span>" (eg_class name) (escape name))
    Engine.category_names;
  pf buf "</p>\n"

let engine_bar buf label cats =
  let budget = Float.max 1e-9 (float_of_int (Engine.cat_total cats)) in
  pf buf "<div class=bench-bar><span class=label>%s</span>" (escape label);
  pf buf "<span class=track><span class=bar>";
  List.iter
    (fun (name, v) ->
      let pct = 100.0 *. float_of_int v /. budget in
      if pct > 0.01 then
        pf buf "<span class=\"%s\" style=\"width:%.2f%%\" title=\"%s: %.2f ms\"></span>"
          (eg_class name) pct (escape name) (engine_ms v))
    (Engine.cat_list cats);
  pf buf "</span></span></div>\n"

let engine_section buf (reports : Engine.report list) =
  pf buf "<h2>Engine profile</h2>\n";
  (match reports with
  | [] -> pf buf "<p class=muted>no engine profile recorded</p>\n"
  | base :: _ ->
    pf buf
      "<p class=muted>wall-clock decomposition of every parallel region's budget (wall &times; \
       domains) into categories that sum exactly; speedups are against the jobs=%d run</p>\n"
      base.Engine.jobs;
    pf buf "<table>\n";
    pf buf
      "<tr><th>jobs</th><th>wall ms</th><th>speedup</th><th>efficiency</th><th>region \
       ms</th><th>serial ms</th><th>regions</th><th>tasks</th></tr>\n";
    List.iter
      (fun (r : Engine.report) ->
        let wall_ms = engine_ms r.Engine.wall_ns in
        let speedup =
          if r.Engine.wall_ns > 0 then
            float_of_int base.Engine.wall_ns /. float_of_int r.Engine.wall_ns
          else 1.0
        in
        let region_ms = Engine.region_seconds r *. 1e3 in
        pf buf
          "<tr><td>%d</td><td>%.1f</td><td>%.2fx</td><td>%.0f%%</td><td>%.1f</td><td>%.1f</td><td>%d</td><td>%d</td></tr>\n"
          r.Engine.jobs wall_ms speedup
          (100.0 *. speedup /. float_of_int (max 1 r.Engine.jobs))
          region_ms (wall_ms -. region_ms)
          (List.length r.Engine.regions)
          (List.fold_left (fun acc (reg : Engine.region) -> acc + reg.Engine.tasks) 0
             r.Engine.regions))
      reports;
    pf buf "</table>\n";
    pf buf "<h3>Overhead breakdown</h3>\n";
    engine_legend buf;
    List.iter
      (fun (r : Engine.report) ->
        engine_bar buf
          (Printf.sprintf "jobs=%d" r.Engine.jobs)
          (Engine.agg_categories r))
      reports;
    List.iter
      (fun (r : Engine.report) ->
        if r.Engine.regions <> [] then begin
          pf buf "<h4>Regions at jobs=%d</h4>\n" r.Engine.jobs;
          List.iter
            (fun (reg : Engine.region) ->
              engine_bar buf
                (Printf.sprintf "%s#%d (%d dom, %d tasks, %.2f ms)" reg.Engine.label
                   reg.Engine.id reg.Engine.domains reg.Engine.tasks
                   (engine_ms reg.Engine.wall_ns))
                reg.Engine.cats)
            r.Engine.regions
        end)
      reports;
    (* Memo and lock behaviour of the widest run: that is where
       contention lives. *)
    (match List.rev reports with
    | [] -> ()
    | widest :: _ ->
      if widest.Engine.memos <> [] then begin
        pf buf "<h3>Memo tables at jobs=%d</h3><table>\n" widest.Engine.jobs;
        pf buf
          "<tr><th class=l>table</th><th>lookups</th><th>hits</th><th>misses</th><th>waits</th><th>hit rate</th><th>wait ms</th></tr>\n";
        List.iter
          (fun (m : Util.Eprof.memo_stats) ->
            let rate = if m.lookups = 0 then 0.0 else 100.0 *. float_of_int m.hits /. float_of_int m.lookups in
            pf buf
              "<tr><td class=l>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.1f%%</td><td>%.3f</td></tr>\n"
              (escape m.table) m.lookups m.hits m.misses m.waits rate (engine_ms m.wait_ns))
          widest.Engine.memos;
        pf buf "</table>\n"
      end;
      if widest.Engine.locks <> [] then begin
        pf buf "<h3>Profiled locks at jobs=%d</h3><table>\n" widest.Engine.jobs;
        pf buf
          "<tr><th class=l>lock</th><th>acquisitions</th><th>contended</th><th>wait ms</th></tr>\n";
        List.iter
          (fun (l : Util.Eprof.lock_stats) ->
            pf buf "<tr><td class=l>%s</td><td>%d</td><td>%d</td><td>%.3f</td></tr>\n"
              (escape l.lock) l.acquisitions l.contended (engine_ms l.wait_ns))
          widest.Engine.locks;
        pf buf "</table>\n"
      end))

(* GC section: the compute/gc sub-split of useful time from the
   Gcprof capture riding on each engine report.  Rendered separately
   from the seven-way budget bars: gc is a slice of useful, not an
   eighth category. *)
let gc_section buf (reports : Engine.report list) =
  let with_gc = List.filter (fun (r : Engine.report) -> r.Engine.gc <> None) reports in
  if with_gc <> [] then begin
    pf buf "<h2>GC profile</h2>\n";
    pf buf
      "<p class=muted>collector time inside task intervals (Runtime_events pauses), split out \
       of each region's useful budget: useful = compute + gc exactly</p>\n";
    pf buf "<table>\n";
    pf buf
      "<tr><th>jobs</th><th>useful ms</th><th>gc ms</th><th>gc share</th><th>minor</th><th>major</th><th>barrier</th><th>p50 &micro;s</th><th>p99 &micro;s</th><th>minor Mw</th><th>promoted Mw</th><th>alloc Mw/s</th><th>lost</th></tr>\n";
    List.iter
      (fun (r : Engine.report) ->
        match r.Engine.gc with
        | None -> ()
        | Some g ->
          let agg = Engine.agg_categories r in
          let mt = Engine.gc_mem_totals g in
          let share =
            if agg.Engine.useful_ns = 0 then 0.0
            else 100.0 *. float_of_int agg.Engine.gc_ns /. float_of_int agg.Engine.useful_ns
          in
          let useful_s = float_of_int agg.Engine.useful_ns /. 1e9 in
          let rate =
            if useful_s > 0.0 then mt.Engine.mt_minor_words /. 1e6 /. useful_s else 0.0
          in
          let count k =
            List.length
              (List.filter (fun (p : Gcprof.pause) -> p.Gcprof.gp_kind = k) g.Gcprof.c_pauses)
          in
          let p sel =
            match Engine.gc_pause_summary r with
            | Some h -> Printf.sprintf "%.1f" (sel h)
            | None -> "-"
          in
          pf buf
            "<tr><td>%d</td><td>%.1f</td><td>%.2f</td><td>%.1f%%</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%.2f</td><td>%.2f</td><td>%.1f</td><td>%d</td></tr>\n"
            r.Engine.jobs
            (engine_ms agg.Engine.useful_ns)
            (engine_ms agg.Engine.gc_ns)
            share (count Gcprof.Minor) (count Gcprof.Major) (count Gcprof.Barrier)
            (p (fun h -> h.Metrics.p50))
            (p (fun h -> h.Metrics.p99))
            (mt.Engine.mt_minor_words /. 1e6)
            (mt.Engine.mt_promoted_words /. 1e6)
            rate g.Gcprof.c_lost_events)
      with_gc;
    pf buf "</table>\n";
    pf buf "<p class=legend>";
    List.iter
      (fun name ->
        pf buf "<span><span class=\"swatch eg-%s\"></span>%s</span>" name name)
      [ "compute"; "gc" ];
    pf buf "</p>\n";
    List.iter
      (fun (r : Engine.report) ->
        let agg = Engine.agg_categories r in
        let useful = Float.max 1e-9 (float_of_int agg.Engine.useful_ns) in
        let gc_pct = 100.0 *. float_of_int agg.Engine.gc_ns /. useful in
        pf buf "<div class=bench-bar><span class=label>jobs=%d</span>" r.Engine.jobs;
        pf buf "<span class=track><span class=bar>";
        pf buf "<span class=\"eg-compute\" style=\"width:%.2f%%\" title=\"compute: %.2f ms\"></span>"
          (100.0 -. gc_pct)
          (engine_ms (agg.Engine.useful_ns - agg.Engine.gc_ns));
        if gc_pct > 0.01 then
          pf buf "<span class=\"eg-gc\" style=\"width:%.2f%%\" title=\"gc: %.2f ms\"></span>"
            gc_pct (engine_ms agg.Engine.gc_ns);
        pf buf "</span></span></div>\n")
      with_gc
  end

let render_engine_page (reports : Engine.report list) =
  let buf = Buffer.create 16384 in
  pf buf "<h1>rfh engine report</h1>\n";
  (match reports with
  | r :: _ -> pf buf "<p class=muted>target: %s</p>\n" (escape r.Engine.label)
  | [] -> ());
  engine_section buf reports;
  gc_section buf reports;
  page ~title:"rfh engine report" (Buffer.contents buf)

let render ?compare ?explain ?engine (m : Manifest.t) =
  let buf = Buffer.create 16384 in
  pf buf "<h1>rfh run report</h1>\n";
  pf buf "<p class=muted>schema v%d · %d benchmarks%s</p>\n" Manifest.schema_version
    (List.length m.benches)
    (if compare = None then "" else " · compared against baseline");
  headline buf m compare;
  options_section buf m.options;
  energy_bars buf m;
  bench_table buf m compare;
  stall_section buf m;
  phase_table buf m;
  metrics_section buf m;
  audit_section buf m;
  (match engine with
  | None | Some [] -> ()
  | Some reports ->
    engine_section buf reports;
    gc_section buf reports);
  (match explain with None | Some [] -> () | Some reports -> explain_section buf reports);
  page ~title:"rfh run report" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Trend dashboard: a standalone page over the cross-run history.
   Sparklines are inline SVG (one polyline per series, change points
   as vertical rules with the git rev in a <title> tooltip) — still no
   scripts and no external assets.                                     *)

let spark_w = 260.0
let spark_h = 30.0

let trend_sparkline_svg buf (recs : History.t array) (a : Trend.analysis) =
  let pts = a.Trend.a_series.Trend.points in
  let n = Array.length pts in
  pf buf "<svg width=%.0f height=%.0f viewBox=\"0 0 %.0f %.0f\" role=img>"
    spark_w spark_h spark_w spark_h;
  if n > 0 then begin
    let values = Array.map snd pts in
    let lo = Array.fold_left Float.min values.(0) values in
    let hi = Array.fold_left Float.max values.(0) values in
    let x i = if n = 1 then spark_w /. 2.0 else 3.0 +. (spark_w -. 6.0) *. float_of_int i /. float_of_int (n - 1) in
    let y v =
      if hi = lo then spark_h /. 2.0
      else 3.0 +. (spark_h -. 6.0) *. (1.0 -. ((v -. lo) /. (hi -. lo)))
    in
    List.iter
      (fun cp ->
        let rev = (recs.(fst pts.(cp)).History.host : Host.t).git_rev in
        pf buf
          "<line x1=%.1f y1=0 x2=%.1f y2=%.0f stroke=\"#a02020\" stroke-width=1.5><title>change point: record %d, rev %s</title></line>"
          (x cp) (x cp) spark_h (fst pts.(cp))
          (escape rev))
      a.Trend.a_change_points;
    pf buf "<polyline fill=none stroke=\"#5470c6\" stroke-width=1.5 points=\"";
    Array.iteri (fun i v -> pf buf "%.1f,%.1f " (x i) (y v)) values;
    pf buf "\"/>";
    let last = values.(n - 1) in
    pf buf "<circle cx=%.1f cy=%.1f r=2.2 fill=\"#1c2330\"/>" (x (n - 1)) (y last)
  end;
  pf buf "</svg>"

let render_trend_page ~history_path ~records ~rejected (g : Trend.gate_result) =
  let recs = Array.of_list records in
  let buf = Buffer.create 16384 in
  pf buf "<h1>rfh trend dashboard</h1>\n";
  pf buf "<p class=muted>history: <code>%s</code> · %d record%s%s%s</p>\n"
    (escape history_path) (Array.length recs)
    (if Array.length recs = 1 then "" else "s")
    (if rejected = 0 then "" else Printf.sprintf " · %d undecodable line%s skipped" rejected (if rejected = 1 then "" else "s"))
    (match (records, List.rev records) with
    | first :: _, last :: _ when Array.length recs > 1 ->
      Printf.sprintf " · %s … %s" (escape first.History.timestamp) (escape last.History.timestamp)
    | first :: _, _ -> Printf.sprintf " · %s" (escape first.History.timestamp)
    | [], _ -> "");
  (match g.Trend.g_exit with
  | 2 ->
    pf buf "<p class=gate-fail>Not enough history to judge drift (need at least 3 records).</p>\n"
  | 1 ->
    pf buf "<p class=gate-fail>Sustained drift detected in %d gated series:</p>\n<ul>\n"
      (List.length g.Trend.g_failures);
    List.iter
      (fun (f : Trend.failure) ->
        pf buf "<li><code>%s</code>: %s → %s at record %d (rev <code>%s</code>)</li>\n"
          (escape f.Trend.f_series) (num f.Trend.f_before) (num f.Trend.f_after)
          f.Trend.f_index
          (escape (short_rev f.Trend.f_rev)))
      g.Trend.g_failures;
    pf buf "</ul>\n"
  | _ -> pf buf "<p class=gate-ok>No sustained drift in any gated series.</p>\n");
  if g.Trend.g_analyses <> [] then begin
    pf buf "<h2>Series</h2><table>\n";
    pf buf
      "<tr><th class=l>series</th><th>n</th><th>median</th><th>MAD</th><th>latest</th><th>z</th><th class=l>trend</th><th>shift</th><th class=l>verdict</th><th class=l>change points</th></tr>\n";
    List.iter
      (fun (a : Trend.analysis) ->
        let s = a.Trend.a_series in
        let verdict = Trend.verdict_name a.Trend.a_verdict in
        pf buf "<tr><td class=l><code>%s</code>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%.2f</td>"
          (escape s.Trend.s_name)
          (if s.Trend.s_gated then "" else " <span class=muted>(ungated)</span>")
          (Array.length s.Trend.points)
          (num a.Trend.a_median) (num a.Trend.a_mad) (num a.Trend.a_latest)
          a.Trend.a_latest_z;
        pf buf "<td class=\"l spark\">";
        trend_sparkline_svg buf recs a;
        pf buf "</td><td>%+.1f%%</td><td class=\"l v-%s\">%s</td><td class=l>%s</td></tr>\n"
          (100.0 *. a.Trend.a_shift) verdict verdict
          (if a.Trend.a_change_points = [] then "&mdash;"
           else
             String.concat ", "
               (List.map
                  (fun cp ->
                    let idx = fst s.Trend.points.(cp) in
                    Printf.sprintf "#%d <code>%s</code>" idx
                      (escape (short_rev (recs.(idx).History.host : Host.t).git_rev)))
                  a.Trend.a_change_points)))
      g.Trend.g_analyses;
    pf buf "</table>\n";
    pf buf
      "<p class=muted>z is a robust score (0.6745·(latest−median)/MAD); shift compares the last segment's median against the previous segment's. Gated series fail <code>rfh trend --check</code> on a sustained shift beyond their tolerance in the bad direction.</p>\n"
  end;
  page ~title:"rfh trend dashboard" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Why page: the ranked root-cause diagnosis of two runs.  Still one
   self-contained file: inline CSS, no scripts.                        *)

(* For IPC a drop is the bad direction; for everything else (energies,
   counts) a rise is. *)
let metric_worse metric rel = if metric = "ipc" then rel < 0.0 else rel > 0.0

let why_delta_bars buf (r : Rootcause.t) =
  pf buf "<h2>Per-benchmark metric deltas</h2>\n";
  if r.Rootcause.r_metrics = [] then
    pf buf "<p class=muted>no benchmarks common to both sides</p>\n"
  else begin
    pf buf
      "<p class=legend><span><span class=\"swatch why-worse\"></span>worse</span><span><span class=\"swatch why-better\"></span>better</span> <span class=muted>bar length is the signed relative delta; the rule marks zero</span></p>\n";
    let widest =
      List.fold_left (fun acc m -> Float.max acc (Float.abs m.Rootcause.md_rel)) 0.0
        r.Rootcause.r_metrics
      |> Float.max 1e-9
    in
    List.iter
      (fun (m : Rootcause.metric_delta) ->
        let rel = m.Rootcause.md_rel in
        let w = 48.0 *. Float.abs rel /. widest in
        let cls = if metric_worse m.Rootcause.md_metric rel then "why-worse" else "why-better" in
        pf buf "<div class=why-bar><span class=label>%s · %s</span><span class=track><span class=mid></span>"
          (escape m.Rootcause.md_bench) (escape m.Rootcause.md_metric);
        if Float.abs rel > 1e-12 then begin
          if rel >= 0.0 then
            pf buf "<span class=\"seg %s\" style=\"left:50%%;width:%.2f%%\"></span>" cls w
          else
            pf buf "<span class=\"seg %s\" style=\"left:%.2f%%;width:%.2f%%\"></span>" cls
              (50.0 -. w) w
        end;
        pf buf "</span><span class=pct>%+.4g%%</span></div>\n" (rel *. 100.0))
      r.Rootcause.r_metrics
  end

let why_causes_table buf (r : Rootcause.t) =
  pf buf "<h2>Ranked causes</h2>\n";
  if r.Rootcause.r_causes = [] then
    pf buf "<p class=gate-ok>No causes: the two runs are equivalent under every probe.</p>\n"
  else begin
    pf buf
      "<table>\n<tr><th>rank</th><th>score</th><th class=l>kind</th><th class=l>bench</th><th class=l>cause</th><th class=l>delta</th></tr>\n";
    List.iteri
      (fun i (c : Rootcause.cause) ->
        pf buf
          "<tr><td>%d</td><td>%s</td><td class=l>%s</td><td class=l>%s</td><td class=l>%s</td><td class=l>%s</td></tr>\n"
          (i + 1) (num c.Rootcause.c_score)
          (escape (Rootcause.kind_name c.Rootcause.c_kind))
          (escape c.Rootcause.c_bench) (escape c.Rootcause.c_what)
          (escape c.Rootcause.c_delta))
      r.Rootcause.r_causes;
    pf buf "</table>\n"
  end

let why_stall_section buf (s : Stall_diff.t) =
  pf buf "<h2>Stall attribution deltas</h2>\n";
  List.iter
    (fun (b : Stall_diff.bench_diff) ->
      pf buf "<h3>%s <span class=muted>(budget %d → %d warp-cycles)</span></h3>\n"
        (escape b.Stall_diff.sb_bench) b.Stall_diff.sb_total_a b.Stall_diff.sb_total_b;
      pf buf
        "<table>\n<tr><th class=l>cause</th><th>baseline</th><th>candidate</th><th>share Δ (pp)</th></tr>\n";
      List.iter
        (fun (c : Stall_diff.cause_delta) ->
          let cls =
            if c.Stall_diff.cd_delta > 1e-12 then " class=delta-up"
            else if c.Stall_diff.cd_delta < -1e-12 then " class=delta-down"
            else ""
          in
          pf buf "<tr><td class=l>%s</td><td>%d</td><td>%d</td><td%s>%+.4g</td></tr>\n"
            (escape c.Stall_diff.cd_cause) c.Stall_diff.cd_count_a c.Stall_diff.cd_count_b
            cls
            (c.Stall_diff.cd_delta *. 100.0))
        b.Stall_diff.sb_causes;
      pf buf "</table>\n")
    s.Stall_diff.s_benches

let why_explain_section buf (e : Explain_diff.t) =
  pf buf "<h2>Allocation decision diff</h2>\n";
  pf buf "<p class=muted>%d vs %d decisions, %d aligned, %d changed, %d / %d unmatched</p>\n"
    e.Explain_diff.d_total_a e.Explain_diff.d_total_b e.Explain_diff.d_aligned
    (List.length e.Explain_diff.d_pairs)
    (List.length e.Explain_diff.d_only_a)
    (List.length e.Explain_diff.d_only_b);
  if e.Explain_diff.d_kernels <> [] then begin
    pf buf
      "<table>\n<tr><th class=l>kernel</th><th>aligned</th><th>changed</th><th class=l>moves</th><th>verdict flips</th><th>savings Δ (pJ)</th><th>dropped Δ</th></tr>\n";
    List.iter
      (fun (k : Explain_diff.kernel_stats) ->
        let moves =
          if k.Explain_diff.ks_moves = [] then "&mdash;"
          else
            String.concat ", "
              (List.map
                 (fun (m : Explain_diff.move) ->
                   Printf.sprintf "%s→%s ×%d"
                     (escape m.Explain_diff.m_from) (escape m.Explain_diff.m_to)
                     m.Explain_diff.m_count)
                 k.Explain_diff.ks_moves)
        in
        pf buf
          "<tr><td class=l>%s</td><td>%d</td><td>%d</td><td class=l>%s</td><td>%d</td><td>%+.4g</td><td>%+d</td></tr>\n"
          (escape k.Explain_diff.ks_kernel) k.Explain_diff.ks_aligned
          k.Explain_diff.ks_changed moves k.Explain_diff.ks_verdict_flips
          k.Explain_diff.ks_savings_delta k.Explain_diff.ks_dropped_delta)
      e.Explain_diff.d_kernels;
    pf buf "</table>\n"
  end;
  if e.Explain_diff.d_pairs <> [] then begin
    pf buf "<h3>Changed live ranges</h3>\n";
    pf buf
      "<table>\n<tr><th class=l>kernel</th><th class=l>kind</th><th class=l>reg</th><th>strand</th><th>first</th><th class=l>flips</th></tr>\n";
    List.iter
      (fun (p : Explain_diff.pair) ->
        let k = p.Explain_diff.p_key in
        pf buf
          "<tr><td class=l>%s</td><td class=l>%s</td><td class=l><code>%s</code></td><td>%d</td><td>%d</td><td class=l>%s</td></tr>\n"
          (escape k.Explain_diff.k_kernel) (escape k.Explain_diff.k_kind)
          (escape k.Explain_diff.k_reg) k.Explain_diff.k_strand k.Explain_diff.k_first
          (escape
             (String.concat "; "
                (List.map Explain_diff.flip_name p.Explain_diff.p_flips))))
      e.Explain_diff.d_pairs;
    pf buf "</table>\n"
  end

let render_why_page ~baseline_label ~candidate_label (r : Rootcause.t) =
  let buf = Buffer.create 16384 in
  pf buf "<h1>rfh why — differential root cause</h1>\n";
  pf buf "<p class=muted>baseline: <code>%s</code> · candidate: <code>%s</code></p>\n"
    (escape baseline_label) (escape candidate_label);
  (match Rootcause.check r with
  | [] ->
    pf buf "<p class=gate-ok>Attribution self-check passed: every cause sums back to its source counters.</p>\n"
  | issues ->
    pf buf "<p class=gate-fail>Attribution self-check FAILED:</p>\n<ul>\n";
    List.iter (fun i -> pf buf "<li>%s</li>\n" (escape i)) issues;
    pf buf "</ul>\n");
  (match Rootcause.top_cause r with
  | Some c ->
    pf buf "<p class=headline>top cause — %s: %s, %s</p>\n" (escape c.Rootcause.c_bench)
      (escape c.Rootcause.c_what) (escape c.Rootcause.c_delta)
  | None -> ());
  (if r.Rootcause.r_only_a <> [] || r.Rootcause.r_only_b <> [] then
     pf buf "<p class=gate-fail>benchmarks only in baseline: [%s] · only in candidate: [%s]</p>\n"
       (escape (String.concat ", " r.Rootcause.r_only_a))
       (escape (String.concat ", " r.Rootcause.r_only_b)));
  why_causes_table buf r;
  why_delta_bars buf r;
  (match r.Rootcause.r_stalls with None -> () | Some s -> why_stall_section buf s);
  (match r.Rootcause.r_explain with None -> () | Some e -> why_explain_section buf e);
  page ~title:"rfh why report" (Buffer.contents buf)
