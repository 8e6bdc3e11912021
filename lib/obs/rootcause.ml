(* Ranked differential root-cause analysis combining manifest metric
   deltas, stall-share deltas and allocation-decision flips.  All
   ordering below is comparison-defined and every float renders
   through one fixed format, so the same two inputs always produce the
   same bytes. *)

type kind = Metric | Stall | Alloc

let kind_name = function Metric -> "metric" | Stall -> "stall" | Alloc -> "alloc"

type cause = {
  c_bench : string;
  c_kind : kind;
  c_what : string;
  c_delta : string;
  c_score : float;
  c_count : int;
}

(* The deterministic order of causes of equal score. *)
let tie_order c =
  (c.c_bench, (match c.c_kind with Metric -> 0 | Stall -> 1 | Alloc -> 2), c.c_what)

type metric_delta = {
  md_bench : string;
  md_metric : string;
  md_a : float;
  md_b : float;
  md_rel : float;
}

type stall_delta = {
  cd_cause : string;
  cd_count_a : int;
  cd_count_b : int;
  cd_share_a : float;
  cd_share_b : float;
}

type bench_stalls = {
  sb_bench : string;
  sb_total_a : int;
  sb_total_b : int;
  sb_causes : stall_delta list;
  sb_sched : Manifest.sched * Manifest.sched;
}

type t = {
  r_causes : cause list;
  r_metrics : metric_delta list;
  r_stalls : bench_stalls list option;
  r_explain : Explain_diff.t option;
  r_only_a : string list;
  r_only_b : string list;
}

let eps = 1e-12
let num = Printf.sprintf "%.4g"

(* ------------------------------------------------------------------ *)
(* Pairing and deltas, shared by manifests and history records.        *)

(* The benches both sides hold, as pairs in side a's order, then the
   names only side a and only side b hold. *)
let pair_benches name a b =
  let find x = List.find_opt (fun y -> name y = name x) in
  let only xs ys =
    List.filter_map (fun x -> if Option.is_none (find x ys) then Some (name x) else None) xs
  in
  (List.filter_map (fun x -> Option.map (fun y -> (x, y)) (find x b)) a, only a b, only b a)

(* The metrics of side a that side b reports too, in side a's order. *)
let metric_deltas bench ma mb =
  List.filter_map
    (fun (metric, va) ->
      Option.map
        (fun vb ->
          {
            md_bench = bench;
            md_metric = metric;
            md_a = va;
            md_b = vb;
            md_rel = Util.Stats.rel_delta va vb;
          })
        (List.assoc_opt metric mb))
    ma

(* Side a's stall causes in its order, then the causes only side b
   knows — schema drift must surface, not vanish.  A cause missing on
   one side reads as [zero] there. *)
let zip_causes zero a b =
  List.map (fun (c, x) -> (c, x, Option.value ~default:zero (List.assoc_opt c b))) a
  @ List.filter_map (fun (c, y) -> if List.mem_assoc c a then None else Some (c, zero, y)) b

(* A stall cause whose share of its side's budget moved.  [counts] are
   the warp-cycles behind the two shares, which a manifest has and a
   history record does not. *)
let stall_cause bench counts cause sa sb =
  let delta = sb -. sa in
  if Float.abs delta <= eps then None
  else
    Some
      {
        c_bench = bench;
        c_kind = Stall;
        c_what = "stall " ^ cause;
        c_delta =
          Printf.sprintf "share %s -> %s (%+.4g pp)" (num sa) (num sb) (delta *. 100.0)
          ^ Option.fold ~none:""
              ~some:(fun (na, nb) -> Printf.sprintf ", %d -> %d warp-cycles" na nb)
              counts;
        c_score = Float.abs delta;
        c_count = Option.fold ~none:0 ~some:(fun (na, nb) -> abs (nb - na)) counts;
      }

let manifest_metrics (b : Manifest.bench) =
  [ ("ipc", b.ipc); ("norm_energy", b.norm_energy); ("total_pj", b.total_pj) ]
  @ List.map (fun (level, (access, wire)) -> ("energy:" ^ level, access +. wire)) b.energy_pj

let history_metrics (p : History.bench_point) =
  [ ("ipc", p.hb_ipc); ("norm_energy", p.hb_norm_energy) ]

(* Counts are exact integers out of the simulator; shares normalize
   each side by its own cycles x warps budget, so a timing change does
   not masquerade as an attribution change. *)
let bench_stalls ((a : Manifest.bench), (b : Manifest.bench)) =
  let budget (b : Manifest.bench) = List.fold_left (fun acc (_, n) -> acc + n) 0 b.stalls in
  let ta = budget a and tb = budget b in
  let share total n = if total = 0 then 0.0 else float_of_int n /. float_of_int total in
  {
    sb_bench = a.bench;
    sb_total_a = ta;
    sb_total_b = tb;
    sb_causes =
      List.map
        (fun (cause, na, nb) ->
          {
            cd_cause = cause;
            cd_count_a = na;
            cd_count_b = nb;
            cd_share_a = share ta na;
            cd_share_b = share tb nb;
          })
        (zip_causes 0 a.stalls b.stalls);
    sb_sched = (a.sched, b.sched);
  }

(* ------------------------------------------------------------------ *)
(* Cause construction.                                                 *)

(* Metric causes use the JSON round-trip floor: anything below it is
   noise the regression gate itself would not flag, so it must not rank
   as a cause.  Stall shares and alignment counts are ratios of exact
   integers, so they keep the tighter [eps]. *)
let metric_causes metrics =
  List.filter_map
    (fun m ->
      if Float.abs m.md_rel <= Json.float_tol then None
      else
        Some
          {
            c_bench = m.md_bench;
            c_kind = Metric;
            c_what = m.md_metric;
            c_delta =
              Printf.sprintf "%s -> %s (%+.4g%%)" (num m.md_a) (num m.md_b)
                (m.md_rel *. 100.0);
            c_score = Float.abs m.md_rel;
            c_count = 0;
          })
    metrics

(* A kernel's rf-energy link: name the candidate's total-energy swing
   next to the allocation moves that plausibly drove it.  Kernels and
   benches share names in this repo; fall back to a prefix match so
   multi-kernel benches still link. *)
let energy_clause metrics kernel =
  let linked =
    List.find_opt
      (fun m ->
        m.md_metric = "total_pj"
        && (m.md_bench = kernel
           || String.length m.md_bench < String.length kernel
              && String.sub kernel 0 (String.length m.md_bench) = m.md_bench))
      metrics
  in
  match linked with
  | Some m when Float.abs m.md_rel > eps ->
    Printf.sprintf ", explaining %+.4g%% rf energy" (m.md_rel *. 100.0)
  | _ -> ""

(* Every alloc cause scores the ranges it counts as a fraction of the
   kernel's aligned ones; a shape that counts none is no cause. *)
let alloc_causes metrics (ed : Explain_diff.t) =
  List.concat_map
    (fun (k : Explain_diff.kernel_stats) ->
      let aligned = max 1 k.ks_aligned in
      let cause ?(over = aligned) what count delta =
        if count = 0 then []
        else
          [
            {
              c_bench = k.ks_kernel;
              c_kind = Alloc;
              c_what = what;
              c_delta = delta;
              c_score = float_of_int count /. float_of_int over;
              c_count = count;
            };
          ]
      in
      let unmatched side count =
        cause ~over:(aligned + count)
          (Printf.sprintf "ranges only in %s" side)
          count
          (Printf.sprintf "%d decisions had no counterpart (%d aligned)" count k.ks_aligned)
      in
      List.concat_map
        (fun (m : Explain_diff.move) ->
          let what = Printf.sprintf "moved %s -> %s" m.m_from m.m_to in
          cause what m.m_count
            (Printf.sprintf "%d of %d ranges %s (savings %+.4g pJ)%s" m.m_count k.ks_aligned what
               m.m_savings_delta
               (energy_clause metrics k.ks_kernel)))
        k.ks_moves
      @ cause "verdict flips" k.ks_verdict_flips
          (Printf.sprintf "%d candidate verdicts flipped over %d aligned ranges"
             k.ks_verdict_flips k.ks_aligned)
      @ cause "dropped reads" (abs k.ks_dropped_delta)
          (Printf.sprintf "dropped-read total moved by %+d (coverage by %+d)" k.ks_dropped_delta
             k.ks_covered_delta)
      @ unmatched "baseline" k.ks_only_a
      @ unmatched "candidate" k.ks_only_b)
    ed.d_kernels

let rank causes =
  List.sort
    (fun a b ->
      match Float.compare b.c_score a.c_score with
      | 0 -> compare (tie_order a) (tie_order b)
      | c -> c)
    causes

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

(* What both entry points return: their metric causes ranked among the rest. *)
let ranked ?stalls ?explain metrics causes ~only_a ~only_b =
  {
    r_causes = rank (metric_causes metrics @ causes);
    r_metrics = metrics;
    r_stalls = stalls;
    r_explain = explain;
    r_only_a = only_a;
    r_only_b = only_b;
  }

let analyze ?explain ~(baseline : Manifest.t) ~(candidate : Manifest.t) () =
  let pairs, only_a, only_b =
    pair_benches (fun (b : Manifest.bench) -> b.bench) baseline.benches candidate.benches
  in
  let metrics =
    List.concat_map
      (fun ((a : Manifest.bench), b) ->
        metric_deltas a.bench (manifest_metrics a) (manifest_metrics b))
      pairs
  in
  let stalls = List.map bench_stalls pairs in
  let stall_causes =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun d ->
            stall_cause s.sb_bench (Some (d.cd_count_a, d.cd_count_b)) d.cd_cause d.cd_share_a
              d.cd_share_b)
          s.sb_causes)
      stalls
  in
  ranked ~stalls ?explain metrics
    (stall_causes @ Option.fold ~none:[] ~some:(alloc_causes metrics) explain)
    ~only_a ~only_b

let of_history ~(before : History.t) ~(after : History.t) =
  let pairs, only_a, only_b =
    pair_benches (fun (p : History.bench_point) -> p.hb_bench) before.benches after.benches
  in
  let metrics =
    List.concat_map
      (fun ((a : History.bench_point), b) ->
        metric_deltas a.hb_bench (history_metrics a) (history_metrics b))
      pairs
  in
  let stall_causes =
    List.concat_map
      (fun ((a : History.bench_point), (b : History.bench_point)) ->
        List.filter_map
          (fun (cause, sa, sb) -> stall_cause a.hb_bench None cause sa sb)
          (zip_causes 0.0 a.hb_stalls b.hb_stalls))
      pairs
  in
  ranked metrics stall_causes ~only_a ~only_b

let top_cause t = match t.r_causes with [] -> None | c :: _ -> Some c

(* ------------------------------------------------------------------ *)
(* Self-check.                                                         *)

let check t =
  let bad = ref [] in
  let expect what ok = if not ok then bad := what :: !bad in
  List.iter (fun c -> expect (c.c_what ^ ": positive score") (c.c_score > 0.0)) t.r_causes;
  let rec ordered = function
    | a :: (b :: _ as tl) ->
      expect "causes ranked by descending score" (a.c_score >= b.c_score -. 1e-15);
      if Float.abs (a.c_score -. b.c_score) <= 1e-15 then
        expect "score ties broken deterministically" (compare (tie_order a) (tie_order b) <= 0);
      ordered tl
    | _ -> ()
  in
  ordered t.r_causes;
  List.iter
    (fun c ->
      if c.c_kind = Metric then
        expect
          (Printf.sprintf "%s/%s: metric cause backed by a delta" c.c_bench c.c_what)
          (List.exists
             (fun m ->
               m.md_bench = c.c_bench && m.md_metric = c.c_what
               && Float.abs (Float.abs m.md_rel -. c.c_score) <= 1e-15)
             t.r_metrics))
    t.r_causes;
  (* The exactness the stall counts promise: per side the shares sum
     to 1 (so the deltas sum to 0) and the counts to the budget.  A
     bench with an all-zero budget (no perf run recorded) is skipped
     rather than failed. *)
  List.iter
    (fun b ->
      let sums_to what target f =
        expect
          (Printf.sprintf "%s: %s sum to %g" b.sb_bench what target)
          (Float.abs (List.fold_left (fun acc c -> acc +. f c) 0.0 b.sb_causes -. target) <= 1e-9)
      in
      if b.sb_total_a > 0 then sums_to "baseline shares" 1.0 (fun c -> c.cd_share_a);
      if b.sb_total_b > 0 then sums_to "candidate shares" 1.0 (fun c -> c.cd_share_b);
      if b.sb_total_a > 0 && b.sb_total_b > 0 then
        sums_to "share deltas" 0.0 (fun c -> c.cd_share_b -. c.cd_share_a);
      List.iter
        (fun c ->
          expect
            (Printf.sprintf "%s/%s: nonnegative counts" b.sb_bench c.cd_cause)
            (c.cd_count_a >= 0 && c.cd_count_b >= 0))
        b.sb_causes;
      expect
        (Printf.sprintf "%s: counts sum to the budget" b.sb_bench)
        (List.fold_left (fun acc c -> acc + c.cd_count_a) 0 b.sb_causes = b.sb_total_a
        && List.fold_left (fun acc c -> acc + c.cd_count_b) 0 b.sb_causes = b.sb_total_b))
    (Option.value ~default:[] t.r_stalls);
  List.rev !bad @ Option.fold ~none:[] ~some:Explain_diff.check t.r_explain

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let to_table ?top t =
  let causes =
    match top with
    | None -> t.r_causes
    | Some n -> List.filteri (fun i _ -> i < n) t.r_causes
  in
  let tbl =
    Util.Table.create
      ~title:
        (if causes = [] then "Ranked causes (none: the runs are equivalent)" else "Ranked causes")
      ~columns:[ "rank"; "score"; "kind"; "bench"; "cause" ]
  in
  List.iteri
    (fun i c ->
      Util.Table.add_row tbl
        [
          string_of_int (i + 1);
          num c.c_score;
          kind_name c.c_kind;
          c.c_bench;
          c.c_what ^ " — " ^ c.c_delta;
        ])
    causes;
  tbl

let delta_table t =
  let tbl =
    Util.Table.create ~title:"Metric deltas"
      ~columns:[ "bench"; "metric"; "baseline"; "candidate"; "delta%" ]
  in
  List.iter
    (fun m ->
      Util.Table.add_row tbl
        [
          m.md_bench;
          m.md_metric;
          num m.md_a;
          num m.md_b;
          Printf.sprintf "%+.4g" (m.md_rel *. 100.0);
        ])
    t.r_metrics;
  tbl

let stall_tables t =
  List.map
    (fun b ->
      let tbl =
        Util.Table.create
          ~title:
            (Printf.sprintf "Stall attribution deltas: %s (budget %d → %d warp-cycles)" b.sb_bench
               b.sb_total_a b.sb_total_b)
          ~columns:[ "cause"; "baseline"; "candidate"; "share Δ (pp)" ]
      in
      List.iter
        (fun c ->
          Util.Table.add_row tbl
            [
              c.cd_cause;
              string_of_int c.cd_count_a;
              string_of_int c.cd_count_b;
              Printf.sprintf "%+.4g" ((c.cd_share_b -. c.cd_share_a) *. 100.0);
            ])
        b.sb_causes;
      tbl)
    (Option.value ~default:[] t.r_stalls)

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let strings l = Json.Arr (List.map (fun s -> Json.Str s) l)

let cause_json c =
  Json.Obj
    [
      ("bench", Json.Str c.c_bench);
      ("kind", Json.Str (kind_name c.c_kind));
      ("what", Json.Str c.c_what);
      ("delta", Json.Str c.c_delta);
      ("score", Json.Num c.c_score);
      ("count", Json.int c.c_count);
    ]

let metric_json m =
  Json.Obj
    [
      ("bench", Json.Str m.md_bench);
      ("metric", Json.Str m.md_metric);
      ("baseline", Json.Num m.md_a);
      ("candidate", Json.Num m.md_b);
      ("rel_delta", Json.Num m.md_rel);
    ]

let bench_stalls_json b =
  let sa, sb = b.sb_sched in
  let pair json f = Json.Arr [ json (f sa); json (f sb) ] in
  let counts = pair Json.int in
  Json.Obj
    [
      ("bench", Json.Str b.sb_bench);
      ("total_a", Json.int b.sb_total_a);
      ("total_b", Json.int b.sb_total_b);
      ( "causes",
        Json.Arr
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("cause", Json.Str c.cd_cause);
                   ("count_a", Json.int c.cd_count_a);
                   ("count_b", Json.int c.cd_count_b);
                   ("share_a", Json.Num c.cd_share_a);
                   ("share_b", Json.Num c.cd_share_b);
                   ("delta", Json.Num (c.cd_share_b -. c.cd_share_a));
                 ])
             b.sb_causes) );
      ( "sched",
        Json.Obj
          [
            ("entries", counts (fun s -> s.Manifest.entries));
            ("exits", counts (fun s -> s.exits));
            ("resident_cycles", counts (fun s -> s.resident_cycles));
            ("mean_residency", pair (fun x -> Json.Num x) Manifest.mean_residency);
            ("desched_long_latency", counts (fun s -> s.desched_long_latency));
            ("desched_strand_boundary", counts (fun s -> s.desched_strand_boundary));
            ("desched_bank_conflict", counts (fun s -> s.desched_bank_conflict));
          ] );
    ]

let explain_json (e : Explain_diff.t) =
  Json.Obj
    [
      ("total_a", Json.int e.d_total_a);
      ("total_b", Json.int e.d_total_b);
      ("aligned", Json.int e.d_aligned);
      ("only_a", Json.int (List.length e.d_only_a));
      ("only_b", Json.int (List.length e.d_only_b));
      ( "kernels",
        Json.Arr
          (List.map
             (fun (k : Explain_diff.kernel_stats) ->
               Json.Obj
                 [
                   ("kernel", Json.Str k.ks_kernel);
                   ("aligned", Json.int k.ks_aligned);
                   ("changed", Json.int k.ks_changed);
                   ( "moves",
                     Json.Arr
                       (List.map
                          (fun (m : Explain_diff.move) ->
                            Json.Obj
                              [
                                ("from", Json.Str m.m_from);
                                ("to", Json.Str m.m_to);
                                ("count", Json.int m.m_count);
                                ("savings_delta", Json.Num m.m_savings_delta);
                              ])
                          k.ks_moves) );
                   ("verdict_flips", Json.int k.ks_verdict_flips);
                   ("savings_delta", Json.Num k.ks_savings_delta);
                   ("covered_delta", Json.int k.ks_covered_delta);
                   ("dropped_delta", Json.int k.ks_dropped_delta);
                   ("only_a", Json.int k.ks_only_a);
                   ("only_b", Json.int k.ks_only_b);
                 ])
             e.d_kernels) );
      ( "changed",
        Json.Arr
          (List.map
             (fun (p : Explain_diff.pair) ->
               let k = p.p_key in
               Json.Obj
                 [
                   ("kernel", Json.Str k.k_kernel);
                   ("kind", Json.Str k.k_kind);
                   ("reg", Json.Str k.k_reg);
                   ("strand", Json.int k.k_strand);
                   ("first", Json.int k.k_first);
                   ("occurrence", Json.int k.k_occurrence);
                   ("flips", strings (List.map Explain_diff.flip_name p.p_flips));
                 ])
             e.d_pairs) );
    ]

let to_json t =
  let issues = check t in
  Json.Obj
    [
      ("schema_version", Json.int 1);
      ("causes", Json.Arr (List.map cause_json t.r_causes));
      ("metrics", Json.Arr (List.map metric_json t.r_metrics));
      ( "stalls",
        Option.fold ~none:Json.Null
          ~some:(fun s ->
            Json.Obj
              [
                ("benches", Json.Arr (List.map bench_stalls_json s));
                ("only_a", strings t.r_only_a);
                ("only_b", strings t.r_only_b);
              ])
          t.r_stalls );
      ("explain", Option.fold ~none:Json.Null ~some:explain_json t.r_explain);
      ("only_a", strings t.r_only_a);
      ("only_b", strings t.r_only_b);
      ("check_ok", Json.Bool (issues = []));
      ("check", strings issues);
    ]
