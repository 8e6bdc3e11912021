(* Ranked differential root-cause analysis combining manifest metric
   deltas, stall-share deltas and allocation-decision flips.  All
   ordering below is comparison-defined and every float renders
   through one fixed format, so the same two inputs always produce the
   same bytes. *)

type kind = Metric | Stall | Alloc

let kind_name = function Metric -> "metric" | Stall -> "stall" | Alloc -> "alloc"

(* Rank order for the deterministic tie-break only. *)
let kind_rank = function Metric -> 0 | Stall -> 1 | Alloc -> 2

type cause = {
  c_bench : string;
  c_kind : kind;
  c_what : string;
  c_delta : string;
  c_score : float;
  c_count : int;
}

type metric_delta = {
  md_bench : string;
  md_metric : string;
  md_a : float;
  md_b : float;
  md_rel : float;
}

type t = {
  r_causes : cause list;
  r_metrics : metric_delta list;
  r_stalls : Stall_diff.t option;
  r_explain : Explain_diff.t option;
  r_only_a : string list;
  r_only_b : string list;
}

let eps = 1e-12
let num = Printf.sprintf "%.4g"

(* Signed relative delta, symmetric in scale so that a doubling and a
   halving score alike. *)
let rel_delta a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  if scale <= 0.0 then 0.0 else (b -. a) /. scale

(* ------------------------------------------------------------------ *)
(* Metric deltas.                                                      *)

let bench_metrics (b : Manifest.bench) =
  [
    ("ipc", b.Manifest.ipc);
    ("norm_energy", b.Manifest.norm_energy);
    ("total_pj", b.Manifest.total_pj);
  ]
  @ List.map
      (fun (level, (access, wire)) -> ("energy:" ^ level, access +. wire))
      b.Manifest.energy_pj

let metric_deltas ~(baseline : Manifest.t) ~(candidate : Manifest.t) =
  List.concat_map
    (fun (a : Manifest.bench) ->
      match
        List.find_opt
          (fun (b : Manifest.bench) -> b.Manifest.bench = a.Manifest.bench)
          candidate.Manifest.benches
      with
      | None -> []
      | Some b ->
        let ma = bench_metrics a and mb = bench_metrics b in
        List.filter_map
          (fun (metric, va) ->
            match List.assoc_opt metric mb with
            | None -> None
            | Some vb ->
              Some
                {
                  md_bench = a.Manifest.bench;
                  md_metric = metric;
                  md_a = va;
                  md_b = vb;
                  md_rel = rel_delta va vb;
                })
          ma)
    baseline.Manifest.benches

(* ------------------------------------------------------------------ *)
(* Cause construction.                                                 *)

(* Metric causes use the same relative floor as Regress's float_tol:
   anything below it is JSON round-trip noise the gate itself would
   not flag, so it must not rank as a cause.  Stall shares and
   alignment counts are ratios of exact integers, so they keep the
   tighter [eps]. *)
let metric_floor = 1e-9

let metric_causes metrics =
  List.filter_map
    (fun m ->
      if Float.abs m.md_rel <= metric_floor then None
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

let stall_causes (sd : Stall_diff.t) =
  List.concat_map
    (fun (b : Stall_diff.bench_diff) ->
      List.filter_map
        (fun (c : Stall_diff.cause_delta) ->
          if Float.abs c.Stall_diff.cd_delta <= eps then None
          else
            Some
              {
                c_bench = b.Stall_diff.sb_bench;
                c_kind = Stall;
                c_what = "stall " ^ c.Stall_diff.cd_cause;
                c_delta =
                  Printf.sprintf "share %s -> %s (%+.4g pp), %d -> %d warp-cycles"
                    (num c.Stall_diff.cd_share_a) (num c.Stall_diff.cd_share_b)
                    (c.Stall_diff.cd_delta *. 100.0) c.Stall_diff.cd_count_a
                    c.Stall_diff.cd_count_b;
                c_score = Float.abs c.Stall_diff.cd_delta;
                c_count = abs (c.Stall_diff.cd_count_b - c.Stall_diff.cd_count_a);
              })
        b.Stall_diff.sb_causes)
    sd.Stall_diff.s_benches

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

let alloc_causes metrics (ed : Explain_diff.t) =
  List.concat_map
    (fun (k : Explain_diff.kernel_stats) ->
      let aligned = max 1 k.Explain_diff.ks_aligned in
      let moves =
        List.map
          (fun (m : Explain_diff.move) ->
            {
              c_bench = k.Explain_diff.ks_kernel;
              c_kind = Alloc;
              c_what =
                Printf.sprintf "moved %s -> %s" m.Explain_diff.m_from m.Explain_diff.m_to;
              c_delta =
                Printf.sprintf "%d of %d ranges moved %s -> %s (savings %+.4g pJ)%s"
                  m.Explain_diff.m_count k.Explain_diff.ks_aligned m.Explain_diff.m_from
                  m.Explain_diff.m_to m.Explain_diff.m_savings_delta
                  (energy_clause metrics k.Explain_diff.ks_kernel);
              c_score = float_of_int m.Explain_diff.m_count /. float_of_int aligned;
              c_count = m.Explain_diff.m_count;
            })
          k.Explain_diff.ks_moves
      in
      let verdicts =
        if k.Explain_diff.ks_verdict_flips = 0 then []
        else
          [
            {
              c_bench = k.Explain_diff.ks_kernel;
              c_kind = Alloc;
              c_what = "verdict flips";
              c_delta =
                Printf.sprintf "%d candidate verdicts flipped over %d aligned ranges"
                  k.Explain_diff.ks_verdict_flips k.Explain_diff.ks_aligned;
              c_score =
                float_of_int k.Explain_diff.ks_verdict_flips /. float_of_int aligned;
              c_count = k.Explain_diff.ks_verdict_flips;
            };
          ]
      in
      let dropped =
        if k.Explain_diff.ks_dropped_delta = 0 then []
        else
          [
            {
              c_bench = k.Explain_diff.ks_kernel;
              c_kind = Alloc;
              c_what = "dropped reads";
              c_delta =
                Printf.sprintf "dropped-read total moved by %+d (coverage by %+d)"
                  k.Explain_diff.ks_dropped_delta k.Explain_diff.ks_covered_delta;
              c_score =
                float_of_int (abs k.Explain_diff.ks_dropped_delta)
                /. float_of_int aligned;
              c_count = abs k.Explain_diff.ks_dropped_delta;
            };
          ]
      in
      let unmatched side count =
        if count = 0 then []
        else
          [
            {
              c_bench = k.Explain_diff.ks_kernel;
              c_kind = Alloc;
              c_what = Printf.sprintf "ranges only in %s" side;
              c_delta =
                Printf.sprintf "%d decisions had no counterpart (%d aligned)" count
                  k.Explain_diff.ks_aligned;
              c_score = float_of_int count /. float_of_int (aligned + count);
              c_count = count;
            };
          ]
      in
      moves @ verdicts @ dropped
      @ unmatched "baseline" k.Explain_diff.ks_only_a
      @ unmatched "candidate" k.Explain_diff.ks_only_b)
    ed.Explain_diff.d_kernels

let rank causes =
  List.sort
    (fun a b ->
      match compare b.c_score a.c_score with
      | 0 -> (
        match compare a.c_bench b.c_bench with
        | 0 -> (
          match compare (kind_rank a.c_kind) (kind_rank b.c_kind) with
          | 0 -> compare a.c_what b.c_what
          | c -> c)
        | c -> c)
      | c -> c)
    causes

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let analyze ?explain ~baseline ~candidate () =
  let metrics = metric_deltas ~baseline ~candidate in
  let stalls = Stall_diff.diff ~baseline ~current:candidate in
  let causes =
    metric_causes metrics @ stall_causes stalls
    @ (match explain with None -> [] | Some ed -> alloc_causes metrics ed)
  in
  {
    r_causes = rank causes;
    r_metrics = metrics;
    r_stalls = Some stalls;
    r_explain = explain;
    r_only_a = stalls.Stall_diff.s_only_a;
    r_only_b = stalls.Stall_diff.s_only_b;
  }

let of_history ~(before : History.t) ~(after : History.t) =
  let metrics =
    List.concat_map
      (fun (a : History.bench_point) ->
        match
          List.find_opt
            (fun (b : History.bench_point) -> b.History.hb_bench = a.History.hb_bench)
            after.History.benches
        with
        | None -> []
        | Some b ->
          List.map
            (fun (metric, va, vb) ->
              {
                md_bench = a.History.hb_bench;
                md_metric = metric;
                md_a = va;
                md_b = vb;
                md_rel = rel_delta va vb;
              })
            [
              ("ipc", a.History.hb_ipc, b.History.hb_ipc);
              ("norm_energy", a.History.hb_norm_energy, b.History.hb_norm_energy);
            ])
      before.History.benches
  in
  let stall_causes =
    List.concat_map
      (fun (a : History.bench_point) ->
        match
          List.find_opt
            (fun (b : History.bench_point) -> b.History.hb_bench = a.History.hb_bench)
            after.History.benches
        with
        | None -> []
        | Some b ->
          List.filter_map
            (fun (cause, sa) ->
              let sb =
                Option.value ~default:0.0 (List.assoc_opt cause b.History.hb_stalls)
              in
              let delta = sb -. sa in
              if Float.abs delta <= eps then None
              else
                Some
                  {
                    c_bench = a.History.hb_bench;
                    c_kind = Stall;
                    c_what = "stall " ^ cause;
                    c_delta =
                      Printf.sprintf "share %s -> %s (%+.4g pp)" (num sa) (num sb)
                        (delta *. 100.0);
                    c_score = Float.abs delta;
                    c_count = 0;
                  })
            a.History.hb_stalls)
      before.History.benches
  in
  let names (h : History.t) =
    List.map (fun (b : History.bench_point) -> b.History.hb_bench) h.History.benches
  in
  {
    r_causes = rank (metric_causes metrics @ stall_causes);
    r_metrics = metrics;
    r_stalls = None;
    r_explain = None;
    r_only_a = List.filter (fun n -> not (List.mem n (names after))) (names before);
    r_only_b = List.filter (fun n -> not (List.mem n (names before))) (names after);
  }

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
        expect "score ties broken deterministically"
          (compare
             (a.c_bench, kind_rank a.c_kind, a.c_what)
             (b.c_bench, kind_rank b.c_kind, b.c_what)
          <= 0);
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
  let sub =
    (match t.r_stalls with None -> [] | Some s -> Stall_diff.check s)
    @ match t.r_explain with None -> [] | Some e -> Explain_diff.check e
  in
  List.rev !bad @ sub

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

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

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

let stall_json (s : Stall_diff.t) =
  Json.Obj
    [
      ( "benches",
        Json.Arr
          (List.map
             (fun (b : Stall_diff.bench_diff) ->
               Json.Obj
                 [
                   ("bench", Json.Str b.Stall_diff.sb_bench);
                   ("total_a", Json.int b.Stall_diff.sb_total_a);
                   ("total_b", Json.int b.Stall_diff.sb_total_b);
                   ( "causes",
                     Json.Arr
                       (List.map
                          (fun (c : Stall_diff.cause_delta) ->
                            Json.Obj
                              [
                                ("cause", Json.Str c.Stall_diff.cd_cause);
                                ("count_a", Json.int c.Stall_diff.cd_count_a);
                                ("count_b", Json.int c.Stall_diff.cd_count_b);
                                ("share_a", Json.Num c.Stall_diff.cd_share_a);
                                ("share_b", Json.Num c.Stall_diff.cd_share_b);
                                ("delta", Json.Num c.Stall_diff.cd_delta);
                              ])
                          b.Stall_diff.sb_causes) );
                   ( "sched",
                     let pair (x, y) = Json.Arr [ Json.int x; Json.int y ] in
                     let fpair (x, y) = Json.Arr [ Json.Num x; Json.Num y ] in
                     let sd = b.Stall_diff.sb_sched in
                     Json.Obj
                       [
                         ("entries", pair sd.Stall_diff.sd_entries);
                         ("exits", pair sd.Stall_diff.sd_exits);
                         ("resident_cycles", pair sd.Stall_diff.sd_resident_cycles);
                         ("mean_residency", fpair sd.Stall_diff.sd_mean_residency);
                         ( "desched_long_latency",
                           pair sd.Stall_diff.sd_desched_long_latency );
                         ( "desched_strand_boundary",
                           pair sd.Stall_diff.sd_desched_strand_boundary );
                         ( "desched_bank_conflict",
                           pair sd.Stall_diff.sd_desched_bank_conflict );
                       ] );
                 ])
             s.Stall_diff.s_benches) );
      ("only_a", Json.Arr (List.map (fun n -> Json.Str n) s.Stall_diff.s_only_a));
      ("only_b", Json.Arr (List.map (fun n -> Json.Str n) s.Stall_diff.s_only_b));
    ]

let explain_json (e : Explain_diff.t) =
  Json.Obj
    [
      ("total_a", Json.int e.Explain_diff.d_total_a);
      ("total_b", Json.int e.Explain_diff.d_total_b);
      ("aligned", Json.int e.Explain_diff.d_aligned);
      ("only_a", Json.int (List.length e.Explain_diff.d_only_a));
      ("only_b", Json.int (List.length e.Explain_diff.d_only_b));
      ( "kernels",
        Json.Arr
          (List.map
             (fun (k : Explain_diff.kernel_stats) ->
               Json.Obj
                 [
                   ("kernel", Json.Str k.Explain_diff.ks_kernel);
                   ("aligned", Json.int k.Explain_diff.ks_aligned);
                   ("changed", Json.int k.Explain_diff.ks_changed);
                   ( "moves",
                     Json.Arr
                       (List.map
                          (fun (m : Explain_diff.move) ->
                            Json.Obj
                              [
                                ("from", Json.Str m.Explain_diff.m_from);
                                ("to", Json.Str m.Explain_diff.m_to);
                                ("count", Json.int m.Explain_diff.m_count);
                                ("savings_delta", Json.Num m.Explain_diff.m_savings_delta);
                              ])
                          k.Explain_diff.ks_moves) );
                   ("verdict_flips", Json.int k.Explain_diff.ks_verdict_flips);
                   ("savings_delta", Json.Num k.Explain_diff.ks_savings_delta);
                   ("covered_delta", Json.int k.Explain_diff.ks_covered_delta);
                   ("dropped_delta", Json.int k.Explain_diff.ks_dropped_delta);
                   ("only_a", Json.int k.Explain_diff.ks_only_a);
                   ("only_b", Json.int k.Explain_diff.ks_only_b);
                 ])
             e.Explain_diff.d_kernels) );
      ( "changed",
        Json.Arr
          (List.map
             (fun (p : Explain_diff.pair) ->
               let k = p.Explain_diff.p_key in
               Json.Obj
                 [
                   ("kernel", Json.Str k.Explain_diff.k_kernel);
                   ("kind", Json.Str k.Explain_diff.k_kind);
                   ("reg", Json.Str k.Explain_diff.k_reg);
                   ("strand", Json.int k.Explain_diff.k_strand);
                   ("first", Json.int k.Explain_diff.k_first);
                   ("occurrence", Json.int k.Explain_diff.k_occurrence);
                   ( "flips",
                     Json.Arr
                       (List.map
                          (fun f -> Json.Str (Explain_diff.flip_name f))
                          p.Explain_diff.p_flips) );
                 ])
             e.Explain_diff.d_pairs) );
    ]

let to_json t =
  let issues = check t in
  Json.Obj
    [
      ("schema_version", Json.int 1);
      ("causes", Json.Arr (List.map cause_json t.r_causes));
      ("metrics", Json.Arr (List.map metric_json t.r_metrics));
      ( "stalls",
        match t.r_stalls with None -> Json.Null | Some s -> stall_json s );
      ( "explain",
        match t.r_explain with None -> Json.Null | Some e -> explain_json e );
      ("only_a", Json.Arr (List.map (fun n -> Json.Str n) t.r_only_a));
      ("only_b", Json.Arr (List.map (fun n -> Json.Str n) t.r_only_b));
      ("check_ok", Json.Bool (issues = []));
      ("check", Json.Arr (List.map (fun s -> Json.Str s) issues));
    ]
