type direction = Lower_better | Higher_better

type verdict = Stable | Improved | Regressed | Noisy

type series = {
  s_name : string;
  s_dir : direction;
  s_tol : float;
  s_gated : bool;
  points : (int * float) array;
}

type analysis = {
  a_series : series;
  a_median : float;
  a_mad : float;
  a_latest : float;
  a_latest_z : float;
  a_change_points : int list;
  a_shift : float;
  a_verdict : verdict;
}

let noisy_ratio = 0.15

(* ------------------------------------------------------------------ *)
(* Robust statistics.  Median/MAD throughout: a single outlier run
   (machine hiccup, cold cache) must not move the location estimate,
   and the MAD gives a scale that ignores the outlier too.             *)

let median_sorted a n lo =
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(lo + (n / 2))
  else (a.(lo + (n / 2) - 1) +. a.(lo + (n / 2))) /. 2.0

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  median_sorted a (Array.length a) 0

let mad xs =
  if Array.length xs = 0 then 0.0
  else
    let m = median xs in
    median (Array.map (fun x -> Float.abs (x -. m)) xs)

let rolling_median ~window xs =
  let n = Array.length xs in
  Array.init n (fun i ->
      let lo = max 0 (i - window + 1) in
      median (Array.sub xs lo (i - lo + 1)))

let sparkline xs =
  let n = Array.length xs in
  if n = 0 then ""
  else begin
    let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                    "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |] in
    let lo = Array.fold_left Float.min xs.(0) xs in
    let hi = Array.fold_left Float.max xs.(0) xs in
    let buf = Buffer.create (n * 3) in
    Array.iter
      (fun x ->
        let bin =
          if hi = lo then 3
          else min 7 (int_of_float ((x -. lo) /. (hi -. lo) *. 8.0))
        in
        Buffer.add_string buf blocks.(bin))
      xs;
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* Change-point detection: binary segmentation with the
   least-absolute-deviations objective.  The candidate split minimizes
   the summed |x - segment median| cost of the two halves — the
   robust changepoint objective, and the only criterion of the obvious
   ones that localizes a clean step exactly (the raw median jump is
   near-identical one position past the step, where one stray point
   cannot move the longer segment's median, and size-weighted mean
   scores peak at balanced splits instead of the true one).  The
   chosen split is accepted only when its median jump clears both 3
   sigmas of the pooled residual deviation about the two segment
   medians (residuals, not per-segment MADs: an alternating series
   has MAD-0 segments at odd lengths and would split spuriously) and
   a 5% relative floor, which keeps byte-identical histories from
   splitting on rounding noise.  Each accepted split recurses into
   both halves.                                                        *)

let cp_sigmas = 3.0

let cp_rel_floor = 0.05

let change_points ?(min_seg = 3) xs =
  let n = Array.length xs in
  let found = ref [] in
  let seg lo hi = Array.sub xs lo (hi - lo) in
  let abs_cost a =
    let m = median a in
    Array.fold_left (fun acc x -> acc +. Float.abs (x -. m)) 0.0 a
  in
  let rec go lo hi =
    if hi - lo >= 2 * min_seg then begin
      let best = ref None in
      for k = lo + min_seg to hi - min_seg do
        let cost = abs_cost (seg lo k) +. abs_cost (seg k hi) in
        match !best with
        | Some (_, c) when c <= cost -> ()
        | _ -> best := Some (k, cost)
      done;
      match !best with
      | None -> ()
      | Some (k, _) ->
        let left = seg lo k and right = seg k hi in
        let ml = median left and mr = median right in
        let jump = Float.abs (ml -. mr) in
        let sq_residuals about a =
          Array.fold_left (fun acc x -> acc +. ((x -. about) *. (x -. about))) 0.0 a
        in
        let pooled_sigma =
          sqrt ((sq_residuals ml left +. sq_residuals mr right) /. float_of_int (hi - lo))
        in
        let scale = Float.max (Float.abs ml) (Float.abs mr) in
        if jump > Float.max (cp_sigmas *. pooled_sigma) (cp_rel_floor *. scale) then begin
          found := k :: !found;
          go lo k;
          go k hi
        end
    end
  in
  go 0 n;
  List.sort compare !found

(* ------------------------------------------------------------------ *)
(* Verdicts.                                                           *)

let verdict_name = function
  | Stable -> "stable"
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Noisy -> "noisy"

let analyze (s : series) =
  let values = Array.map snd s.points in
  let n = Array.length values in
  let m = median values and d = mad values in
  let latest = if n = 0 then 0.0 else values.(n - 1) in
  let latest_z =
    if d > 0.0 then 0.6745 *. (latest -. m) /. d
    else if latest = m then 0.0
    else Float.copy_sign Float.infinity (latest -. m)
  in
  let cps = change_points values in
  let shift, verd =
    match List.rev cps with
    | [] ->
      let spread = if m = 0.0 then d else d /. Float.abs m in
      (0.0, if n >= 3 && spread > noisy_ratio then Noisy else Stable)
    | last :: rest ->
      let prev_start = match rest with p :: _ -> p | [] -> 0 in
      let before = median (Array.sub values prev_start (last - prev_start)) in
      let after = median (Array.sub values last (n - last)) in
      let shift =
        if before = 0.0 then if after = 0.0 then 0.0 else Float.infinity
        else (after -. before) /. Float.abs before
      in
      let worse =
        match s.s_dir with Lower_better -> shift > s.s_tol | Higher_better -> shift < -.s.s_tol
      in
      let better =
        match s.s_dir with Lower_better -> shift < -.s.s_tol | Higher_better -> shift > s.s_tol
      in
      (shift, if worse then Regressed else if better then Improved else Stable)
  in
  {
    a_series = s;
    a_median = m;
    a_mad = d;
    a_latest = latest;
    a_latest_z = latest_z;
    a_change_points = cps;
    a_shift = shift;
    a_verdict = verd;
  }

(* ------------------------------------------------------------------ *)
(* Series extraction.                                                  *)

let series_of_history (records : History.t list) =
  let records = Array.of_list records in
  let collect f =
    Array.to_list records
    |> List.mapi (fun i r -> Option.map (fun v -> (i, v)) (f r))
    |> List.filter_map Fun.id |> Array.of_list
  in
  (* Bench names in first-seen order across the whole history. *)
  let bench_names =
    Array.fold_left
      (fun acc (r : History.t) ->
        List.fold_left
          (fun acc (p : History.bench_point) ->
            if List.mem p.History.hb_bench acc then acc else p.History.hb_bench :: acc)
          acc r.History.benches)
      [] records
    |> List.rev
  in
  let bench_metric name f r =
    List.find_opt (fun (p : History.bench_point) -> p.History.hb_bench = name)
      r.History.benches
    |> Option.map f
  in
  let mk name dir tol gated points = { s_name = name; s_dir = dir; s_tol = tol; s_gated = gated; points } in
  let bench_series =
    List.concat_map
      (fun name ->
        [
          mk
            (Printf.sprintf "bench.%s.ipc" name)
            Higher_better 0.05 true
            (collect (bench_metric name (fun p -> p.History.hb_ipc)));
          mk
            (Printf.sprintf "bench.%s.norm_energy" name)
            Lower_better 0.05 true
            (collect (bench_metric name (fun p -> p.History.hb_norm_energy)));
        ])
      bench_names
  in
  let pg f r = Option.map f r.History.perfgate in
  let tail =
    [
      (* ns/run and minor words gate CI; the tolerances are wide
         because they are wall-clock / allocator noise across hosts —
         the 2x-step acceptance case still clears 35% comfortably. *)
      mk "perfgate.ns_per_run" Lower_better 0.35 true
        (collect (pg (fun g -> g.History.pg_ns_per_run)));
      mk "perfgate.p90_ns" Lower_better 0.35 false
        (collect (pg (fun g -> g.History.pg_p90_ns)));
      mk "perfgate.minor_words" Lower_better 0.5 true
        (collect (pg (fun g -> g.History.pg_minor_words)));
      mk "perfgate.promoted_words" Lower_better 0.5 true
        (collect (fun r -> Option.bind r.History.perfgate (fun g -> g.History.pg_promoted_words)));
      mk "perfgate.major_words" Lower_better 0.5 true
        (collect (fun r -> Option.bind r.History.perfgate (fun g -> g.History.pg_major_words)));
      mk "wall_s" Lower_better 0.5 false
        (collect (fun (r : History.t) -> Some r.History.wall_s));
    ]
  in
  List.filter (fun s -> Array.length s.points > 0) (bench_series @ tail)

(* ------------------------------------------------------------------ *)
(* CI gate.                                                            *)

type failure = {
  f_series : string;
  f_index : int;
  f_rev : string;
  f_source : string;
  f_jobs : int;
  f_before : float;
  f_after : float;
}

type gate_result = { g_exit : int; g_failures : failure list; g_analyses : analysis list }

let gate ?(min_records = 3) (records : History.t list) =
  if List.length records < min_records then
    { g_exit = 2; g_failures = []; g_analyses = [] }
  else begin
    let recs = Array.of_list records in
    let analyses = List.map analyze (series_of_history records) in
    let failures =
      List.filter_map
        (fun a ->
          if not (a.a_series.s_gated && a.a_verdict = Regressed) then None
          else
            match List.rev a.a_change_points with
            | [] -> None
            | last :: rest ->
              let values = Array.map snd a.a_series.points in
              let n = Array.length values in
              let prev_start = match rest with p :: _ -> p | [] -> 0 in
              let record_idx = fst a.a_series.points.(last) in
              Some
                {
                  f_series = a.a_series.s_name;
                  f_index = record_idx;
                  f_rev = recs.(record_idx).History.host.Host.git_rev;
                  f_source = recs.(record_idx).History.source;
                  f_jobs = recs.(record_idx).History.jobs;
                  f_before = median (Array.sub values prev_start (last - prev_start));
                  f_after = median (Array.sub values last (n - last));
                })
        analyses
    in
    { g_exit = (if failures = [] then 0 else 1); g_failures = failures; g_analyses = analyses }
  end

(* ------------------------------------------------------------------ *)
(* Rendering: the one series table [rfh trend] prints and its
   dashboard renders.                                                  *)

let plural n = if n = 1 then "" else "s"

let table ~history_path ~rejected (records : History.t list) g =
  let recs = Array.of_list records in
  let title =
    Printf.sprintf "Trend over %d record%s (%s)%s" (Array.length recs)
      (plural (Array.length recs)) history_path
      (if rejected = 0 then ""
       else Printf.sprintf " — %d undecodable line%s skipped" rejected (plural rejected))
  in
  let t =
    Util.Table.create ~title
      ~columns:
        [ "series"; "n"; "median"; "MAD"; "latest"; "z"; "shift"; "verdict"; "change points";
          "trend" ]
  in
  List.iter
    (fun a ->
      let s = a.a_series in
      let values = Array.map snd s.points in
      Util.Table.add_row t
        [
          (s.s_name ^ if s.s_gated then "" else " (ungated)");
          string_of_int (Array.length values);
          Printf.sprintf "%.4g" a.a_median;
          Printf.sprintf "%.4g" a.a_mad;
          Printf.sprintf "%.4g" a.a_latest;
          Printf.sprintf "%.2f" a.a_latest_z;
          Printf.sprintf "%+.1f%%" (100.0 *. a.a_shift);
          verdict_name a.a_verdict;
          (match a.a_change_points with
          | [] -> "-"
          | cps ->
            String.concat ", "
              (List.map
                 (fun cp ->
                   let idx = fst s.points.(cp) in
                   Printf.sprintf "#%d@%s" idx (Host.short_rev recs.(idx).History.host.Host.git_rev))
                 cps));
          sparkline values;
        ])
    g.g_analyses;
  t
