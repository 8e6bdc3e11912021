(* [bmk compare A B]: two sets of runs, one JSON record per line (the
   [--json-out] files), compared per workload and end-to-end metric
   against the bounds in BENCHMARK.json: B fails when its median is
   worse than A's by more than the bound.  Run it both ways to check
   that two sets of the same code agree. *)

let read_lines path = In_channel.with_open_text path In_channel.input_lines

let parse_exn what s =
  match Obs.Json.parse s with Ok j -> j | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let field what k j =
  match Obs.Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing %S" what k)

type bound = { metric : string; lower_is_better : bool; bound : float }

let bounds path =
  let j = parse_exn path (In_channel.with_open_text path In_channel.input_all) in
  List.map
    (fun e ->
      {
        metric = Option.get (Obs.Json.to_str (field path "name" e));
        lower_is_better = Obs.Json.to_str (field path "better" e) = Some "lower";
        bound = Option.get (Obs.Json.to_num (field path "bound" e));
      })
    (Option.value ~default:[] (Obs.Json.to_list (field path "end_to_end" j)))

(* Untraced records only: (workload, metric name -> value). *)
let records path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        let j = parse_exn path line in
        if Obs.Json.to_bool (field path "trace" j) = Some true then None
        else
          let metrics =
            match field path "metrics" j with
            | Obs.Json.Obj fs ->
              List.filter_map
                (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Obs.Json.member "value" v) Obs.Json.to_num))
                fs
            | _ -> []
          in
          Some (Option.get (Obs.Json.to_str (field path "workload" j)), metrics))
    (read_lines path)

let spread xs =
  match Runner.quartiles xs with
  | Some (q1, q2, q3) -> Util.Stats.ratio (q3 -. q1) q2
  | None -> 0.0

let values recs w name =
  List.filter_map (fun (w', ms) -> if w' = w then List.assoc_opt name ms else None) recs

let pct x = Printf.sprintf "%.1f" (100.0 *. x)

(* Exit status: 0 when no median got worse by more than its bound. *)
let run ~bench a b =
  let bounds = bounds bench and ra = records a and rb = records b in
  let workloads = List.sort_uniq compare (List.map fst ra) in
  let t =
    Util.Table.create ~title:(Printf.sprintf "%s vs %s (bounds from %s)" a b bench)
      ~columns:
        [ "Workload"; "Metric"; "n A"; "Median A"; "IQR A %"; "n B"; "Median B"; "IQR B %"; "Change %";
          "Bound %"; "Verdict" ]
  in
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun { metric; lower_is_better; bound } ->
          let va = values ra w metric and vb = values rb w metric in
          let ma = Runner.median va and mb = Runner.median vb in
          let change = Util.Stats.ratio (mb -. ma) ma in
          let worse = if lower_is_better then change else -.change in
          let verdict =
            if va = [] || vb = [] then "missing"
            else if worse > bound then "WORSE"
            else if Float.max (spread va) (spread vb) > bound /. 3.0 then "ok, noisy"
            else "ok"
          in
          if verdict = "missing" || verdict = "WORSE" then ok := false;
          Util.Table.add_row t
            [ w; metric; string_of_int (List.length va); Printf.sprintf "%.6g" ma; pct (spread va);
              string_of_int (List.length vb); Printf.sprintf "%.6g" mb; pct (spread vb); pct change;
              pct bound; verdict ])
        bounds)
    workloads;
  Util.Table.print t;
  if !ok then 0 else 1
