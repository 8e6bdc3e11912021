(* One value-trace fan-out per benchmark (each task forces only its
   own entry's kernels); the merges run serially in entry order, so
   the merged statistics match the serial run exactly. *)
let traces (opts : Options.t) =
  Sweep.per_bench opts (fun (e : Workloads.Registry.entry) ->
      ( e.Workloads.Registry.suite,
        List.map
          (Sim.Value_trace.collect ~warps:(min 4 opts.Options.warps) ~seed:opts.Options.seed)
          (Lazy.force e.Workloads.Registry.kernels) ))

let percent_row stats bucket_of buckets =
  let h = bucket_of stats in
  List.map (fun pred -> 100.0 *. Util.Stats.hfraction h pred) buckets

let tables opts =
  (* One trace collection per benchmark feeds both tables, merged per
     suite present in the selection. *)
  let traces = traces opts in
  let stats_by_suite =
    List.filter_map
      (fun s ->
        match List.filter (fun (s', _) -> s' = s) traces with
        | [] -> None
        | mine -> Some (s, Sim.Value_trace.merge (List.concat_map snd mine)))
      Workloads.Suite.all
  in
  let reads_table =
    let t =
      Util.Table.create ~title:"Figure 2(a): percent of all values, by times read"
        ~columns:[ "Suite"; "Read 0"; "Read 1"; "Read 2"; "Read >2" ]
    in
    List.iter
      (fun (s, stats) ->
        let row =
          percent_row stats
            (fun st -> st.Sim.Value_trace.read_counts)
            [ (fun n -> n = 0); (fun n -> n = 1); (fun n -> n = 2); (fun n -> n > 2) ]
        in
        Util.Table.add_float_row t (Workloads.Suite.name s) ~decimals:1 row)
      stats_by_suite;
    t
  in
  let lifetime_table =
    let t =
      Util.Table.create
        ~title:"Figure 2(b): lifetime (instructions) of values read exactly once (percent)"
        ~columns:[ "Suite"; "Lifetime 1"; "Lifetime 2"; "Lifetime 3"; "Lifetime >3" ]
    in
    List.iter
      (fun (s, stats) ->
        let row =
          percent_row stats
            (fun st -> st.Sim.Value_trace.lifetimes_read_once)
            [ (fun n -> n = 1); (fun n -> n = 2); (fun n -> n = 3); (fun n -> n > 3) ]
        in
        Util.Table.add_float_row t (Workloads.Suite.name s) ~decimals:1 row)
      stats_by_suite;
    t
  in
  [ reads_table; lifetime_table ]

let read_once_fraction opts =
  let stats = Sim.Value_trace.merge (List.concat_map snd (traces opts)) in
  Util.Stats.hfraction stats.Sim.Value_trace.read_counts (fun n -> n = 1)
