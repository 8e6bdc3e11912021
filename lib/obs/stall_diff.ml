(* Per-cause stall-share and residency deltas between two manifests.
   Counts are exact integers out of the simulator; shares normalize
   each side by its own cycles x warps budget so a timing change does
   not masquerade as an attribution change. *)

type cause_delta = {
  cd_cause : string;
  cd_count_a : int;
  cd_count_b : int;
  cd_share_a : float;
  cd_share_b : float;
  cd_delta : float;
}

type sched_delta = {
  sd_entries : int * int;
  sd_exits : int * int;
  sd_resident_cycles : int * int;
  sd_mean_residency : float * float;
  sd_desched_long_latency : int * int;
  sd_desched_strand_boundary : int * int;
  sd_desched_bank_conflict : int * int;
}

type bench_diff = {
  sb_bench : string;
  sb_total_a : int;
  sb_total_b : int;
  sb_causes : cause_delta list;
  sb_sched : sched_delta;
}

type t = {
  s_benches : bench_diff list;
  s_only_a : string list;
  s_only_b : string list;
}

let total_of (b : Manifest.bench) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 b.Manifest.stalls

let share total n = if total = 0 then 0.0 else float_of_int n /. float_of_int total

let bench_diff (a : Manifest.bench) (b : Manifest.bench) =
  let ta = total_of a and tb = total_of b in
  (* Walk side a's cause order (the manifest order is fixed), then
     append causes only side b knows — schema drift must surface, not
     vanish. *)
  let causes =
    List.map
      (fun (cause, na) ->
        let nb = Option.value ~default:0 (List.assoc_opt cause b.Manifest.stalls) in
        {
          cd_cause = cause;
          cd_count_a = na;
          cd_count_b = nb;
          cd_share_a = share ta na;
          cd_share_b = share tb nb;
          cd_delta = share tb nb -. share ta na;
        })
      a.Manifest.stalls
    @ List.filter_map
        (fun (cause, nb) ->
          if List.mem_assoc cause a.Manifest.stalls then None
          else
            Some
              {
                cd_cause = cause;
                cd_count_a = 0;
                cd_count_b = nb;
                cd_share_a = 0.0;
                cd_share_b = share tb nb;
                cd_delta = share tb nb;
              })
        b.Manifest.stalls
  in
  let sa = a.Manifest.sched and sb = b.Manifest.sched in
  {
    sb_bench = a.Manifest.bench;
    sb_total_a = ta;
    sb_total_b = tb;
    sb_causes = causes;
    sb_sched =
      {
        sd_entries = (sa.Manifest.entries, sb.Manifest.entries);
        sd_exits = (sa.Manifest.exits, sb.Manifest.exits);
        sd_resident_cycles = (sa.Manifest.resident_cycles, sb.Manifest.resident_cycles);
        sd_mean_residency = (Manifest.mean_residency sa, Manifest.mean_residency sb);
        sd_desched_long_latency =
          (sa.Manifest.desched_long_latency, sb.Manifest.desched_long_latency);
        sd_desched_strand_boundary =
          (sa.Manifest.desched_strand_boundary, sb.Manifest.desched_strand_boundary);
        sd_desched_bank_conflict =
          (sa.Manifest.desched_bank_conflict, sb.Manifest.desched_bank_conflict);
      };
  }

let diff ~(baseline : Manifest.t) ~(current : Manifest.t) =
  let benches =
    List.filter_map
      (fun (a : Manifest.bench) ->
        match
          List.find_opt (fun (b : Manifest.bench) -> b.Manifest.bench = a.Manifest.bench)
            current.Manifest.benches
        with
        | Some b -> Some (bench_diff a b)
        | None -> None)
      baseline.Manifest.benches
  in
  let names m = List.map (fun (b : Manifest.bench) -> b.Manifest.bench) m.Manifest.benches in
  let only_a =
    List.filter (fun n -> not (List.mem n (names current))) (names baseline)
  in
  let only_b =
    List.filter (fun n -> not (List.mem n (names baseline))) (names current)
  in
  { s_benches = benches; s_only_a = only_a; s_only_b = only_b }

let check t =
  let bad = ref [] in
  let expect what ok = if not ok then bad := what :: !bad in
  List.iter
    (fun b ->
      let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 b.sb_causes in
      if b.sb_total_a > 0 then
        expect
          (Printf.sprintf "%s: baseline shares sum to 1" b.sb_bench)
          (Float.abs (sum (fun c -> c.cd_share_a) -. 1.0) <= 1e-9);
      if b.sb_total_b > 0 then
        expect
          (Printf.sprintf "%s: candidate shares sum to 1" b.sb_bench)
          (Float.abs (sum (fun c -> c.cd_share_b) -. 1.0) <= 1e-9);
      if b.sb_total_a > 0 && b.sb_total_b > 0 then
        expect
          (Printf.sprintf "%s: share deltas sum to 0" b.sb_bench)
          (Float.abs (sum (fun c -> c.cd_delta)) <= 1e-9);
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
    t.s_benches;
  List.rev !bad

let tables t =
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
              Printf.sprintf "%+.4g" (c.cd_delta *. 100.0);
            ])
        b.sb_causes;
      tbl)
    t.s_benches
