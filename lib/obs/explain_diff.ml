(* Differential alignment of two Obs.Explain decision streams.  The
   whole pipeline is deterministic: inputs are sorted by (kernel, seq)
   up front, the pairing walk is a single ordered pass, and every
   derived list keeps a fixed, comparison-defined order — so two
   invocations over the same streams render byte-identical tables no
   matter how the files were produced. *)

type key = {
  k_kernel : string;
  k_kind : string;
  k_reg : string;
  k_strand : int;
  k_first : int;
  k_occurrence : int;
}

type flip =
  | Level_changed of { from_level : string; to_level : string }
  | Verdict_changed of { level : string; was : string; now : string }
  | Savings_changed of { level : string; was : float; now : float }
  | Coverage_changed of {
      covered_was : int;
      covered_now : int;
      dropped_was : int;
      dropped_now : int;
    }

type pair = {
  p_key : key;
  p_a : Explain.decision;
  p_b : Explain.decision;
  p_flips : flip list;
}

type move = { m_from : string; m_to : string; m_count : int; m_savings_delta : float }

type kernel_stats = {
  ks_kernel : string;
  ks_aligned : int;
  ks_changed : int;
  ks_moves : move list;
  ks_verdict_flips : int;
  ks_savings_delta : float;
  ks_covered_delta : int;
  ks_dropped_delta : int;
  ks_only_a : int;
  ks_only_b : int;
}

type t = {
  d_pairs : pair list;
  d_only_a : Explain.decision list;
  d_only_b : Explain.decision list;
  d_kernels : kernel_stats list;
  d_total_a : int;
  d_total_b : int;
  d_aligned : int;
}

(* ------------------------------------------------------------------ *)
(* Keys and ordering.                                                  *)

let sort_decisions ds =
  List.stable_sort
    (fun (a : Explain.decision) (b : Explain.decision) ->
      compare (a.kernel, a.seq) (b.kernel, b.seq))
    ds

(* Occurrence indices disambiguate a register re-used with the same
   (kind, strand, first) — rare, but alignment must never silently drop
   a decision over it.  Assigned in sorted order, so both sides number
   identical shapes identically. *)
let keyed ds =
  let seen = Hashtbl.create 64 in
  List.map
    (fun (d : Explain.decision) ->
      let base = (d.Explain.kernel, d.Explain.kind, d.Explain.reg, d.Explain.strand, d.Explain.first) in
      let occ = try Hashtbl.find seen base with Not_found -> 0 in
      Hashtbl.replace seen base (occ + 1);
      ( {
          k_kernel = d.Explain.kernel;
          k_kind = d.Explain.kind;
          k_reg = d.Explain.reg;
          k_strand = d.Explain.strand;
          k_first = d.Explain.first;
          k_occurrence = occ;
        },
        d ))
    (sort_decisions ds)

(* ------------------------------------------------------------------ *)
(* Pair classification.                                                *)

let verdict_tag = function
  | Explain.Chosen -> "chosen"
  | Explain.Ineligible _ -> "ineligible"
  | Explain.Negative_savings -> "negative_savings"
  | Explain.No_free_slot -> "no_free_slot"

let chosen_savings (d : Explain.decision) =
  match
    List.find_opt (fun (c : Explain.candidate) -> c.Explain.verdict = Explain.Chosen)
      d.Explain.candidates
  with
  | Some c -> c.Explain.savings
  | None -> 0.0

let candidate_of level (d : Explain.decision) =
  List.find_opt (fun (c : Explain.candidate) -> c.Explain.level = level) d.Explain.candidates

let flips_of (a : Explain.decision) (b : Explain.decision) =
  let level_flip =
    let la = Explain.outcome_level a and lb = Explain.outcome_level b in
    if la <> lb then [ Level_changed { from_level = la; to_level = lb } ] else []
  in
  let levels =
    List.sort_uniq compare
      (List.map (fun (c : Explain.candidate) -> c.level) (a.candidates @ b.candidates))
  in
  let candidate_flips =
    List.concat_map
      (fun level ->
        match (candidate_of level a, candidate_of level b) with
        | Some ca, Some cb ->
          let v =
            if verdict_tag ca.Explain.verdict <> verdict_tag cb.Explain.verdict then
              [
                Verdict_changed
                  {
                    level;
                    was = verdict_tag ca.Explain.verdict;
                    now = verdict_tag cb.Explain.verdict;
                  };
              ]
            else []
          in
          let s =
            let was = ca.Explain.savings and now = cb.Explain.savings in
            if Float.abs (Util.Stats.rel_delta was now) > Json.float_tol then
              [ Savings_changed { level; was; now } ]
            else []
          in
          v @ s
        | Some ca, None ->
          [ Verdict_changed { level; was = verdict_tag ca.Explain.verdict; now = "absent" } ]
        | None, Some cb ->
          [ Verdict_changed { level; was = "absent"; now = verdict_tag cb.Explain.verdict } ]
        | None, None -> [])
      levels
  in
  let coverage =
    let ca = List.length a.Explain.covered and cb = List.length b.Explain.covered in
    if ca <> cb || a.Explain.dropped_reads <> b.Explain.dropped_reads then
      [
        Coverage_changed
          {
            covered_was = ca;
            covered_now = cb;
            dropped_was = a.Explain.dropped_reads;
            dropped_now = b.Explain.dropped_reads;
          };
      ]
    else []
  in
  level_flip @ candidate_flips @ coverage

(* ------------------------------------------------------------------ *)
(* Alignment.                                                          *)

let align ~a ~b =
  let ka = keyed a and kb = keyed b in
  let index_a = Hashtbl.create 256 in
  List.iter (fun (k, d) -> Hashtbl.replace index_a k d) ka;
  let pairs = ref [] and only_b = ref [] and aligned = ref 0 in
  List.iter
    (fun (k, db) ->
      match Hashtbl.find_opt index_a k with
      | Some da ->
        Hashtbl.remove index_a k;
        incr aligned;
        let flips = flips_of da db in
        if flips <> [] then pairs := { p_key = k; p_a = da; p_b = db; p_flips = flips } :: !pairs
      | None -> only_b := db :: !only_b)
    kb;
  (* Leftovers of a, kept in a's deterministic (kernel, seq) order. *)
  let only_a = List.filter_map (fun (k, d) -> if Hashtbl.mem index_a k then Some d else None) ka in
  let pairs = List.rev !pairs and only_b = List.rev !only_b in
  (* Per-kernel aggregation, kernels in name order. *)
  let kernels =
    List.map
      (fun kernel ->
        let kp = List.filter (fun p -> p.p_key.k_kernel = kernel) pairs in
        let in_kernel (d : Explain.decision) = d.kernel = kernel in
        let count ds = List.length (List.filter in_kernel ds) in
        let only_a_k = count only_a in
        let moves =
          List.fold_left
            (fun acc p ->
              List.fold_left
                (fun acc flip ->
                  match flip with
                  | Level_changed { from_level; to_level } ->
                    let delta = chosen_savings p.p_b -. chosen_savings p.p_a in
                    let rec bump = function
                      | [] -> [ { m_from = from_level; m_to = to_level; m_count = 1; m_savings_delta = delta } ]
                      | m :: tl when m.m_from = from_level && m.m_to = to_level ->
                        { m with m_count = m.m_count + 1; m_savings_delta = m.m_savings_delta +. delta }
                        :: tl
                      | m :: tl -> m :: bump tl
                    in
                    bump acc
                  | _ -> acc)
                acc p.p_flips)
            [] kp
          |> List.sort (fun a b -> compare (a.m_from, a.m_to) (b.m_from, b.m_to))
        in
        let verdict_flips =
          List.length
            (List.filter
               (function Verdict_changed _ -> true | _ -> false)
               (List.concat_map (fun p -> p.p_flips) kp))
        in
        let covered_delta, dropped_delta =
          List.fold_left
            (fun (dc, dd) p ->
              ( dc + List.length p.p_b.Explain.covered - List.length p.p_a.Explain.covered,
                dd + p.p_b.Explain.dropped_reads - p.p_a.Explain.dropped_reads ))
            (0, 0) kp
        in
        let savings_delta =
          List.fold_left (fun acc p -> acc +. (chosen_savings p.p_b -. chosen_savings p.p_a)) 0.0 kp
        in
        {
          ks_kernel = kernel;
          ks_aligned = count (List.map snd ka) - only_a_k;
          ks_changed = List.length kp;
          ks_moves = moves;
          ks_verdict_flips = verdict_flips;
          ks_savings_delta = savings_delta;
          ks_covered_delta = covered_delta;
          ks_dropped_delta = dropped_delta;
          ks_only_a = only_a_k;
          ks_only_b = count only_b;
        })
      (List.sort_uniq compare (List.map (fun ((k : key), _) -> k.k_kernel) (ka @ kb)))
  in
  {
    d_pairs = pairs;
    d_only_a = only_a;
    d_only_b = only_b;
    d_kernels = kernels;
    d_total_a = List.length a;
    d_total_b = List.length b;
    d_aligned = !aligned;
  }

(* ------------------------------------------------------------------ *)
(* Rendering helpers and the accounting self-check.                    *)

let flip_name = function
  | Level_changed { from_level; to_level } ->
    Printf.sprintf "moved %s -> %s" from_level to_level
  | Verdict_changed { level; was; now } ->
    Printf.sprintf "%s verdict %s -> %s" level was now
  | Savings_changed { level; was; now } ->
    Printf.sprintf "%s savings %.4g -> %.4g pJ" level was now
  | Coverage_changed { covered_was; covered_now; dropped_was; dropped_now } ->
    Printf.sprintf "coverage %d -> %d reads (dropped %d -> %d)" covered_was covered_now
      dropped_was dropped_now

let check t =
  let bad = ref [] in
  let expect what ok = if not ok then bad := what :: !bad in
  expect "aligned + only_a = total_a" (t.d_aligned + List.length t.d_only_a = t.d_total_a);
  expect "aligned + only_b = total_b" (t.d_aligned + List.length t.d_only_b = t.d_total_b);
  let sum f = List.fold_left (fun acc k -> acc + f k) 0 t.d_kernels in
  expect "kernel aligned sums to total aligned" (sum (fun k -> k.ks_aligned) = t.d_aligned);
  expect "kernel changed sums to changed pairs"
    (sum (fun k -> k.ks_changed) = List.length t.d_pairs);
  expect "kernel only_a sums" (sum (fun k -> k.ks_only_a) = List.length t.d_only_a);
  expect "kernel only_b sums" (sum (fun k -> k.ks_only_b) = List.length t.d_only_b);
  (* Every level flip lands in exactly one move bucket. *)
  let level_flips =
    List.fold_left
      (fun acc p ->
        acc + List.length (List.filter (function Level_changed _ -> true | _ -> false) p.p_flips))
      0 t.d_pairs
  in
  let bucketed = sum (fun k -> List.fold_left (fun acc m -> acc + m.m_count) 0 k.ks_moves) in
  expect "move buckets reproduce level flips" (bucketed = level_flips);
  List.iter
    (fun p -> expect "changed pair has at least one flip" (p.p_flips <> []))
    t.d_pairs;
  List.rev !bad

let tables t =
  let kt =
    Util.Table.create
      ~title:
        (Printf.sprintf
           "Allocation decision diff: %d vs %d decisions, %d aligned, %d changed, %d / %d unmatched"
           t.d_total_a t.d_total_b t.d_aligned (List.length t.d_pairs) (List.length t.d_only_a)
           (List.length t.d_only_b))
      ~columns:
        [ "kernel"; "aligned"; "changed"; "moves"; "verdict flips"; "savings Δ (pJ)"; "dropped Δ" ]
  in
  List.iter
    (fun k ->
      Util.Table.add_row kt
        [
          k.ks_kernel;
          string_of_int k.ks_aligned;
          string_of_int k.ks_changed;
          (if k.ks_moves = [] then "-"
           else
             String.concat ", "
               (List.map (fun m -> Printf.sprintf "%s→%s ×%d" m.m_from m.m_to m.m_count) k.ks_moves));
          string_of_int k.ks_verdict_flips;
          Printf.sprintf "%+.4g" k.ks_savings_delta;
          Printf.sprintf "%+d" k.ks_dropped_delta;
        ])
    t.d_kernels;
  let pt =
    Util.Table.create ~title:"Changed live ranges"
      ~columns:[ "kernel"; "kind"; "reg"; "strand"; "first"; "flips" ]
  in
  List.iter
    (fun p ->
      let k = p.p_key in
      Util.Table.add_row pt
        [
          k.k_kernel;
          k.k_kind;
          k.k_reg;
          string_of_int k.k_strand;
          string_of_int k.k_first;
          String.concat "; " (List.map flip_name p.p_flips);
        ])
    t.d_pairs;
  [ kt; pt ]
