(* Allocation-decision explainer: one structured event per live-range
   candidate the allocator considered, recorded through Obs.Recorder. *)

type verdict =
  | Chosen
  | Ineligible of string
  | Negative_savings
  | No_free_slot

type candidate = {
  level : string;  (* "lrf" | "orf" *)
  savings : float;
  verdict : verdict;
}

type outcome =
  | To_lrf of { bank : int }
  | To_orf of { entry : int; shortened : int }
  | To_mrf

type decision = {
  seq : int;
  kernel : string;
  reg : string;
  kind : string;  (* "write_unit" | "read_unit" *)
  strand : int;
  width : int;
  first : int;
  last : int;
  defs : int list;
  covered : (int * int) list;
  dropped_reads : int;
  mrf_copy : bool;
  candidates : candidate list;
  outcome : outcome;
}

(* ------------------------------------------------------------------ *)
(* Derived views.                                                      *)

let placed d = match d.outcome with To_lrf _ | To_orf _ -> true | To_mrf -> false

let outcome_level d =
  match d.outcome with To_lrf _ -> "lrf" | To_orf _ -> "orf" | To_mrf -> "mrf"

type instr_line = {
  pc : int;
  strand : int;
  text : string;
  pj : float;
  share : float;  (* of the kernel's total register-file energy *)
}

type kernel_report = {
  kr_kernel : string;
  kr_decisions : decision list;
  kr_instrs : instr_line list;
  kr_total_pj : float;
}

(* ------------------------------------------------------------------ *)
(* Encoding.                                                           *)

(* A case with no field of its own. *)
let bare tag v = Json.(case tag (obj ()) (fun () -> v) (fun x -> if x = v then Some () else None))

let verdict_fields =
  Json.(
    tagged "verdict"
      [
        bare "chosen" Chosen;
        case "ineligible"
          (obj Fun.id |> req ~default:"" "why" str Fun.id)
          (fun why -> Ineligible why) (function Ineligible why -> Some why | _ -> None);
        bare "negative_savings" Negative_savings;
        bare "no_free_slot" No_free_slot;
      ])

let candidate_codec =
  Json.(
    obj (fun level savings verdict -> { level; savings; verdict })
    |> req "level" str (fun c -> c.level)
    |> req "savings" num (fun c -> c.savings)
    |> inline verdict_fields (fun c -> c.verdict)
    |> seal)

(* Fields that do not belong to the outcome's kind are ignored and
   missing ones read as 0: [make why-smoke] rewrites an ORF outcome's
   "to" in place and leaves its entry and shortening count behind. *)
let outcome_codec =
  Json.(
    seal
      (tagged "to"
         [
           case "lrf"
             (obj Fun.id |> req ~default:0 "bank" integer Fun.id)
             (fun bank -> To_lrf { bank }) (function To_lrf { bank } -> Some bank | _ -> None);
           case "orf"
             (obj (fun entry shortened -> (entry, shortened))
             |> req ~default:0 "entry" integer fst
             |> req ~default:0 "shortened" integer snd)
             (fun (entry, shortened) -> To_orf { entry; shortened })
             (function To_orf { entry; shortened } -> Some (entry, shortened) | _ -> None);
           bare "mrf" To_mrf;
         ]))

let codec =
  Json.(
    obj (fun seq kernel reg kind strand width first last defs covered dropped_reads mrf_copy
             candidates outcome ->
        { seq; kernel; reg; kind; strand; width; first; last; defs; covered; dropped_reads;
          mrf_copy; candidates; outcome })
    |> const "ev" (Str "decision")
    |> req "seq" integer (fun d -> d.seq)
    |> req "kernel" str (fun d -> d.kernel)
    |> req "reg" str (fun d -> d.reg)
    |> req "kind" str (fun d -> d.kind)
    |> req "strand" integer (fun (d : decision) -> d.strand) (* not [instr_line]'s *)
    |> req "width" integer (fun d -> d.width)
    |> req "first" integer (fun d -> d.first)
    |> req "last" integer (fun d -> d.last)
    |> req "defs" (list integer) (fun d -> d.defs)
    |> req "covered" (list (pair integer integer)) (fun d -> d.covered)
    |> req "dropped_reads" integer (fun d -> d.dropped_reads)
    |> req "mrf_copy" bool (fun d -> d.mrf_copy)
    |> req "candidates" (list candidate_codec) (fun d -> d.candidates)
    |> req "outcome" outcome_codec (fun d -> d.outcome)
    |> seal)

let to_json = Json.encode codec
let of_json = Json.decode codec

let verdict_name = function
  | Chosen -> "chosen"
  | Ineligible why -> "ineligible: " ^ why
  | Negative_savings -> "negative savings"
  | No_free_slot -> "no free slot"

let outcome_name d =
  match d.outcome with
  | To_lrf { bank } -> Printf.sprintf "LRF[%d]" bank
  | To_orf { entry; shortened } ->
    if shortened > 0 then Printf.sprintf "ORF[%d] (shortened x%d)" entry shortened
    else Printf.sprintf "ORF[%d]" entry
  | To_mrf -> "MRF"

let pp fmt d =
  let cand c =
    Printf.sprintf "%s %.2f (%s)" (String.uppercase_ascii c.level) c.savings
      (verdict_name c.verdict)
  in
  let outcome = "-> " ^ outcome_name d in
  Format.fprintf fmt "#%d %s %s %s strand %d [%d, %d) %d reads%s %s%s %s" d.seq d.kernel
    d.kind d.reg d.strand d.first d.last (List.length d.covered)
    (if d.dropped_reads > 0 then Printf.sprintf " (-%d dropped)" d.dropped_reads else "")
    (match d.candidates with
     | [] -> ""
     | cs -> "[" ^ String.concat "; " (List.map cand cs) ^ "] ")
    (if d.mrf_copy then "+MRF " else "")
    outcome

include Recorder.Make (struct
  type t = decision

  let name = "explain"
  let codec = codec
  let pp = pp
end)

(* ------------------------------------------------------------------ *)
(* The per-kernel decision table [rfh explain] prints and its
   --report-out page renders.                                          *)

let verdict_cell = function
  | None -> "-"
  | Some c -> (
    match c.verdict with
    | Chosen -> Printf.sprintf "chosen (%.1f pJ)" c.savings
    | Ineligible why -> "ineligible: " ^ why
    | Negative_savings -> Printf.sprintf "negative (%.1f pJ)" c.savings
    | No_free_slot -> Printf.sprintf "no slot (%.1f pJ)" c.savings)

let decision_table ~kernel ds =
  let t =
    Util.Table.create ~title:(Printf.sprintf "Decisions: %s" kernel)
      ~columns:[ "#"; "Value"; "Kind"; "Strand"; "Range"; "Reads"; "LRF"; "ORF"; "Outcome" ]
  in
  List.iter
    (fun d ->
      let cand lvl = List.find_opt (fun c -> c.level = lvl) d.candidates in
      let n = List.length d.covered in
      Util.Table.add_row t
        [
          string_of_int d.seq;
          (d.reg ^ if d.mrf_copy then " +mrf-copy" else "");
          d.kind;
          string_of_int d.strand;
          Printf.sprintf "[%d,%d)" d.first d.last;
          (if d.dropped_reads > 0 then Printf.sprintf "%d (-%d)" n d.dropped_reads
           else string_of_int n);
          verdict_cell (cand "lrf");
          verdict_cell (cand "orf");
          outcome_name d;
        ])
    ds;
  t

(* The top-[n] table [rfh explain] prints per kernel: instructions by
   attributed energy, highest first, ties by pc. *)
let top_table ~n (r : kernel_report) =
  let t =
    Util.Table.create
      ~title:(Printf.sprintf "Top %d instructions by attributed energy: %s" n r.kr_kernel)
      ~columns:[ "PC"; "Strand"; "Instruction"; "pJ"; "Share" ]
  in
  let ranked =
    List.stable_sort
      (fun a b -> match compare b.pj a.pj with 0 -> compare a.pc b.pc | c -> c)
      r.kr_instrs
  in
  List.iteri
    (fun i l ->
      if i < n then
        Util.Table.add_row t
          [
            string_of_int l.pc;
            string_of_int l.strand;
            l.text;
            Printf.sprintf "%.1f" l.pj;
            Printf.sprintf "%.1f%%" (100.0 *. l.share);
          ])
    ranked;
  t

let stats_checks ds (b : Manifest.bench) =
  let count p = List.length (List.filter p ds) in
  [
    ("decisions = write + read units", List.length ds, b.write_units + b.read_units);
    ("LRF placements", count (fun d -> match d.outcome with To_lrf _ -> true | _ -> false), b.lrf_allocs);
    ("ORF placements", count (fun d -> match d.outcome with To_orf _ -> true | _ -> false), b.orf_allocs);
    ( "partial (shortened) placements",
      count (fun d -> match d.outcome with To_orf { shortened; _ } -> shortened > 0 | _ -> false),
      b.partial_allocs );
  ]

let cross_check_table checks =
  let t =
    Util.Table.create ~title:"Cross-check vs run-manifest allocator stats"
      ~columns:[ "Check"; "Explainer"; "Manifest"; "" ]
  in
  List.iter
    (fun (what, got, want) ->
      Util.Table.add_row t
        [ what; string_of_int got; string_of_int want; (if got = want then "ok" else "MISMATCH") ])
    checks;
  t
