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

let verdict_to_json = function
  | Chosen -> Json.Obj [ ("verdict", Json.Str "chosen") ]
  | Ineligible why ->
    Json.Obj [ ("verdict", Json.Str "ineligible"); ("why", Json.Str why) ]
  | Negative_savings -> Json.Obj [ ("verdict", Json.Str "negative_savings") ]
  | No_free_slot -> Json.Obj [ ("verdict", Json.Str "no_free_slot") ]

let verdict_of_json j =
  match Option.bind (Json.member "verdict" j) Json.to_str with
  | Some "chosen" -> Ok Chosen
  | Some "ineligible" ->
    Ok (Ineligible (Option.value ~default:"" (Option.bind (Json.member "why" j) Json.to_str)))
  | Some "negative_savings" -> Ok Negative_savings
  | Some "no_free_slot" -> Ok No_free_slot
  | Some other -> Error (Printf.sprintf "explain: unknown verdict %S" other)
  | None -> Error "explain: missing verdict"

let candidate_to_json c =
  match verdict_to_json c.verdict with
  | Json.Obj fields ->
    Json.Obj (("level", Json.Str c.level) :: ("savings", Json.Num c.savings) :: fields)
  | _ -> assert false

let candidate_of_json j =
  let ( let* ) = Result.bind in
  let* level =
    match Option.bind (Json.member "level" j) Json.to_str with
    | Some l -> Ok l
    | None -> Error "explain: candidate missing level"
  in
  let* savings =
    match Option.bind (Json.member "savings" j) Json.to_num with
    | Some s -> Ok s
    | None -> Error "explain: candidate missing savings"
  in
  let* verdict = verdict_of_json j in
  Ok { level; savings; verdict }

let outcome_to_json = function
  | To_lrf { bank } -> Json.Obj [ ("to", Json.Str "lrf"); ("bank", Json.int bank) ]
  | To_orf { entry; shortened } ->
    Json.Obj
      [ ("to", Json.Str "orf"); ("entry", Json.int entry); ("shortened", Json.int shortened) ]
  | To_mrf -> Json.Obj [ ("to", Json.Str "mrf") ]

let outcome_of_json j =
  let int_d name = Option.value ~default:0 (Option.bind (Json.member name j) Json.to_int) in
  match Option.bind (Json.member "to" j) Json.to_str with
  | Some "lrf" -> Ok (To_lrf { bank = int_d "bank" })
  | Some "orf" -> Ok (To_orf { entry = int_d "entry"; shortened = int_d "shortened" })
  | Some "mrf" -> Ok To_mrf
  | Some other -> Error (Printf.sprintf "explain: unknown outcome %S" other)
  | None -> Error "explain: missing outcome"

let to_json d =
  Json.Obj
    [
      ("ev", Json.Str "decision");
      ("seq", Json.int d.seq);
      ("kernel", Json.Str d.kernel);
      ("reg", Json.Str d.reg);
      ("kind", Json.Str d.kind);
      ("strand", Json.int d.strand);
      ("width", Json.int d.width);
      ("first", Json.int d.first);
      ("last", Json.int d.last);
      ("defs", Json.Arr (List.map Json.int d.defs));
      ( "covered",
        Json.Arr
          (List.map
             (fun (instr, slot) -> Json.Arr [ Json.int instr; Json.int slot ])
             d.covered) );
      ("dropped_reads", Json.int d.dropped_reads);
      ("mrf_copy", Json.Bool d.mrf_copy);
      ("candidates", Json.Arr (List.map candidate_to_json d.candidates));
      ("outcome", outcome_to_json d.outcome);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let field name conv = Json.field "explain" j name conv in
  let* seq = field "seq" Json.to_int in
  let* kernel = field "kernel" Json.to_str in
  let* reg = field "reg" Json.to_str in
  let* kind = field "kind" Json.to_str in
  let* strand = field "strand" Json.to_int in
  let* width = field "width" Json.to_int in
  let* first = field "first" Json.to_int in
  let* last = field "last" Json.to_int in
  let* defs_j = field "defs" Json.to_list in
  let* defs =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        match Json.to_int v with
        | Some i -> Ok (i :: acc)
        | None -> Error "explain: non-integer def")
      (Ok []) defs_j
    |> Result.map List.rev
  in
  let* covered_j = field "covered" Json.to_list in
  let* covered =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        match Option.map (List.filter_map Json.to_int) (Json.to_list v) with
        | Some [ instr; slot ] -> Ok ((instr, slot) :: acc)
        | _ -> Error "explain: ill-formed covered read")
      (Ok []) covered_j
    |> Result.map List.rev
  in
  let* dropped_reads = field "dropped_reads" Json.to_int in
  let* mrf_copy = field "mrf_copy" Json.to_bool in
  let* cands_j = field "candidates" Json.to_list in
  let* candidates =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        let* c = candidate_of_json v in
        Ok (c :: acc))
      (Ok []) cands_j
    |> Result.map List.rev
  in
  let* outcome = Result.bind (field "outcome" Option.some) outcome_of_json in
  Ok
    {
      seq;
      kernel;
      reg;
      kind;
      strand;
      width;
      first;
      last;
      defs;
      covered;
      dropped_reads;
      mrf_copy;
      candidates;
      outcome;
    }

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
  let to_json = to_json
  let of_json = of_json
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
