type level = Lrf | Orf | Mrf | Rfc

type cause = Sw_boundary | Hw_dependence | Bank_conflict | Scheduler

type unit_kind = Write_unit | Read_unit

type event =
  | Alloc of {
      reg : string;
      kind : unit_kind;
      strand : int;
      level : level;
      slot : int;
      first : int;
      last : int;
      reads : int;
      savings : float;
      partial : bool;
      mrf_copy : bool;
    }
  | Place of { warp : int; instr : int; level : level }
  | Fill of { warp : int; instr : int; pos : int; entry : int }
  | Evict of { warp : int; instr : int; level : level; writeback : bool }
  | Strand_boundary of { instr : int; strand : int }
  | Desched of { warp : int; instr : int; cause : cause }

(* ------------------------------------------------------------------ *)
(* Encoding.                                                           *)

let level_name = function Lrf -> "lrf" | Orf -> "orf" | Mrf -> "mrf" | Rfc -> "rfc"

let level_of_name = function
  | "lrf" -> Some Lrf
  | "orf" -> Some Orf
  | "mrf" -> Some Mrf
  | "rfc" -> Some Rfc
  | _ -> None

let cause_name = function
  | Sw_boundary -> "sw_boundary"
  | Hw_dependence -> "hw_dependence"
  | Bank_conflict -> "bank_conflict"
  | Scheduler -> "scheduler"

let cause_of_name = function
  | "sw_boundary" -> Some Sw_boundary
  | "hw_dependence" -> Some Hw_dependence
  | "bank_conflict" -> Some Bank_conflict
  | "scheduler" -> Some Scheduler
  | _ -> None

let kind_name = function Write_unit -> "write_unit" | Read_unit -> "read_unit"

let kind_of_name = function
  | "write_unit" -> Some Write_unit
  | "read_unit" -> Some Read_unit
  | _ -> None

let to_json = function
  | Alloc a ->
    Json.Obj
      [
        ("ev", Json.Str "alloc");
        ("reg", Json.Str a.reg);
        ("kind", Json.Str (kind_name a.kind));
        ("strand", Json.int a.strand);
        ("level", Json.Str (level_name a.level));
        ("slot", Json.int a.slot);
        ("first", Json.int a.first);
        ("last", Json.int a.last);
        ("reads", Json.int a.reads);
        ("savings", Json.Num a.savings);
        ("partial", Json.Bool a.partial);
        ("mrf_copy", Json.Bool a.mrf_copy);
      ]
  | Place p ->
    Json.Obj
      [
        ("ev", Json.Str "place");
        ("warp", Json.int p.warp);
        ("instr", Json.int p.instr);
        ("level", Json.Str (level_name p.level));
      ]
  | Fill f ->
    Json.Obj
      [
        ("ev", Json.Str "fill");
        ("warp", Json.int f.warp);
        ("instr", Json.int f.instr);
        ("pos", Json.int f.pos);
        ("entry", Json.int f.entry);
      ]
  | Evict e ->
    Json.Obj
      [
        ("ev", Json.Str "evict");
        ("warp", Json.int e.warp);
        ("instr", Json.int e.instr);
        ("level", Json.Str (level_name e.level));
        ("writeback", Json.Bool e.writeback);
      ]
  | Strand_boundary s ->
    Json.Obj
      [
        ("ev", Json.Str "strand_boundary");
        ("instr", Json.int s.instr);
        ("strand", Json.int s.strand);
      ]
  | Desched d ->
    Json.Obj
      [
        ("ev", Json.Str "desched");
        ("warp", Json.int d.warp);
        ("instr", Json.int d.instr);
        ("cause", Json.Str (cause_name d.cause));
      ]

let of_json j =
  let ( let* ) = Result.bind in
  let field name conv = Json.field "audit event" j name conv in
  let int_f name = field name Json.to_int in
  let str_f name = field name Json.to_str in
  let bool_f name = field name Json.to_bool in
  let num_f name = field name Json.to_num in
  let level_f name = field name (fun v -> Option.bind (Json.to_str v) level_of_name) in
  let* ev = str_f "ev" in
  match ev with
  | "alloc" ->
    let* reg = str_f "reg" in
    let* kind = field "kind" (fun v -> Option.bind (Json.to_str v) kind_of_name) in
    let* strand = int_f "strand" in
    let* level = level_f "level" in
    let* slot = int_f "slot" in
    let* first = int_f "first" in
    let* last = int_f "last" in
    let* reads = int_f "reads" in
    let* savings = num_f "savings" in
    let* partial = bool_f "partial" in
    let* mrf_copy = bool_f "mrf_copy" in
    Ok (Alloc { reg; kind; strand; level; slot; first; last; reads; savings; partial; mrf_copy })
  | "place" ->
    let* warp = int_f "warp" in
    let* instr = int_f "instr" in
    let* level = level_f "level" in
    Ok (Place { warp; instr; level })
  | "fill" ->
    let* warp = int_f "warp" in
    let* instr = int_f "instr" in
    let* pos = int_f "pos" in
    let* entry = int_f "entry" in
    Ok (Fill { warp; instr; pos; entry })
  | "evict" ->
    let* warp = int_f "warp" in
    let* instr = int_f "instr" in
    let* level = level_f "level" in
    let* writeback = bool_f "writeback" in
    Ok (Evict { warp; instr; level; writeback })
  | "strand_boundary" ->
    let* instr = int_f "instr" in
    let* strand = int_f "strand" in
    Ok (Strand_boundary { instr; strand })
  | "desched" ->
    let* warp = int_f "warp" in
    let* instr = int_f "instr" in
    let* cause = field "cause" (fun v -> Option.bind (Json.to_str v) cause_of_name) in
    Ok (Desched { warp; instr; cause })
  | other -> Error (Printf.sprintf "audit event: unknown kind %S" other)

let pp fmt = function
  | Alloc a ->
    Format.fprintf fmt "%s %s -> %s[%d] strand %d [%d, %d) %d reads, savings %.2f%s%s"
      (kind_name a.kind) a.reg
      (String.uppercase_ascii (level_name a.level))
      a.slot a.strand a.first a.last a.reads a.savings
      (if a.partial then ", partial range" else "")
      (if a.mrf_copy then ", +MRF" else "")
  | Place p ->
    Format.fprintf fmt "place warp %d instr %d -> %s" p.warp p.instr
      (String.uppercase_ascii (level_name p.level))
  | Fill f ->
    Format.fprintf fmt "fill warp %d instr %d slot %d -> ORF[%d]" f.warp f.instr f.pos f.entry
  | Evict e ->
    Format.fprintf fmt "evict warp %d instr %d %s%s" e.warp e.instr
      (String.uppercase_ascii (level_name e.level))
      (if e.writeback then " (writeback)" else " (dead)")
  | Strand_boundary s -> Format.fprintf fmt "strand %d starts at instr %d" s.strand s.instr
  | Desched d ->
    Format.fprintf fmt "desched warp %d at instr %d (%s)" d.warp d.instr (cause_name d.cause)

include Recorder.Make (struct
  type t = event

  let name = "audit"
  let to_json = to_json
  let of_json = of_json
  let pp = pp
end)

let summary_table events ~expected =
  let t =
    Util.Table.create ~title:"Audit log summary"
      ~columns:[ "Events"; "Count"; "Cross-check (Energy.Counts writes)" ]
  in
  let count p = List.length (List.filter p events) in
  let checks =
    List.map
      (fun level ->
        let got = count (function Place p -> p.level = level | _ -> false) and want = expected level in
        Util.Table.add_row t
          [
            "place." ^ level_name level;
            string_of_int got;
            Printf.sprintf "%d (%s)" want (if got = want then "ok" else "MISMATCH");
          ];
        (level, got = want))
      [ Lrf; Orf; Mrf; Rfc ]
  in
  List.iter
    (fun (name, p) -> Util.Table.add_row t [ name; string_of_int (count p); "" ])
    [
      ("alloc", function Alloc _ -> true | _ -> false);
      ("desched", function Desched _ -> true | _ -> false);
      ("evict", function Evict _ -> true | _ -> false);
      ("total", fun _ -> true);
    ];
  (t, checks)
