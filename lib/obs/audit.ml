type level = Lrf | Orf | Mrf | Rfc

type cause = Sw_boundary | Hw_dependence | Bank_conflict | Scheduler

type unit_kind = Write_unit | Read_unit

type alloc = {
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

type place = { warp : int; instr : int; level : level }
type fill = { warp : int; instr : int; pos : int; entry : int }
type evict = { warp : int; instr : int; level : level; writeback : bool }
type strand_boundary = { instr : int; strand : int }
type desched = { warp : int; instr : int; cause : cause }

type event =
  | Alloc of alloc
  | Place of place
  | Fill of fill
  | Evict of evict
  | Strand_boundary of strand_boundary
  | Desched of desched

(* ------------------------------------------------------------------ *)
(* Encoding.                                                           *)

let level_name = function Lrf -> "lrf" | Orf -> "orf" | Mrf -> "mrf" | Rfc -> "rfc"

let cause_name = function
  | Sw_boundary -> "sw_boundary"
  | Hw_dependence -> "hw_dependence"
  | Bank_conflict -> "bank_conflict"
  | Scheduler -> "scheduler"

let kind_name = function Write_unit -> "write_unit" | Read_unit -> "read_unit"

(* A getter of a label several shapes share (warp, instr, level,
   strand) names its record type. *)
let codec =
  let level = Json.enum level_name [ Lrf; Orf; Mrf; Rfc ] in
  Json.(
    seal
      (tagged "ev"
         [
           case "alloc"
             (obj (fun reg kind strand level slot first last reads savings partial mrf_copy ->
                  { reg; kind; strand; level; slot; first; last; reads; savings; partial; mrf_copy })
             |> req "reg" str (fun a -> a.reg)
             |> req "kind" (enum kind_name [ Write_unit; Read_unit ]) (fun a -> a.kind)
             |> req "strand" integer (fun (a : alloc) -> a.strand)
             |> req "level" level (fun (a : alloc) -> a.level)
             |> req "slot" integer (fun a -> a.slot)
             |> req "first" integer (fun a -> a.first)
             |> req "last" integer (fun a -> a.last)
             |> req "reads" integer (fun a -> a.reads)
             |> req "savings" num (fun a -> a.savings)
             |> req "partial" bool (fun a -> a.partial)
             |> req "mrf_copy" bool (fun a -> a.mrf_copy))
             (fun a -> Alloc a) (function Alloc a -> Some a | _ -> None);
           case "place"
             (obj (fun warp instr level -> { warp; instr; level })
             |> req "warp" integer (fun (p : place) -> p.warp)
             |> req "instr" integer (fun (p : place) -> p.instr)
             |> req "level" level (fun (p : place) -> p.level))
             (fun p -> Place p) (function Place p -> Some p | _ -> None);
           case "fill"
             (obj (fun warp instr pos entry -> { warp; instr; pos; entry })
             |> req "warp" integer (fun (f : fill) -> f.warp)
             |> req "instr" integer (fun (f : fill) -> f.instr)
             |> req "pos" integer (fun f -> f.pos)
             |> req "entry" integer (fun f -> f.entry))
             (fun f -> Fill f) (function Fill f -> Some f | _ -> None);
           case "evict"
             (obj (fun warp instr level writeback -> { warp; instr; level; writeback })
             |> req "warp" integer (fun (e : evict) -> e.warp)
             |> req "instr" integer (fun (e : evict) -> e.instr)
             |> req "level" level (fun (e : evict) -> e.level)
             |> req "writeback" bool (fun e -> e.writeback))
             (fun e -> Evict e) (function Evict e -> Some e | _ -> None);
           case "strand_boundary"
             (obj (fun instr strand -> { instr; strand })
             |> req "instr" integer (fun (s : strand_boundary) -> s.instr)
             |> req "strand" integer (fun (s : strand_boundary) -> s.strand))
             (fun s -> Strand_boundary s) (function Strand_boundary s -> Some s | _ -> None);
           case "desched"
             (obj (fun warp instr cause -> { warp; instr; cause })
             |> req "warp" integer (fun (d : desched) -> d.warp)
             |> req "instr" integer (fun (d : desched) -> d.instr)
             |> req "cause" (enum cause_name [ Sw_boundary; Hw_dependence; Bank_conflict; Scheduler ])
                  (fun d -> d.cause))
             (fun d -> Desched d) (function Desched d -> Some d | _ -> None);
         ]))

let to_json = Json.encode codec
let of_json = Json.decode codec

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
  let codec = codec
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
