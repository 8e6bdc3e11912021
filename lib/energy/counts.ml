let levels = [| Model.Mrf; Model.Orf; Model.Rfc; Model.Lrf |]
let num_levels = Array.length levels

let level_index = function Model.Mrf -> 0 | Model.Orf -> 1 | Model.Rfc -> 2 | Model.Lrf -> 3
let dp_index = function Model.Private -> 0 | Model.Shared -> 1

(* Optional per-instruction attribution: when enabled, every row added
   with an in-range [pc] also lands in a pc-indexed row of [areads]/
   [awrites] (laid out [pc * cells + cell]) so energy can be charged
   back to the static instruction that caused the access.  The
   aggregate arrays stay authoritative; attribution is a side table
   and never feeds manifests. *)
type attrib = {
  instrs : int;
  areads : int array;
  awrites : int array;
  aprobes : int array;
}

type t = {
  reads : int array;   (* level * datapath *)
  writes : int array;
  mutable probes : int;
  mutable attrib : attrib option;
}

let cell level dp = (level_index level * 2) + dp_index dp

let attr_cells = num_levels * 2

let create () =
  {
    reads = Array.make (num_levels * 2) 0;
    writes = Array.make (num_levels * 2) 0;
    probes = 0;
    attrib = None;
  }

let enable_attribution t ~instrs =
  t.attrib <-
    Some
      {
        instrs;
        areads = Array.make (instrs * attr_cells) 0;
        awrites = Array.make (instrs * attr_cells) 0;
        aprobes = Array.make instrs 0;
      }

let copy_attrib a =
  {
    instrs = a.instrs;
    areads = Array.copy a.areads;
    awrites = Array.copy a.awrites;
    aprobes = Array.copy a.aprobes;
  }

let merge_into ~dst src =
  Array.iteri (fun i v -> dst.reads.(i) <- dst.reads.(i) + v) src.reads;
  Array.iteri (fun i v -> dst.writes.(i) <- dst.writes.(i) + v) src.writes;
  dst.probes <- dst.probes + src.probes;
  match (dst.attrib, src.attrib) with
  | _, None -> ()
  | None, Some sa -> dst.attrib <- Some (copy_attrib sa)
  | Some da, Some sa when da.instrs = sa.instrs ->
    Array.iteri (fun i v -> da.areads.(i) <- da.areads.(i) + v) sa.areads;
    Array.iteri (fun i v -> da.awrites.(i) <- da.awrites.(i) + v) sa.awrites;
    Array.iteri (fun i v -> da.aprobes.(i) <- da.aprobes.(i) + v) sa.aprobes
  | Some _, Some _ -> invalid_arg "Energy.Counts.merge_into: attribution tables differ in size"

(* Per-pc count rows: a simulator tallies each static instruction's
   accesses in a flat int row of [row_cells] cells (reads, then writes,
   in the [cell] order of the aggregate arrays, then RFC probes) and
   folds the rows in once at the end of a run. *)

let row_cells = (2 * attr_cells) + 1
let read_cell level dp = cell level dp
let write_cell level dp = attr_cells + cell level dp
let probe_cell = row_cells - 1

let add_row t row ~off ~times ~pc =
  for c = 0 to attr_cells - 1 do
    t.reads.(c) <- t.reads.(c) + (times * row.(off + c));
    t.writes.(c) <- t.writes.(c) + (times * row.(off + attr_cells + c))
  done;
  let probes = times * row.(off + probe_cell) in
  t.probes <- t.probes + probes;
  match t.attrib with
  | Some a when pc >= 0 && pc < a.instrs ->
    let base = pc * attr_cells in
    for c = 0 to attr_cells - 1 do
      a.areads.(base + c) <- a.areads.(base + c) + (times * row.(off + c));
      a.awrites.(base + c) <- a.awrites.(base + c) + (times * row.(off + attr_cells + c))
    done;
    a.aprobes.(pc) <- a.aprobes.(pc) + probes
  | _ -> ()

let reads t level = t.reads.(cell level Model.Private) + t.reads.(cell level Model.Shared)
let writes t level = t.writes.(cell level Model.Private) + t.writes.(cell level Model.Shared)
let reads_dp t level dp = t.reads.(cell level dp)
let writes_dp t level dp = t.writes.(cell level dp)
let rfc_probes t = t.probes

let total_reads t = Array.fold_left ( + ) 0 t.reads
let total_writes t = Array.fold_left ( + ) 0 t.writes

type level_energy = { level : Model.level; access : float; wire : float }

type breakdown = { levels : level_energy list; total : float }

let energy params ~orf_entries t =
  let level_breakdown level =
    let acc = ref 0.0 and wire = ref 0.0 in
    List.iter
      (fun dp ->
        let r = float_of_int t.reads.(cell level dp) in
        let w = float_of_int t.writes.(cell level dp) in
        acc := !acc +. (r *. Model.access_only_read params ~orf_entries level)
               +. (w *. Model.access_only_write params ~orf_entries level);
        wire := !wire +. (r *. Model.wire_only_read params level dp)
                +. (w *. Model.wire_only_write params level dp))
      (match level with
       | Model.Lrf ->
         if t.reads.(cell Model.Lrf Model.Shared) <> 0
            || t.writes.(cell Model.Lrf Model.Shared) <> 0
         then invalid_arg "Energy.Counts: LRF accessed from the shared datapath";
         [ Model.Private ]
       | _ -> [ Model.Private; Model.Shared ]);
    if level = Model.Rfc then
      acc := !acc +. (float_of_int t.probes *. Model.rfc_probe_energy params);
    { level; access = !acc; wire = !wire }
  in
  let per_level = Array.to_list (Array.map level_breakdown levels) in
  let total = List.fold_left (fun s le -> s +. le.access +. le.wire) 0.0 per_level in
  { levels = per_level; total }

(* ------------------------------------------------------------------ *)
(* Per-instruction attribution queries.                                *)

let attributed_energies params ~orf_entries t =
  match t.attrib with
  | None -> [||]
  | Some a ->
    (* Register-file energy (pJ) charged to instruction [pc]. *)
    let instr_energy pc =
      let e = ref 0.0 in
      Array.iter
        (fun level ->
          List.iter
            (fun dp ->
              let c = (pc * attr_cells) + cell level dp in
              let r = a.areads.(c) and w = a.awrites.(c) in
              if r <> 0 then
                e :=
                  !e
                  +. (float_of_int r
                     *. (Model.access_only_read params ~orf_entries level
                        +. Model.wire_only_read params level dp));
              if w <> 0 then
                e :=
                  !e
                  +. (float_of_int w
                     *. (Model.access_only_write params ~orf_entries level
                        +. Model.wire_only_write params level dp)))
            [ Model.Private; Model.Shared ])
        levels;
      if a.aprobes.(pc) <> 0 then
        e := !e +. (float_of_int a.aprobes.(pc) *. Model.rfc_probe_energy params);
      !e
    in
    Array.init a.instrs instr_energy

let top_instrs params ~orf_entries ?(n = 10) t =
  let pjs = attributed_energies params ~orf_entries t in
  let ranked = Array.mapi (fun pc pj -> (pc, pj)) pjs in
  Array.sort
    (fun (pa, a) (pb, b) ->
      match compare (b : float) a with 0 -> compare (pa : int) pb | c -> c)
    ranked;
  Array.to_list (Array.sub ranked 0 (Int.min n (Array.length ranked)))

(* JSON codec: dp-resolved counts per level, keyed by the lowercase
   level name in the paper's MRF, ORF, RFC, LRF order.  Field order is
   fixed so run manifests embedding this shape diff cleanly. *)

let json_key level = String.lowercase_ascii (Model.level_name level)

let to_json t =
  let dp_obj arr level =
    Obs.Json.Obj
      [
        ("private", Obs.Json.int arr.(cell level Model.Private));
        ("shared", Obs.Json.int arr.(cell level Model.Shared));
      ]
  in
  Obs.Json.Obj
    (Array.to_list
       (Array.map
          (fun level ->
            ( json_key level,
              Obs.Json.Obj
                [ ("reads", dp_obj t.reads level); ("writes", dp_obj t.writes level) ] ))
          levels)
    @ [ ("rfc_probes", Obs.Json.int t.probes) ])

let pp fmt t =
  Array.iter
    (fun level ->
      let r = reads t level and w = writes t level in
      if r <> 0 || w <> 0 then
        Format.fprintf fmt "%s: %dR/%dW  " (Model.level_name level) r w)
    levels;
  if t.probes <> 0 then Format.fprintf fmt "RFC-probes: %d" t.probes
