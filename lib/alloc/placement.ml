type level =
  | From_lrf of int
  | From_orf of int
  | From_mrf

type dest = {
  to_lrf : int option;
  to_orf : int option;
  to_mrf : bool;
}

(* Every per-instruction table holds immediates or the shared cells
   below, which are built once and so are never young when stored: no
   table of a placement is a source of promotion.  Sources are compressed
   rows: instruction [id]'s are at [src_start.(id) + pos]. *)
type t = {
  dsts : dest option array;
  src_start : int array;
  srcs : level array;
  fills : (int * int) list array;
}

(* The levels and destinations a placement can hold within the
   hardware's bounds (ORF entries below Energy.Params.max_orf_entries,
   one LRF bank per operand slot).  A value outside them (only a
   corrupted placement holds one) is stored as given. *)
let max_orf = Energy.Params.max_orf_entries
let max_lrf = Ir.Instr.num_slots
let orf_levels = Array.init max_orf (fun e -> From_orf e)
let lrf_levels = Array.init max_lrf (fun b -> From_lrf b)

let shared_level = function
  | From_orf e when e >= 0 && e < max_orf -> orf_levels.(e)
  | From_lrf b when b >= 0 && b < max_lrf -> lrf_levels.(b)
  | l -> l

(* [dest_cells] holds [Some d] for every destination in bounds, at
   index ((lrf + 1) * (max_orf + 1) + orf + 1) * 2 + mrf, with -1
   standing for a missing LRF bank or ORF entry. *)
let dest_cells =
  Array.init
    ((max_lrf + 1) * (max_orf + 1) * 2)
    (fun i ->
      let mrf = i mod 2 in
      let orf = (i / 2 mod (max_orf + 1)) - 1 and lrf = (i / 2 / (max_orf + 1)) - 1 in
      Some
        {
          to_lrf = (if lrf < 0 then None else Some lrf);
          to_orf = (if orf < 0 then None else Some orf);
          to_mrf = mrf = 1;
        })

let shared_dest d =
  let index = function None -> -1 | Some x -> x in
  let lrf = index d.to_lrf and orf = index d.to_orf in
  if lrf >= -1 && lrf < max_lrf && orf >= -1 && orf < max_orf then
    dest_cells.((((lrf + 1) * (max_orf + 1)) + orf + 1) * 2 + if d.to_mrf then 1 else 0)
  else Some d

let mrf_only = { to_lrf = None; to_orf = None; to_mrf = true }

let baseline (k : Ir.Kernel.t) =
  let n = Ir.Kernel.instr_count k in
  let dsts = Array.make n None in
  let src_start = Array.make (n + 1) 0 in
  let some_mrf_only = shared_dest mrf_only in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      let id = i.Ir.Instr.id in
      if Option.is_some i.Ir.Instr.dst then dsts.(id) <- some_mrf_only;
      src_start.(id + 1) <- src_start.(id) + List.length i.Ir.Instr.srcs)
    k.Ir.Kernel.instrs;
  { dsts; src_start; srcs = Array.make src_start.(n) From_mrf; fills = Array.make n [] }

let instr_count t = Array.length t.dsts
let arity t ~instr = t.src_start.(instr + 1) - t.src_start.(instr)
let dest t ~instr = t.dsts.(instr)

let src_index t ~instr ~pos =
  if pos < 0 || pos >= arity t ~instr then invalid_arg "index out of bounds";
  t.src_start.(instr) + pos

let src t ~instr ~pos = t.srcs.(src_index t ~instr ~pos)
let fills_of t ~instr = t.fills.(instr)

let within t ~orf_entries =
  let level = function From_orf e when e >= orf_entries -> From_mrf | l -> l in
  let targets = function
    | Some ({ to_orf = Some e; _ } as d) when e >= orf_entries -> shared_dest { d with to_orf = None }
    | d -> d
  in
  {
    dsts = Array.map targets t.dsts;
    src_start = Array.copy t.src_start;
    srcs = Array.map level t.srcs;
    fills = Array.map (List.filter (fun (_, e) -> e < orf_entries)) t.fills;
  }

let set_dest t ~instr d = t.dsts.(instr) <- shared_dest d
let set_src t ~instr ~pos level = t.srcs.(src_index t ~instr ~pos) <- shared_level level
let add_fill t ~instr ~pos ~entry = t.fills.(instr) <- (pos, entry) :: t.fills.(instr)

let level_name = function
  | From_lrf b -> Printf.sprintf "LRF[%d]" b
  | From_orf e -> Printf.sprintf "ORF[%d]" e
  | From_mrf -> "MRF"

let shape_matches (k : Ir.Kernel.t) t =
  instr_count t = Ir.Kernel.instr_count k
  && Array.for_all
       (fun (i : Ir.Instr.t) -> arity t ~instr:i.Ir.Instr.id = List.length i.Ir.Instr.srcs)
       k.Ir.Kernel.instrs

let check_shape (k : Ir.Kernel.t) t =
  if instr_count t <> Ir.Kernel.instr_count k then Error "placement arrays do not match the kernel"
  else begin
    let problem = ref None in
    let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
    Ir.Kernel.iter_instrs k (fun _ i ->
        let id = i.Ir.Instr.id in
        (match dest t ~instr:id, i.Ir.Instr.dst with
         | None, Some _ -> fail "instr %d: result without destination placement" id
         | Some _, None -> fail "instr %d: destination placement without result" id
         | None, None -> ()
         | Some d, Some _ ->
           if d.to_lrf = None && d.to_orf = None && not d.to_mrf then
             fail "instr %d: destination written nowhere" id;
           if d.to_lrf <> None && d.to_orf <> None then
             fail "instr %d: destination written to both LRF and ORF" id);
        if arity t ~instr:id <> List.length i.Ir.Instr.srcs then
          fail "instr %d: source placement arity mismatch" id);
    match !problem with None -> Ok () | Some msg -> Error msg
  end
