type level =
  | From_lrf of int
  | From_orf of int
  | From_mrf

type dest = {
  to_lrf : int option;
  to_orf : int option;
  to_mrf : bool;
}

type t = {
  dsts : dest option array;
  srcs : level array array;
  fills : (int * int) list array;
}

let mrf_only = { to_lrf = None; to_orf = None; to_mrf = true }

let baseline (k : Ir.Kernel.t) =
  let n = Ir.Kernel.instr_count k in
  let dsts = Array.make n None in
  let srcs = Array.make n [||] in
  let fills = Array.make n [] in
  Ir.Kernel.iter_instrs k (fun _ i ->
      let id = i.Ir.Instr.id in
      if Option.is_some i.Ir.Instr.dst then dsts.(id) <- Some mrf_only;
      srcs.(id) <- Array.make (List.length i.Ir.Instr.srcs) From_mrf);
  { dsts; srcs; fills }

let dest t ~instr = t.dsts.(instr)
let src t ~instr ~pos = t.srcs.(instr).(pos)
let fills_of t ~instr = t.fills.(instr)

let within t ~orf_entries =
  let level = function From_orf e when e >= orf_entries -> From_mrf | l -> l in
  let targets d =
    match d.to_orf with Some e when e >= orf_entries -> { d with to_orf = None } | _ -> d
  in
  {
    dsts = Array.map (Option.map targets) t.dsts;
    srcs = Array.map (Array.map level) t.srcs;
    fills = Array.map (List.filter (fun (_, e) -> e < orf_entries)) t.fills;
  }

let set_dest t ~instr d = t.dsts.(instr) <- Some d
let set_src t ~instr ~pos level = t.srcs.(instr).(pos) <- level
let add_fill t ~instr ~pos ~entry = t.fills.(instr) <- (pos, entry) :: t.fills.(instr)

let level_name = function
  | From_lrf b -> Printf.sprintf "LRF[%d]" b
  | From_orf e -> Printf.sprintf "ORF[%d]" e
  | From_mrf -> "MRF"

let check_shape (k : Ir.Kernel.t) t =
  let n = Ir.Kernel.instr_count k in
  if Array.length t.dsts <> n || Array.length t.srcs <> n || Array.length t.fills <> n then
    Error "placement arrays do not match the kernel"
  else begin
    let problem = ref None in
    let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
    Ir.Kernel.iter_instrs k (fun _ i ->
        let id = i.Ir.Instr.id in
        (match t.dsts.(id), i.Ir.Instr.dst with
         | None, Some _ -> fail "instr %d: result without destination placement" id
         | Some _, None -> fail "instr %d: destination placement without result" id
         | None, None -> ()
         | Some d, Some _ ->
           if d.to_lrf = None && d.to_orf = None && not d.to_mrf then
             fail "instr %d: destination written nowhere" id;
           if d.to_lrf <> None && d.to_orf <> None then
             fail "instr %d: destination written to both LRF and ORF" id);
        if Array.length t.srcs.(id) <> List.length i.Ir.Instr.srcs then
          fail "instr %d: source placement arity mismatch" id);
    match !problem with None -> Ok () | Some msg -> Error msg
  end
