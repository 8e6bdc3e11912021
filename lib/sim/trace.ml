(* Per warp: run-length-encoded block sequence. *)
type t = {
  sequences : (int * int) list array;  (* per warp: (block, consecutive repeats) *)
}

let warps t = Array.length t.sequences

let rle_push acc (block : int) =
  match acc with
  | (b, n) :: rest when b = block -> (b, n + 1) :: rest
  | _ -> (block, 1) :: acc

let capture ?(warps = 32) ?(seed = 0x5eed) (k : Ir.Kernel.t) =
  let s = Scratch.domain_local () in
  Scratch.fill_streams s ~max_dynamic:Scratch.default_max_dynamic k ~warps ~seed;
  let ids = s.Scratch.ids and pc = s.Scratch.pc in
  (* A new block visit starts when the block changes OR when we
     re-enter the same block (id not the successor of the previous
     one). *)
  let rec go i last_block last_id acc =
    let id = ids.(i) in
    if id < 0 then List.rev acc
    else begin
      let blk = Ir.Kernel.block_of k id in
      let acc = if blk <> last_block || id <= last_id then rle_push acc blk else acc in
      go (i + 1) blk id acc
    end
  in
  { sequences = Array.init warps (fun w -> go pc.(w) (-1) (-1) []) }

let block_sequence t ~warp =
  List.concat_map (fun (b, n) -> List.init n (fun _ -> b)) t.sequences.(warp)

let replay t (k : Ir.Kernel.t) ~warp f =
  List.iter
    (fun b ->
      if b < 0 || b >= Ir.Kernel.block_count k then
        invalid_arg "Trace.replay: block out of range for this kernel";
      Array.iter f k.Ir.Kernel.blocks.(b).Ir.Block.instrs)
    (block_sequence t ~warp)

let edge_profile t =
  let counts = Hashtbl.create 64 in
  let bump e = Hashtbl.replace counts e (1 + Option.value ~default:0 (Hashtbl.find_opt counts e)) in
  Array.iter
    (fun seq ->
      let expanded = List.concat_map (fun (b, n) -> List.init n (fun _ -> b)) seq in
      (match expanded with
       | first :: _ -> bump (-1, first)
       | [] -> ());
      let rec pairs = function
        | a :: (b :: _ as rest) ->
          bump (a, b);
          pairs rest
        | [ _ ] | [] -> ()
      in
      pairs expanded)
    t.sequences;
  Hashtbl.fold (fun e n acc -> (e, n) :: acc) counts []
  |> List.sort (fun ((a, b), n) ((a', b'), n') ->
         match Int.compare a a' with
         | 0 -> ( match Int.compare b b' with 0 -> Int.compare n n' | c -> c)
         | c -> c)

let synthesize t (k : Ir.Kernel.t) ~seed =
  let profile = edge_profile t in
  let remaining = Hashtbl.create 64 in
  List.iter (fun (e, n) -> Hashtbl.replace remaining e n) profile;
  let prng = Util.Prng.create seed in
  let nb = Ir.Kernel.block_count k in
  let successors b =
    Ir.Terminator.successors k.Ir.Kernel.blocks.(b).Ir.Block.term ~at:b ~num_blocks:nb
  in
  let rec walk acc b steps =
    if steps > 1_000_000 then List.rev acc
    else begin
      let choices =
        List.filter_map
          (fun s ->
            match Hashtbl.find_opt remaining (b, s) with
            | Some n when n > 0 -> Some (float_of_int n, s)
            | Some _ | None -> None)
          (successors b)
      in
      match choices with
      | [] -> List.rev acc
      | _ ->
        let next = Util.Prng.weighted_pick prng choices in
        Hashtbl.replace remaining (b, next) (Hashtbl.find remaining (b, next) - 1);
        walk (next :: acc) next (steps + 1)
    end
  in
  if nb = 0 then [] else walk [ 0 ] 0 0

let to_string t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "trace v1 warps=%d\n" (warps t);
  Array.iteri
    (fun w seq ->
      Printf.bprintf buf "warp %d:" w;
      List.iter
        (fun (b, n) ->
          if n = 1 then Printf.bprintf buf " %d" b else Printf.bprintf buf " %dx%d" b n)
        seq;
      Buffer.add_char buf '\n')
    t.sequences;
  Buffer.contents buf

let of_string s =
  try
    match String.split_on_char '\n' (String.trim s) with
    | [] -> Error "empty trace"
    | header :: rest ->
      let nwarps =
        match String.split_on_char '=' header with
        | [ _; n ] when String.length header > 6 && String.sub header 0 5 = "trace" ->
          int_of_string (String.trim n)
        | _ -> failwith "bad header"
      in
      (* One line per declared warp, as [to_string] writes them: the
         count is checked before anything is sized by it. *)
      let lines = List.filter (fun l -> l <> "") (List.map String.trim rest) in
      let nlines = List.length lines in
      if nlines <> nwarps then failwith (Printf.sprintf "warps=%d but %d warp lines" nwarps nlines);
      let sequences = Array.make nwarps [] in
      let listed = Array.make nwarps false in
      List.iter
        (fun line ->
          match String.index_opt line ':' with
          | Some colon when String.starts_with ~prefix:"warp " line ->
            let w = int_of_string (String.trim (String.sub line 5 (colon - 5))) in
            if w < 0 || w >= nwarps then failwith "warp out of range";
            if listed.(w) then failwith (Printf.sprintf "warp %d listed twice" w);
            listed.(w) <- true;
            let body = String.sub line (colon + 1) (String.length line - colon - 1) in
            (* Blocks so far: no capture expands past its cap. *)
            let total = ref 0 in
            let entries =
              String.split_on_char ' ' body
              |> List.filter (fun x -> x <> "")
              |> List.map (fun tok ->
                     let block, repeats =
                       match String.index_opt tok 'x' with
                       | Some i ->
                         ( int_of_string (String.sub tok 0 i),
                           int_of_string (String.sub tok (i + 1) (String.length tok - i - 1)) )
                       | None -> (int_of_string tok, 1)
                     in
                     if block < 0 then failwith ("negative block: " ^ tok);
                     if repeats < 1 then failwith ("repeat count below 1: " ^ tok);
                     if repeats > Scratch.default_max_dynamic - !total then
                       failwith
                         (Printf.sprintf "warp %d expands past %d blocks at %s" w
                            Scratch.default_max_dynamic tok);
                     total := !total + repeats;
                     (block, repeats))
            in
            sequences.(w) <- entries
          | Some _ | None -> failwith ("bad line: " ^ line))
        lines;
      Ok { sequences }
  with
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error msg
