(* Abstract cell contents, int-coded: [bottom] = unknown/stale, a
   register r >= 0 = holds r. *)
let bottom = -1

type state = {
  orf : int array;
  lrf : int array;
  mrf_ok : Util.Bitset.t;  (* per register: MRF copy is current *)
}

let copy s = { orf = Array.copy s.orf; lrf = Array.copy s.lrf; mrf_ok = Util.Bitset.copy s.mrf_ok }

let copy_into ~dst src =
  Array.blit src.orf 0 dst.orf 0 (Array.length src.orf);
  Array.blit src.lrf 0 dst.lrf 0 (Array.length src.lrf);
  Util.Bitset.clear_all dst.mrf_ok;
  ignore (Util.Bitset.union_into ~dst:dst.mrf_ok src.mrf_ok)

(* Meets [src] into [dst] in place; returns whether [dst] changed. *)
let meet_into ~dst src =
  let meet_cells d s =
    let changed = ref false in
    for i = 0 to Array.length d - 1 do
      if d.(i) <> bottom && d.(i) <> s.(i) then begin
        d.(i) <- bottom;
        changed := true
      end
    done;
    !changed
  in
  let orf = meet_cells dst.orf src.orf in
  let lrf = meet_cells dst.lrf src.lrf in
  Util.Bitset.inter_into ~dst:dst.mrf_ok src.mrf_ok || orf || lrf

(* The replay indexes the placement by instruction and source position:
   it needs arrays of the kernel's length and every arity to match. *)
let replayable (k : Ir.Kernel.t) (p : Placement.t) =
  let n = Ir.Kernel.instr_count k in
  Array.length p.Placement.dsts = n
  && Array.length p.Placement.srcs = n
  && Array.length p.Placement.fills = n
  && Ir.Kernel.fold_instrs k ~init:true ~f:(fun ok _ i ->
         ok && Array.length p.Placement.srcs.(i.Ir.Instr.id) = List.length i.Ir.Instr.srcs)

(* Replays [placement] over the CFG and reports every violation, after
   [shape]'s finding if any. *)
let replay_check (config : Config.t) (ctx : Context.t) (placement : Placement.t) shape =
  let k = ctx.Context.kernel in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match shape with Ok () -> () | Error msg -> error "%s" msg);
  let nb = Ir.Kernel.block_count k in
  let nr = k.Ir.Kernel.num_regs in
  let orf_entries = config.Config.orf_entries in
  let lrf_banks = Config.lrf_banks config in
  let fresh_state () =
    {
      orf = Array.make (max orf_entries 1) bottom;
      lrf = Array.make (max lrf_banks 1) bottom;
      mrf_ok = Util.Bitset.create nr;
    }
  in
  (* Block-entry states, [None] until the block is reached; block 0
     starts with every register's MRF copy current (kernel inputs live
     in the MRF). *)
  let entry = Array.make nb None in
  let start = fresh_state () in
  Util.Bitset.fill_all start.mrf_ok;
  entry.(0) <- Some start;
  (* The one state every replay works in. *)
  let st = fresh_state () in
  let invalidate_holding cells r =
    for i = 0 to Array.length cells - 1 do
      if cells.(i) = r then cells.(i) <- bottom
    done
  in
  let clear cells = Array.fill cells 0 (Array.length cells) bottom in
  (* The transfer is split into recursive functions built once per
     check, so replaying an instruction allocates no closure.  [report]
     enables error emission (only on the final pass so the fixpoint
     iterations stay silent). *)
  let rec sources ~report (i : Ir.Instr.t) pos = function
    | [] -> ()
    | r :: rest ->
      let id = i.Ir.Instr.id in
      (match Placement.src placement ~instr:id ~pos with
       | Placement.From_mrf ->
         if report && not (Util.Bitset.mem st.mrf_ok r) then
           error "instr %d slot %d: MRF read of %s but the MRF copy is stale" id pos
             (Ir.Reg.to_string r)
       | Placement.From_orf e ->
         if e < 0 || e >= orf_entries then begin
           if report then error "instr %d slot %d: ORF entry %d out of range" id pos e
         end
         else if st.orf.(e) <> r && report then
           error "instr %d slot %d: ORF[%d] does not hold %s on every path" id pos e
             (Ir.Reg.to_string r)
       | Placement.From_lrf b ->
         if Ir.Op.is_shared_datapath i.Ir.Instr.op && report then
           error "instr %d slot %d: shared-datapath LRF read" id pos;
         if b < 0 || b >= lrf_banks then begin
           if report then error "instr %d slot %d: LRF bank %d out of range" id pos b
         end
         else begin
           if config.Config.lrf = Config.Split && b <> pos && report then
             error "instr %d slot %d: split LRF read from bank %d" id pos b;
           if st.lrf.(b) <> r && report then
             error "instr %d slot %d: LRF[%d] does not hold %s on every path" id pos b
               (Ir.Reg.to_string r)
         end);
      sources ~report i (pos + 1) rest
  in
  (* Fills execute with the instruction's MRF reads. *)
  let rec fills ~report (i : Ir.Instr.t) = function
    | [] -> ()
    | (pos, e) :: rest ->
      let id = i.Ir.Instr.id in
      (match List.nth_opt i.Ir.Instr.srcs pos with
       | None -> if report then error "instr %d: fill on missing slot %d" id pos
       | Some r ->
         (match Placement.src placement ~instr:id ~pos with
          | Placement.From_mrf -> ()
          | Placement.From_orf _ | Placement.From_lrf _ ->
            if report then error "instr %d slot %d: fill source is not an MRF read" id pos);
         if report && not (Util.Bitset.mem st.mrf_ok r) then
           error "instr %d slot %d: fill of %s from a stale MRF copy" id pos (Ir.Reg.to_string r);
         if e >= 0 && e < orf_entries then st.orf.(e) <- r
         else if report then error "instr %d: fill into ORF entry %d out of range" id e);
      fills ~report i rest
  in
  let transfer ~report (i : Ir.Instr.t) =
    let id = i.Ir.Instr.id in
    if Strand.Partition.starts_strand ctx.Context.partition id then begin
      clear st.orf;
      clear st.lrf
    end;
    sources ~report i 0 i.Ir.Instr.srcs;
    fills ~report i (Placement.fills_of placement ~instr:id);
    (* Destination. *)
    match i.Ir.Instr.dst, Placement.dest placement ~instr:id with
    | None, _ -> ()
    | Some _, None -> if report then error "instr %d: missing destination placement" id
    | Some d, Some dest ->
      invalidate_holding st.orf d;
      invalidate_holding st.lrf d;
      if dest.Placement.to_mrf then Util.Bitset.set st.mrf_ok d
      else Util.Bitset.clear st.mrf_ok d;
      if Ir.Instr.is_long_latency i
         && (dest.Placement.to_lrf <> None || dest.Placement.to_orf <> None || not dest.Placement.to_mrf)
         && report
      then error "instr %d: long-latency result must be written to the MRF only" id;
      (match dest.Placement.to_orf with
       | Some e when e >= 0 && e < orf_entries -> st.orf.(e) <- d
       | Some e -> if report then error "instr %d: destination ORF entry %d out of range" id e
       | None -> ());
      (match dest.Placement.to_lrf with
       | Some b when b >= 0 && b < lrf_banks ->
         if Ir.Op.is_shared_datapath i.Ir.Instr.op && report then
           error "instr %d: shared-datapath LRF write" id;
         st.lrf.(b) <- d
       | Some b -> if report then error "instr %d: destination LRF bank %d out of range" id b
       | None -> ())
  in
  (* Replays block [l] from entry state [e] in [st]. *)
  let replay ~report l e =
    copy_into ~dst:st e;
    let instrs = k.Ir.Kernel.blocks.(l).Ir.Block.instrs in
    for j = 0 to Array.length instrs - 1 do
      transfer ~report instrs.(j)
    done
  in
  (* Fixpoint: a worklist that always takes the pending block earliest
     in reverse postorder.  Entries only descend in a finite lattice, so
     it terminates. *)
  let cfg = ctx.Context.cfg in
  let rpo = Analysis.Cfg.reverse_postorder cfg in
  let rpo_index = Analysis.Cfg.rpo_index cfg in
  let pending = Array.make (Array.length rpo) false in
  pending.(0) <- true;
  (* Every pending position is at or after [cursor]. *)
  let cursor = ref 0 in
  (* Meets the replayed block's exit state into successor [s]. *)
  let propagate s =
    let changed =
      match entry.(s) with
      | Some e -> meet_into ~dst:e st
      | None ->
        entry.(s) <- Some (copy st);
        true
    in
    if changed then begin
      let q = rpo_index.(s) in
      pending.(q) <- true;
      if q < !cursor then cursor := q
    end
  in
  while !cursor < Array.length rpo do
    let p = !cursor in
    cursor := p + 1;
    if pending.(p) then begin
      pending.(p) <- false;
      let l = rpo.(p) in
      replay ~report:false l (Option.get entry.(l));
      List.iter propagate cfg.Analysis.Cfg.succs.(l)
    end
  done;
  (* Final reporting pass, in block order; unreachable blocks are
     skipped. *)
  for l = 0 to nb - 1 do
    match entry.(l) with Some e -> replay ~report:true l e | None -> ()
  done;
  match !errors with [] -> Ok () | errs -> Error (List.rev errs)

let check config (ctx : Context.t) placement =
  match Placement.check_shape ctx.Context.kernel placement with
  | Error msg when not (replayable ctx.Context.kernel placement) -> Error [ msg ]
  | shape -> replay_check config ctx placement shape
