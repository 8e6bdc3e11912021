(* Abstract cell contents, int-coded: [bottom] = unknown/stale, a
   register r >= 0 = holds r. *)
let bottom = -1

type state = {
  orf : int array;
  lrf : int array;
  mrf_ok : Util.Bitset.t;  (* per tracked register: MRF copy is current *)
}

(* Meets [src]'s cells into the [n] cells of [d] from [off] in place;
   returns whether they changed. *)
let meet_cells d off (s : int array) n =
  let changed = ref false in
  for i = 0 to n - 1 do
    let x = d.(off + i) in
    if x <> bottom && x <> s.(i) then begin
      d.(off + i) <- bottom;
      changed := true
    end
  done;
  !changed

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
  let no = Int.max orf_entries 1 and nl = Int.max lrf_banks 1 in
  (* Only a register that some instruction writes without an MRF copy
     can find its MRF copy stale: the current-MRF-copy sets range over
     those ([tracked.(r)] is r's bit, -1 for a register whose copy is
     always current). *)
  let tracked = Array.make nr (-1) in
  let ntracked = ref 0 in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      match i.Ir.Instr.dst, Placement.dest placement ~instr:i.Ir.Instr.id with
      | Some r, Some dest when (not dest.Placement.to_mrf) && tracked.(r) < 0 ->
        tracked.(r) <- !ntracked;
        incr ntracked
      | _ -> ())
    k.Ir.Kernel.instrs;
  let ntracked = !ntracked in
  let fresh_state () =
    { orf = Array.make no bottom; lrf = Array.make nl bottom; mrf_ok = Util.Bitset.create ntracked }
  in
  (* Block-entry states, one table each: block l's ORF and LRF cells at
     [l * no] and [l * nl], its current-MRF-copy set in row l.  A block
     holds a state once [reached]; block 0 starts with every register's
     MRF copy current (kernel inputs live in the MRF). *)
  let entry_orf = Array.make (nb * no) bottom and entry_lrf = Array.make (nb * nl) bottom in
  let entry_mrf = Util.Bitset.matrix ~rows:nb ntracked in
  let reached = Array.make nb false in
  (* The one state every replay works in. *)
  let st = fresh_state () in
  let mrf_current r =
    let c = tracked.(r) in
    c < 0 || Util.Bitset.mem st.mrf_ok c
  in
  Util.Bitset.fill_all st.mrf_ok;
  Util.Bitset.store_row entry_mrf 0 st.mrf_ok;
  reached.(0) <- true;
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
         if report && not (mrf_current r) then
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
         if report && not (mrf_current r) then
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
      if tracked.(d) >= 0 then
        if dest.Placement.to_mrf then Util.Bitset.set st.mrf_ok tracked.(d)
        else Util.Bitset.clear st.mrf_ok tracked.(d);
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
  (* Replays block [l] from its entry state in [st]. *)
  let replay ~report l =
    Array.blit entry_orf (l * no) st.orf 0 no;
    Array.blit entry_lrf (l * nl) st.lrf 0 nl;
    Util.Bitset.load_row ~dst:st.mrf_ok entry_mrf l;
    let instrs = k.Ir.Kernel.blocks.(l).Ir.Block.instrs in
    for j = 0 to Array.length instrs - 1 do
      transfer ~report instrs.(j)
    done
  in
  (* Fixpoint: a worklist that always takes the pending block earliest
     in reverse postorder.  Entries only descend in a finite lattice, so
     it terminates. *)
  let cfg = ctx.Context.cfg in
  let rpo = cfg.Analysis.Cfg.rpo and rpo_index = cfg.Analysis.Cfg.rpo_index in
  let pending = Array.make (Array.length rpo) false in
  pending.(0) <- true;
  (* Every pending position is at or after [cursor]. *)
  let cursor = ref 0 in
  (* Meets the replayed block's exit state into successor [s]. *)
  let propagate s =
    let changed =
      if reached.(s) then begin
        let mrf = Util.Bitset.inter_into_row entry_mrf s st.mrf_ok in
        let orf = meet_cells entry_orf (s * no) st.orf no in
        let lrf = meet_cells entry_lrf (s * nl) st.lrf nl in
        mrf || orf || lrf
      end
      else begin
        reached.(s) <- true;
        Array.blit st.orf 0 entry_orf (s * no) no;
        Array.blit st.lrf 0 entry_lrf (s * nl) nl;
        Util.Bitset.store_row entry_mrf s st.mrf_ok;
        true
      end
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
      replay ~report:false l;
      List.iter propagate cfg.Analysis.Cfg.succs.(l)
    end
  done;
  (* Final reporting pass, in block order; unreachable blocks are
     skipped. *)
  for l = 0 to nb - 1 do
    if reached.(l) then replay ~report:true l
  done;
  match !errors with [] -> Ok () | errs -> Error (List.rev errs)

let check config (ctx : Context.t) placement =
  match Placement.check_shape ctx.Context.kernel placement with
  | Error msg when not (Placement.shape_matches ctx.Context.kernel placement) -> Error [ msg ]
  | shape -> replay_check config ctx placement shape
