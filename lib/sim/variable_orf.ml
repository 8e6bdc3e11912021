type result = {
  counts : Energy.Counts.t;
  strand_executions : int;
  full_grants : int;
  partial_grants : int;
  entries_denied : int;
}

let strand_requests (ctx : Alloc.Context.t) (placement : Alloc.Placement.t) =
  let k = ctx.Alloc.Context.kernel in
  let partition = ctx.Alloc.Context.partition in
  let n = Int.max 1 (Strand.Partition.num_strands partition) in
  let used = Array.init n (fun _ -> Hashtbl.create 4) in
  Ir.Kernel.iter_instrs k (fun _ i ->
      let id = i.Ir.Instr.id in
      let s = Strand.Partition.strand_of_instr partition id in
      let touch e = Hashtbl.replace used.(s) e () in
      List.iteri
        (fun pos _ ->
          match Alloc.Placement.src placement ~instr:id ~pos with
          | Alloc.Placement.From_orf e -> touch e
          | Alloc.Placement.From_mrf | Alloc.Placement.From_lrf _ -> ())
        i.Ir.Instr.srcs;
      List.iter (fun (_, e) -> touch e) (Alloc.Placement.fills_of placement ~instr:id);
      match Alloc.Placement.dest placement ~instr:id with
      | Some { Alloc.Placement.to_orf = Some e; _ } -> touch e
      | Some _ | None -> ());
  Array.map Hashtbl.length used

type warp_state = {
  mutable at : int;  (* index of the warp's next instruction in the stream table *)
  mutable grant : int;  (* entries this warp's current strand holds *)
}

let run ?(active = 8) ?(warps = 32) ?(seed = 0x5eed) ~pool_entries
    ~(config : Alloc.Config.t) ~placement (ctx : Alloc.Context.t) =
  if not config.Alloc.Config.mirror_mrf then
    invalid_arg "Variable_orf.run: the placement must be compiled with mirror_mrf";
  if pool_entries < 0 then invalid_arg "Variable_orf.run: pool_entries < 0";
  let k = ctx.Alloc.Context.kernel in
  let partition = ctx.Alloc.Context.partition in
  let requests = strand_requests ctx placement in
  (* [executions.(g).(pc)]: executions of [pc] under a grant of [g]
     entries.  A grant never exceeds its request. *)
  let executions =
    Array.init
      (Array.fold_left Int.max 0 requests + 1)
      (fun _ -> Array.make (Ir.Kernel.instr_count k) 0)
  in
  let pool_free = ref pool_entries in
  let strand_executions = ref 0 in
  let full_grants = ref 0 in
  let partial_grants = ref 0 in
  let entries_denied = ref 0 in
  let s = Scratch.domain_local () in
  Scratch.fill_streams s ~max_dynamic:Scratch.default_max_dynamic k ~warps ~seed;
  let ids = s.Scratch.ids and pc = s.Scratch.pc in
  let mk_warp w = { at = pc.(w); grant = 0 } in
  let next_warp = ref (Int.min active warps) in
  let active_set = Queue.create () in
  for w = 0 to Int.min active warps - 1 do
    Queue.add (mk_warp w) active_set
  done;
  let release st =
    pool_free := !pool_free + st.grant;
    st.grant <- 0
  in
  let acquire st strand =
    release st;
    incr strand_executions;
    let want = requests.(strand) in
    let got = Int.min want !pool_free in
    pool_free := !pool_free - got;
    st.grant <- got;
    if got >= want then incr full_grants else incr partial_grants;
    entries_denied := !entries_denied + (want - got)
  in
  (* Round-robin, one instruction per turn: concurrent strands compete
     for the pool exactly as concurrently-active warps would. *)
  while not (Queue.is_empty active_set) do
    let st = Queue.pop active_set in
    let id = ids.(st.at) in
    if id < 0 then begin
      release st;
      if !next_warp < warps then begin
        Queue.add (mk_warp !next_warp) active_set;
        incr next_warp
      end
    end
    else begin
      if Strand.Partition.starts_strand partition id then
        acquire st (Strand.Partition.strand_of_instr partition id);
      let row = executions.(st.grant) in
      row.(id) <- row.(id) + 1;
      st.at <- st.at + 1;
      Queue.add st active_set
    end
  done;
  (* An entry past the grant is read from the MRF copy mirror_mrf
     keeps, and is neither filled nor written. *)
  let counts = Energy.Counts.create () in
  Array.iteri
    (fun g execs ->
      Energy.Counts.merge_into ~dst:counts
        (Traffic.price ctx (Alloc.Placement.within placement ~orf_entries:g) execs))
    executions;
  {
    counts;
    strand_executions = !strand_executions;
    full_grants = !full_grants;
    partial_grants = !partial_grants;
    entries_denied = !entries_denied;
  }
