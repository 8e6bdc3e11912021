type hw_options = {
  rfc_entries : int;
  with_lrf : bool;
  flush_on_backward_branch : bool;
  never_flush : bool;
}

let hw_defaults ~rfc_entries =
  { rfc_entries; with_lrf = false; flush_on_backward_branch = false; never_flush = false }

type scheme =
  | Baseline
  | Sw of { config : Alloc.Config.t; placement : Alloc.Placement.t }
  | Hw of hw_options

type result = {
  counts : Energy.Counts.t;
  per_strand : Energy.Counts.t array;
  dynamic_instrs : int;
  desched_events : int;
  capped_warps : int;
}

let m_runs = Obs.Metrics.counter "sim.traffic.runs"
let m_dynamic = Obs.Metrics.counter "sim.traffic.dynamic_instrs"
let m_desched = Obs.Metrics.counter "sim.traffic.desched_events"
let m_capped = Obs.Metrics.counter "sim.traffic.capped_warps"

(* Dynamic-instruction window width for the counter tracks. *)
let counter_window = 32

(* Count-row cells (Energy.Counts layout).  A level's Shared cell
   follows its Private one, so [cell + dpi] picks the datapath. *)
let cells = Energy.Counts.row_cells
let rd level = Energy.Counts.read_cell level Energy.Model.Private
let wr level = Energy.Counts.write_cell level Energy.Model.Private
let rd_mrf = rd Energy.Model.Mrf
let rd_orf = rd Energy.Model.Orf
let rd_rfc = rd Energy.Model.Rfc
let rd_lrf = rd Energy.Model.Lrf
let wr_mrf = wr Energy.Model.Mrf
let wr_orf = wr Energy.Model.Orf
let wr_rfc = wr Energy.Model.Rfc
let wr_lrf = wr Energy.Model.Lrf
let probe = Energy.Counts.probe_cell

(* Per-pc flag bits (Hw). *)
let shared_consumer = 1 (* some read of the result is on the shared datapath *)
let backward_last = 2 (* last instruction of a backward-branching block *)

(* One run's walk state.  The arrays are the scratch's; [clock] counts
   the run's dynamic instructions, so it is also each instruction's
   "walk time".

   Outstanding long-latency writes are [issued] (per register, the walk
   time of its last long-latency issue) plus [cleared] (the walk time
   of the warp's start or last deschedule): an entry is live while it
   was issued since [cleared] and is younger than [shadow].  A re-issue
   replaces a register's entry and expired entries are always the
   oldest, so the newest issue, [last_ll], is live iff any entry is.

   The hardware RFC is a FIFO of register names, oldest first, in
   [rfc.(0 .. rfc_len - 1)], with [cached.(r)] iff [r] is resident; the
   hardware LRF has one entry, [lrf] (-1 = empty). *)
type walk = {
  s : Scratch.t;
  dec : Dec.t;
  rows : int array;
  exec : int array;  (* per pc: executions (Baseline, Sw), or 1 (Hw) *)
  flags : int array;
  live : int array;  (* per pc, a bit row of [live_words] ints: live after it *)
  issued : int array;
  cached : bool array;
  rfc : int array;
  live_words : int;
  shadow : int;
  placement : Alloc.Placement.t option;  (* None = Hw *)
  sw : bool;  (* strand-start deschedules: Sw only *)
  rfc_entries : int;
  has_lrf : bool;
  never_flush : bool;
  back_flush : bool;
  au : bool;
  co : bool;
  mutable warp : int;
  mutable clock : int;
  mutable cleared : int;
  mutable last_ll : int;
  mutable rfc_len : int;
  mutable lrf : int;
  mutable windows : int;  (* counter windows in use *)
  mutable desched : int;
  mutable capped : int;
}

let add rows id cell n =
  let i = (id * cells) + cell in
  rows.(i) <- rows.(i) + n

let charge w id cell = add w.rows id cell 1

(* Audit events: every counted write is mirrored by a Place event
   (guarded on [au] so the disabled path stays a plain counter bump):
   summing Place events per level therefore reproduces the
   Energy.Counts write totals exactly. *)
let place w id level = Obs.Audit.emit (Obs.Audit.Place { warp = w.warp; instr = id; level })

let evict w id level ~writeback =
  Obs.Audit.emit (Obs.Audit.Evict { warp = w.warp; instr = id; level; writeback })

let desched w id cause =
  w.desched <- w.desched + 1;
  if w.au then Obs.Audit.emit (Obs.Audit.Desched { warp = w.warp; instr = id; cause })

let outstanding w at g = at >= w.cleared && g - at < w.shadow

let rec blocked w srcs base p n g =
  p < n && (outstanding w w.issued.(srcs.(base + p)) g || blocked w srcs base (p + 1) n g)

(* --- Baseline and Sw: every count is static per instruction ------- *)

(* The per-pc rows of a placement, added into [rows]: what one
   execution of each instruction costs. *)
let static_rows rows (dec : Dec.t) placement =
  for id = 0 to dec.Dec.num_instrs - 1 do
    let dpi = if dec.Dec.shared_dp.(id) then 1 else 0 in
    for pos = 0 to dec.Dec.nsrcs.(id) - 1 do
      match Alloc.Placement.src placement ~instr:id ~pos with
      | Alloc.Placement.From_mrf -> add rows id (rd_mrf + dpi) 1
      | Alloc.Placement.From_orf _ -> add rows id (rd_orf + dpi) 1
      | Alloc.Placement.From_lrf _ -> add rows id rd_lrf 1
    done;
    add rows id (wr_orf + dpi) (List.length (Alloc.Placement.fills_of placement ~instr:id));
    match Alloc.Placement.dest placement ~instr:id with
    | Some dest when dec.Dec.dst.(id) >= 0 ->
      if dest.Alloc.Placement.to_mrf then add rows id (wr_mrf + dpi) 1;
      if Option.is_some dest.Alloc.Placement.to_orf then add rows id (wr_orf + dpi) 1;
      if Option.is_some dest.Alloc.Placement.to_lrf then add rows id wr_lrf 1
    | _ -> ()
  done

(* The Place/Fill events of one execution, in the order the placement
   lists them: fills, then the destination levels. *)
let emit_static w placement id =
  List.iter
    (fun (pos, entry) ->
      place w id Obs.Audit.Orf;
      Obs.Audit.emit (Obs.Audit.Fill { warp = w.warp; instr = id; pos; entry }))
    (Alloc.Placement.fills_of placement ~instr:id);
  match Alloc.Placement.dest placement ~instr:id with
  | Some dest when w.dec.Dec.dst.(id) >= 0 ->
    if dest.Alloc.Placement.to_mrf then place w id Obs.Audit.Mrf;
    if Option.is_some dest.Alloc.Placement.to_orf then place w id Obs.Audit.Orf;
    if Option.is_some dest.Alloc.Placement.to_lrf then place w id Obs.Audit.Lrf
  | _ -> ()

let static_step w placement id g =
  w.exec.(id) <- w.exec.(id) + 1;
  if w.sw then begin
    (* Compiler-scheduled deschedule point. *)
    if w.dec.Dec.starts_strand.(id) && outstanding w w.last_ll g then begin
      desched w id Obs.Audit.Sw_boundary;
      w.cleared <- g
    end;
    if w.dec.Dec.is_ll.(id) then begin
      w.issued.(w.dec.Dec.dst.(id)) <- g;
      w.last_ll <- g
    end
  end;
  if w.au then emit_static w placement id

(* --- Hw: the RFC and LRF replayed per dynamic instruction ---------- *)

(* Does a read of def [d], from its [n]th on, run on the shared
   datapath? *)
let rec any_shared shared_dp du d n =
  n < Analysis.Duchain.num_reads du d
  && (shared_dp.(Analysis.Duchain.read_operand du d n / Ir.Instr.num_slots)
     || any_shared shared_dp du d (n + 1))

(* Registers a live-after row word holds. *)
let live_bits = 63

(* Static liveness after every instruction, and the flag bits.  The
   compile path builds no liveness, so each run computes it here and
   sets only the live registers' bits of each pc's row.  A Hw row
   accumulates every execution's charges, so the fold weighs it once. *)
let hw_tables w (ctx : Alloc.Context.t) =
  let dec = w.dec and k = ctx.Alloc.Context.kernel in
  Array.fill w.exec 0 dec.Dec.num_instrs 1;
  let row = ref 0 in
  let set_live r =
    let i = !row + (r / live_bits) in
    w.live.(i) <- w.live.(i) lor (1 lsl (r mod live_bits))
  in
  Analysis.Liveness.iter_live_after
    (Analysis.Liveness.compute k ctx.Alloc.Context.cfg)
    (fun i live ->
      row := i.Ir.Instr.id * w.live_words;
      Array.fill w.live !row w.live_words 0;
      Util.Bitset.iter live set_live);
  let du = ctx.Alloc.Context.duchain in
  for d = 0 to dec.Dec.num_instrs - 1 do
    if Analysis.Duchain.is_def du d && any_shared dec.Dec.shared_dp du d 0 then
      w.flags.(d) <- w.flags.(d) lor shared_consumer
  done;
  Array.iter
    (fun (b : Ir.Block.t) ->
      if Ir.Terminator.is_backward b.Ir.Block.term ~at:b.Ir.Block.label then
        Option.iter
          (fun id -> w.flags.(id) <- w.flags.(id) lor backward_last)
          (Ir.Block.last_id b))
    k.Ir.Kernel.blocks

let live_after w id r =
  w.live.((id * w.live_words) + (r / live_bits)) land (1 lsl (r mod live_bits)) <> 0

let rec reads (srcs : int array) base p n r =
  p < n && (srcs.(base + p) = r || reads srcs base (p + 1) n r)

(* Liveness just before [id] executes, where flushes happen. *)
let live_before w id r =
  let dec = w.dec in
  reads dec.Dec.srcs (id * Dec.max_srcs) 0 dec.Dec.nsrcs.(id) r
  || (dec.Dec.dst.(id) <> r && live_after w id r)

(* A value leaving the RFC or LRF (whose read is [cell]) is written
   back to the MRF iff it is live. *)
let writeback w id ~cell level live =
  if live then begin
    charge w id cell;
    if w.au then evict w id level ~writeback:true;
    charge w id wr_mrf;
    if w.au then place w id Obs.Audit.Mrf
  end
  else if w.au then evict w id level ~writeback:false

(* Write-allocate: a resident register is overwritten in place (no
   eviction, FIFO position unchanged); otherwise it is appended,
   evicting the oldest entry when the RFC is full. *)
let rfc_insert w id r =
  if not w.cached.(r) then begin
    let n = w.rfc_len in
    if n < w.rfc_entries then begin
      w.rfc.(n) <- r;
      w.rfc_len <- n + 1
    end
    else begin
      let e = w.rfc.(0) in
      for i = 1 to n - 1 do
        w.rfc.(i - 1) <- w.rfc.(i)
      done;
      w.rfc.(n - 1) <- r;
      w.cached.(e) <- false;
      writeback w id ~cell:rd_rfc Obs.Audit.Rfc (live_after w id e)
    end;
    w.cached.(r) <- true
  end;
  charge w id wr_rfc;
  if w.au then place w id Obs.Audit.Rfc

let rfc_remove w r =
  if w.cached.(r) then begin
    w.cached.(r) <- false;
    let m = ref 0 in
    for i = 0 to w.rfc_len - 1 do
      let x = w.rfc.(i) in
      if x <> r then begin
        w.rfc.(!m) <- x;
        incr m
      end
    done;
    w.rfc_len <- !m
  end

(* Deschedule (or backward-branch) flush: the LRF, then the RFC in
   FIFO order. *)
let flush w id =
  let l = w.lrf in
  if l >= 0 then begin
    w.lrf <- -1;
    writeback w id ~cell:rd_lrf Obs.Audit.Lrf (live_before w id l)
  end;
  for i = 0 to w.rfc_len - 1 do
    let r = w.rfc.(i) in
    w.cached.(r) <- false;
    writeback w id ~cell:rd_rfc Obs.Audit.Rfc (live_before w id r)
  done;
  w.rfc_len <- 0

let hw_step w id g =
  let dec = w.dec in
  let base = id * Dec.max_srcs and ns = dec.Dec.nsrcs.(id) in
  let dpi = if dec.Dec.shared_dp.(id) then 1 else 0 in
  (* Deschedule on an unresolved long-latency dependence. *)
  if blocked w dec.Dec.srcs base 0 ns g then begin
    desched w id Obs.Audit.Hw_dependence;
    if not w.never_flush then flush w id;
    w.cleared <- g
  end;
  for pos = 0 to ns - 1 do
    let r = dec.Dec.srcs.(base + pos) in
    if dpi = 0 && w.lrf = r then charge w id rd_lrf
    else if w.cached.(r) then charge w id (rd_rfc + dpi)
    else begin
      charge w id probe;
      charge w id (rd_mrf + dpi)
    end
  done;
  let d = dec.Dec.dst.(id) in
  if d >= 0 then begin
    if dec.Dec.is_ll.(id) then begin
      (* Long-latency results bypass the hierarchy (Sec. 2.2). *)
      charge w id (wr_mrf + dpi);
      if w.au then place w id Obs.Audit.Mrf;
      rfc_remove w d;
      if w.lrf = d then w.lrf <- -1;
      w.issued.(d) <- g
    end
    else if w.has_lrf && dpi = 0 && w.flags.(id) land shared_consumer = 0 then begin
      (* LRF insert; the evicted value cascades into the RFC. *)
      let e = w.lrf in
      if e <> d then begin
        w.lrf <- d;
        if e >= 0 then begin
          if live_after w id e then begin
            charge w id rd_lrf;
            if w.au then evict w id Obs.Audit.Lrf ~writeback:true;
            rfc_insert w id e
          end
          else if w.au then evict w id Obs.Audit.Lrf ~writeback:false
        end
      end;
      charge w id wr_lrf;
      if w.au then place w id Obs.Audit.Lrf;
      rfc_remove w d
    end
    else begin
      rfc_insert w id d;
      if w.lrf = d then w.lrf <- -1
    end
  end;
  if w.back_flush && w.flags.(id) land backward_last <> 0 then flush w id

(* --- the walk ------------------------------------------------------ *)

let level_sum rows off level =
  rows.(off + rd level) + rows.(off + rd level + 1) + rows.(off + wr level)
  + rows.(off + wr level + 1)

(* Counter tracks: add [sign] x instruction [id]'s row, per level, to
   the window of warp-local index [now].  Hw rows accumulate, so a step
   adds its row after minus before. *)
let bin_levels w id now sign =
  let win = now / counter_window in
  let s = w.s in
  if Array.length s.Scratch.tr_bins < 3 * (win + 1) then begin
    let bins = Array.make (6 * (win + 1)) 0 in
    Array.blit s.Scratch.tr_bins 0 bins 0 (Array.length s.Scratch.tr_bins);
    s.Scratch.tr_bins <- bins
  end;
  if win >= w.windows then w.windows <- win + 1;
  let off = id * cells and bins = s.Scratch.tr_bins in
  List.iteri
    (fun li level ->
      let i = (3 * win) + li in
      bins.(i) <- bins.(i) + (sign * level_sum w.rows off level))
    Energy.Model.[ Mrf; Orf; Lrf ]

(* Walk one warp's stream from [ids.(i)] to its end marker, -2 when
   the cap cut it short. *)
let rec walk_warp w ids i base =
  let id = ids.(i) in
  if id < 0 then begin
    if id = -2 then w.capped <- w.capped + 1
  end
  else begin
    let g = w.clock in
    w.clock <- g + 1;
    (match w.placement with
     | Some pl ->
       static_step w pl id g;
       if w.co then bin_levels w id (g - base) 1
     | None ->
       if w.co then bin_levels w id (g - base) (-1);
       hw_step w id g;
       if w.co then bin_levels w id (g - base) 1);
    walk_warp w ids (i + 1) base
  end

(* Emit the window bins as counter samples stamped with the warp-local
   dynamic-instruction index at the window start. *)
let emit_counters w =
  let bins = w.s.Scratch.tr_bins in
  List.iteri
    (fun li name ->
      for win = 0 to w.windows - 1 do
        let v = bins.((3 * win) + li) in
        if v <> 0 then
          Obs.Counters.sample name ~at:(float_of_int (win * counter_window)) (float_of_int v)
      done)
    [ "traffic.mrf_accesses"; "traffic.orf_accesses"; "traffic.lrf_accesses" ]

(* The one fold: each pc's row times [weights.(pc) * scale] into the
   per-strand counts, the merged counts and their attribution. *)
let fold (ctx : Alloc.Context.t) (dec : Dec.t) rows weights ~scale ~attribution =
  let partition = ctx.Alloc.Context.partition in
  let ni = dec.Dec.num_instrs in
  let create _ =
    let c = Energy.Counts.create () in
    if attribution then Energy.Counts.enable_attribution c ~instrs:ni;
    c
  in
  let per_strand = Array.init (Int.max 1 (Strand.Partition.num_strands partition)) create in
  let counts = create () in
  for pc = 0 to ni - 1 do
    let times = weights.(pc) * scale in
    if times > 0 then begin
      let off = pc * cells in
      Energy.Counts.add_row
        per_strand.(Strand.Partition.strand_of_instr partition pc)
        rows ~off ~times ~pc;
      Energy.Counts.add_row counts rows ~off ~times ~pc
    end
  done;
  (counts, per_strand)

let price ctx placement weights =
  let s = Scratch.domain_local () in
  let dec = Scratch.dec_for s ctx in
  Scratch.ensure_traffic s ~num_instrs:dec.Dec.num_instrs ~num_regs:1 ~rfc_entries:0 ~live_words:0;
  static_rows s.Scratch.tr_rows dec placement;
  fst (fold ctx dec s.Scratch.tr_rows weights ~scale:1 ~attribution:false)

let run_inner ?(warps = 32) ?(seed = 0x5eed) ?(max_dynamic_per_warp = Scratch.default_max_dynamic)
    ?(long_latency_shadow = 50) ?(attribution = false) ?scratch (ctx : Alloc.Context.t) scheme =
  let s = match scratch with Some s -> s | None -> Scratch.domain_local () in
  let k = ctx.Alloc.Context.kernel in
  let dec = Scratch.dec_for s ctx in
  let nr = Int.max 1 k.Ir.Kernel.num_regs in
  let live_words = (nr + live_bits - 1) / live_bits in
  (* Baseline and Sw have no hardware caches: their [opts] are unread. *)
  let placement, opts =
    match scheme with
    | Baseline -> (Some (Alloc.Placement.baseline k), hw_defaults ~rfc_entries:0)
    | Sw { placement; _ } -> (Some placement, hw_defaults ~rfc_entries:0)
    | Hw opts ->
      if opts.rfc_entries < 1 then invalid_arg "Sim.Traffic.run: rfc_entries < 1";
      (None, opts)
  in
  let hw = Option.is_none placement in
  Scratch.ensure_traffic s ~num_instrs:dec.Dec.num_instrs ~num_regs:nr
    ~rfc_entries:opts.rfc_entries ~live_words:(if hw then live_words else 0);
  (* Recorder enablement is sampled once per run: the sinks never
     change mid-run. *)
  let co = Obs.Counters.is_enabled () in
  if co then Array.fill s.Scratch.tr_bins 0 (Array.length s.Scratch.tr_bins) 0;
  let w =
    {
      s;
      dec;
      rows = s.Scratch.tr_rows;
      exec = s.Scratch.tr_exec;
      flags = s.Scratch.tr_flags;
      live = s.Scratch.tr_live;
      issued = s.Scratch.tr_issued;
      cached = s.Scratch.tr_cached;
      rfc = s.Scratch.tr_rfc;
      live_words;
      shadow = long_latency_shadow;
      placement;
      sw = (match scheme with Sw _ -> true | Baseline | Hw _ -> false);
      rfc_entries = opts.rfc_entries;
      has_lrf = opts.with_lrf;
      never_flush = opts.never_flush;
      back_flush = opts.flush_on_backward_branch;
      au = Obs.Audit.is_enabled ();
      co;
      warp = 0;
      clock = 0;
      cleared = 0;
      last_ll = -1;
      rfc_len = 0;
      lrf = -1;
      windows = 0;
      desched = 0;
      capped = 0;
    }
  in
  (match placement with Some pl -> static_rows w.rows dec pl | None -> hw_tables w ctx);
  Scratch.fill_streams s ~max_dynamic:max_dynamic_per_warp k ~warps ~seed;
  let ids = s.Scratch.ids and pc = s.Scratch.pc in
  (* Under Baseline and Sw a step's counts are static per pc, and each
     warp starts with [cleared] at the walk clock, so no earlier warp's
     long-latency issue is outstanding: a warp's counts depend only on
     its stream.  When every warp starts at the one stream the fill
     stored, warp 0 is walked alone and stands for all [warps].  The
     audit and counter recorders emit per warp, so their runs walk
     every warp. *)
  let walked, weight =
    if (not hw) && (not w.au) && (not co) && warps > 1 && pc.(warps - 1) = 0 then (1, warps)
    else (warps, 1)
  in
  for warp = 0 to walked - 1 do
    w.warp <- warp;
    w.cleared <- w.clock;
    for i = 0 to w.rfc_len - 1 do
      w.cached.(w.rfc.(i)) <- false
    done;
    w.rfc_len <- 0;
    w.lrf <- -1;
    walk_warp w ids pc.(warp) w.clock
  done;
  if co then emit_counters w;
  let counts, per_strand = fold ctx dec w.rows w.exec ~scale:weight ~attribution in
  let dynamic_instrs = w.clock * weight
  and desched_events = w.desched * weight
  and capped_warps = w.capped * weight in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr ~by:dynamic_instrs m_dynamic;
  Obs.Metrics.incr ~by:desched_events m_desched;
  Obs.Metrics.incr ~by:capped_warps m_capped;
  { counts; per_strand; dynamic_instrs; desched_events; capped_warps }

let run ?warps ?seed ?max_dynamic_per_warp ?long_latency_shadow ?attribution ?scratch ctx
    scheme =
  Obs.Span.with_span "simulate" (fun () ->
      run_inner ?warps ?seed ?max_dynamic_per_warp ?long_latency_shadow ?attribution ?scratch
        ctx scheme)
