(* Helpers shared by more than one suite: substring search for the
   suites that inspect rendered text and HTML pages, the timeline
   tiling check for the suites that record Sim.Perf runs, count rows
   for the suites that fill Energy.Counts by hand, and one warp's
   instruction stream for the suites that check a simulator against
   it. *)

(* Warp [warp]'s stream from its own [Sim.Cf.fill], independent of any
   scratch table: the instruction ids in order and the end marker (-1
   after Ret, -2 at the cap), under the simulators' default cap unless
   [max_dynamic] is given. *)
let cf_stream ?(max_dynamic = Sim.Scratch.default_max_dynamic) k ~warp ~seed =
  let counters = Array.make (2 * Ir.Kernel.block_count k) 0 in
  let ids = ref [] and marker = ref 0 in
  Sim.Cf.fill ~max_dynamic k ~warp ~seed ~counters (fun id ->
      if id < 0 then marker := id else ids := id :: !ids);
  (List.rev !ids, !marker)

(* Offset of the first occurrence of [needle] in [s] at or after [from]. *)
let find_sub ?(from = 0) s needle =
  let n = String.length needle and len = String.length s in
  let rec go i = if i + n > len then None else if String.sub s i n = needle then Some i else go (i + 1) in
  go from

(* Number of (possibly overlapping) occurrences of [needle] in [s]. *)
let count_sub s needle =
  let rec go from acc =
    match find_sub ~from s needle with None -> acc | Some i -> go (i + 1) (acc + 1)
  in
  go 0 0

(* What is wrong with a run's recorded timeline, empty when nothing:
   each warp's intervals, in emission order, must tile [0, cycles)
   with no gap, overlap or empty interval; neighbouring intervals must
   differ in state (equal states merge); and per cause the intervals
   must re-derive the warp's stall row, which sums to [cycles]. *)
let timeline_errors (r : Sim.Perf.result) (ivs : Obs.Timeline.interval list) =
  let cycles = r.Sim.Perf.cycles in
  let warps = Array.length r.Sim.Perf.per_warp in
  let by_warp = Array.make warps [] in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  List.iter
    (fun (iv : Obs.Timeline.interval) ->
      if iv.warp < 0 || iv.warp >= warps then fail "interval of unknown warp %d" iv.warp
      else by_warp.(iv.warp) <- iv :: by_warp.(iv.warp))
    ivs;
  Array.iteri
    (fun w rev ->
      let wivs = List.rev rev in
      let rec tiles expected = function
        | [] ->
          if expected <> cycles then fail "warp %d: intervals end at %d, not %d" w expected cycles
        | (iv : Obs.Timeline.interval) :: tl ->
          if iv.start <> expected || iv.stop <= iv.start then
            fail "warp %d: interval [%d, %d) where [%d, ...) was due" w iv.start iv.stop expected
          else tiles iv.stop tl
      in
      tiles 0 wivs;
      let rec maximal = function
        | (a : Obs.Timeline.interval) :: (b :: _ as tl) ->
          if a.state = b.state then
            fail "warp %d: neighbours [%d, %d) and [%d, %d) are both %s" w a.start a.stop b.start
              b.stop (Obs.Timeline.state_name a.state)
          else maximal tl
        | _ -> ()
      in
      maximal wivs;
      let row = r.Sim.Perf.per_warp.(w).Sim.Perf.breakdown in
      if Sim.Perf.breakdown_total row <> cycles then
        fail "warp %d: row sums to %d, not %d" w (Sim.Perf.breakdown_total row) cycles;
      List.iter
        (fun cause ->
          let sum =
            List.fold_left
              (fun acc (iv : Obs.Timeline.interval) ->
                if iv.state = cause then acc + (iv.stop - iv.start) else acc)
              0 wivs
          in
          let n = Sim.Perf.breakdown_get row cause in
          if sum <> n then
            fail "warp %d: intervals give %s %d, the row %d" w (Obs.Timeline.state_name cause) sum
              n)
        Obs.Timeline.all_states)
    by_warp;
  List.rev !errs

(* A bitset's members in ascending order, as [Util.Bitset.iter] visits
   them. *)
let bitset_members b =
  let acc = ref [] in
  Util.Bitset.iter b (fun i -> acc := i :: !acc);
  List.rev !acc

(* Adds one [Energy.Counts] row holding [n] in each listed cell
   ([Energy.Counts.read_cell], [write_cell] or [probe_cell]), charged
   to instruction [pc]. *)
let add_counts ?(pc = 0) c cells =
  let row = Array.make Energy.Counts.row_cells 0 in
  List.iter (fun (cell, n) -> row.(cell) <- row.(cell) + n) cells;
  Energy.Counts.add_row c row ~off:0 ~times:1 ~pc
