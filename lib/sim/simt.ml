let m_runs = Obs.Metrics.counter "sim.simt.runs"
let m_divergent = Obs.Metrics.counter "sim.simt.divergent_branches"
let m_reconvergences = Obs.Metrics.counter "sim.simt.reconvergences"

type stats = {
  warp_instructions : int;
  thread_instructions : int;
  simd_efficiency : float;
  max_stack_depth : int;
  divergent_branches : int;
  reconvergences : int;
}

type frame = {
  mutable block : int;
  mutable mask : int;
  rpc : int;  (* reconvergence block; -1 = kernel exit *)
}

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

let clusters_of ?(threads_per_warp = 32) mask =
  let n = (threads_per_warp + 3) / 4 in
  let c = ref 0 in
  for g = 0 to n - 1 do
    if mask land (0xF lsl (4 * g)) <> 0 then incr c
  done;
  !c

(* [postdom] is hoisted to a parameter so multi-warp drivers compute
   the CFG and post-dominator tree once per kernel, not once per warp. *)
let run_warp_pre ?(threads_per_warp = 32) ?(max_dynamic = 100_000) postdom (k : Ir.Kernel.t)
    ~warp ~seed ~on_instr =
  let nb = Ir.Kernel.block_count k in
  let full_mask = if threads_per_warp >= 62 then invalid_arg "Simt: threads_per_warp too large"
    else (1 lsl threads_per_warp) - 1
  in
  let trip_counts = Array.make nb 0 in
  let visit_counts = Array.make nb 0 in
  let stack = ref [ { block = 0; mask = full_mask; rpc = -1 } ] in
  let executed = ref 0 in
  let thread_instrs = ref 0 in
  let max_depth = ref 1 in
  let divergent = ref 0 in
  let reconverged = ref 0 in
  (* A frame created by a divergent branch (rpc >= 0) rejoining at its
     reconvergence point; the initial frame (rpc = -1) never counts. *)
  let pop_at_rpc rpc = if rpc >= 0 then incr reconverged in
  let thread_takes block visit lane =
    let h =
      Util.Prng.hash2
        (Util.Prng.hash2 seed warp)
        (Util.Prng.hash2 (Util.Prng.hash2 block visit) lane)
    in
    float_of_int (h land 0xFFFFFF) /. 16777216.0
  in
  let continue_run = ref true in
  (* Guards against empty-block control cycles that execute nothing. *)
  let steps = ref 0 in
  while !continue_run do
    incr steps;
    if !steps > max_dynamic * 4 then continue_run := false;
    match !stack with
    | [] -> continue_run := false
    | top :: rest ->
      if top.block = top.rpc then begin
        pop_at_rpc top.rpc;
        stack := rest
      end
      else begin
        let b = k.Ir.Kernel.blocks.(top.block) in
        (* Execute the block's instructions under the mask. *)
        let instrs = b.Ir.Block.instrs in
        for ii = 0 to Array.length instrs - 1 do
          if !continue_run then begin
            incr executed;
            thread_instrs := !thread_instrs + popcount top.mask;
            on_instr instrs.(ii) ~active:(popcount top.mask)
              ~clusters:(clusters_of ~threads_per_warp top.mask);
            if !executed >= max_dynamic then continue_run := false
          end
        done;
        if !continue_run then begin
          let uniform_goto nb_block =
            if nb_block = top.rpc then begin
              pop_at_rpc top.rpc;
              stack := rest
            end
            else top.block <- nb_block
          in
          visit_counts.(top.block) <- visit_counts.(top.block) + 1;
          match b.Ir.Block.term with
          | Ir.Terminator.Ret -> stack := rest
          | Ir.Terminator.Fallthrough -> uniform_goto (top.block + 1)
          | Ir.Terminator.Jump l -> uniform_goto l
          | Ir.Terminator.Branch { target; behavior } ->
            let fall = top.block + 1 in
            let taken_mask =
              match behavior with
              | Ir.Terminator.Always_taken -> top.mask
              | Ir.Terminator.Never_taken -> 0
              | Ir.Terminator.Loop n ->
                (* Counted loops are warp-uniform. *)
                if trip_counts.(top.block) < n - 1 then begin
                  trip_counts.(top.block) <- trip_counts.(top.block) + 1;
                  top.mask
                end
                else begin
                  trip_counts.(top.block) <- 0;
                  0
                end
              | Ir.Terminator.Taken_with_prob p ->
                (* Per-thread outcome: genuine divergence. *)
                let visit = visit_counts.(top.block) in
                let m = ref 0 in
                for lane = 0 to threads_per_warp - 1 do
                  if top.mask land (1 lsl lane) <> 0 && thread_takes top.block visit lane < p
                  then m := !m lor (1 lsl lane)
                done;
                !m
            in
            let fall_mask = top.mask land lnot taken_mask in
            if taken_mask = 0 then uniform_goto fall
            else if fall_mask = 0 then uniform_goto target
            else begin
              incr divergent;
              let rpc =
                match Analysis.Postdom.ipdom postdom top.block with
                | Some r -> r
                | None -> -1
              in
              (* The current frame waits at the reconvergence point. *)
              let reconv = { block = rpc; mask = top.mask; rpc = top.rpc } in
              let fall_frame = { block = fall; mask = fall_mask; rpc } in
              let taken_frame = { block = target; mask = taken_mask; rpc } in
              (* Replace top with reconv, then stack the two sides. *)
              stack := taken_frame :: fall_frame :: reconv :: rest;
              max_depth := Int.max !max_depth (List.length !stack)
            end
        end
      end
  done;
  {
    warp_instructions = !executed;
    thread_instructions = !thread_instrs;
    simd_efficiency =
      (if !executed = 0 then 1.0
       else float_of_int !thread_instrs /. float_of_int (!executed * threads_per_warp));
    max_stack_depth = !max_depth;
    divergent_branches = !divergent;
    reconvergences = !reconverged;
  }

let run_warp ?threads_per_warp ?max_dynamic (k : Ir.Kernel.t) ~warp ~seed ~on_instr =
  let cfg = Analysis.Cfg.of_kernel k in
  let postdom = Analysis.Postdom.compute k cfg in
  run_warp_pre ?threads_per_warp ?max_dynamic postdom k ~warp ~seed ~on_instr

type traffic_result = {
  clusters : int array;
  stats : stats;
}

let merge_stats a b =
  let warp_instructions = a.warp_instructions + b.warp_instructions in
  let thread_instructions = a.thread_instructions + b.thread_instructions in
  {
    warp_instructions;
    thread_instructions;
    simd_efficiency =
      (if warp_instructions = 0 then 1.0
       else float_of_int thread_instructions /. float_of_int (warp_instructions * 32));
    max_stack_depth = Int.max a.max_stack_depth b.max_stack_depth;
    divergent_branches = a.divergent_branches + b.divergent_branches;
    reconvergences = a.reconvergences + b.reconvergences;
  }

(* Warp-instruction window width for the [simt.active_threads] track. *)
let counter_window = 32

let traffic ?(warps = 32) ?(seed = 0x5eed) ?max_dynamic_per_warp (ctx : Alloc.Context.t) =
  Obs.Span.with_span "simulate.simt" @@ fun () ->
  let k = ctx.Alloc.Context.kernel in
  let clusters = Array.make (Ir.Kernel.instr_count k) 0 in
  let co = Obs.Counters.is_enabled () in
  (* Active threads summed per window of warp-local instructions,
     accumulated across warps. *)
  let active_bins = Hashtbl.create 32 in
  let warp_instr = ref 0 in
  let on_instr (i : Ir.Instr.t) ~active ~clusters:c =
    if co then begin
      let w = !warp_instr / counter_window in
      (match Hashtbl.find_opt active_bins w with
      | Some r -> r := !r + active
      | None -> Hashtbl.add active_bins w (ref active));
      incr warp_instr
    end;
    let id = i.Ir.Instr.id in
    clusters.(id) <- clusters.(id) + c
  in
  let postdom = Analysis.Postdom.compute k (Analysis.Cfg.of_kernel k) in
  let stats = ref None in
  for w = 0 to warps - 1 do
    warp_instr := 0;
    let s = run_warp_pre ?max_dynamic:max_dynamic_per_warp postdom k ~warp:w ~seed ~on_instr in
    stats := Some (match !stats with None -> s | Some prev -> merge_stats prev s)
  done;
  if co then
    Hashtbl.fold (fun w r acc -> (w, !r) :: acc) active_bins []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> List.iter (fun (w, v) ->
           Obs.Counters.sample "simt.active_threads"
             ~at:(float_of_int (w * counter_window))
             (float_of_int v));
  let stats =
    Option.value !stats
      ~default:
        {
          warp_instructions = 0;
          thread_instructions = 0;
          simd_efficiency = 1.0;
          max_stack_depth = 0;
          divergent_branches = 0;
          reconvergences = 0;
        }
  in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr ~by:stats.divergent_branches m_divergent;
  Obs.Metrics.incr ~by:stats.reconvergences m_reconvergences;
  { clusters; stats }
