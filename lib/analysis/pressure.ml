type t = {
  registers_used : int;
  max_live : int;
  max_live_instr : int;
}

let compute (k : Ir.Kernel.t) (cfg : Cfg.t) =
  let used = Hashtbl.create 32 in
  Ir.Kernel.iter_instrs k (fun _ i ->
      List.iter (fun r -> Hashtbl.replace used r ()) i.Ir.Instr.srcs;
      Option.iter (fun r -> Hashtbl.replace used r ()) i.Ir.Instr.dst);
  let max_live = ref 0 in
  let max_at = ref 0 in
  (* The walk visits each block bottom up; the lowest id wins a tie, as
     in a layout-order scan. *)
  Liveness.iter_live_after (Liveness.compute k cfg) (fun i live ->
      let n = Util.Bitset.count live and id = i.Ir.Instr.id in
      if n > !max_live || (n = !max_live && id < !max_at) then begin
        max_live := n;
        max_at := id
      end);
  { registers_used = Hashtbl.length used; max_live = !max_live; max_live_instr = !max_at }

let resident_warps ?(mrf_bytes = 128 * 1024) ?(threads_per_warp = 32) ?(bytes_per_reg = 4)
    registers =
  if registers <= 0 then max_int
  else mrf_bytes / (registers * bytes_per_reg * threads_per_warp)
