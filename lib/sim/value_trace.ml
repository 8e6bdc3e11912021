type stats = {
  values_produced : int;
  read_counts : Util.Stats.histogram;
  lifetimes_read_once : Util.Stats.histogram;
}

type live_value = {
  born : int;            (* dynamic index of the producing instruction *)
  mutable reads : int;
  mutable first_read : int;
}

let collect ?(warps = 4) ?(seed = 0x5eed) (k : Ir.Kernel.t) =
  let read_counts = Util.Stats.histogram () in
  let lifetimes = Util.Stats.histogram () in
  let produced = ref 0 in
  let nr = Int.max 1 k.Ir.Kernel.num_regs in
  let s = Scratch.domain_local () in
  Scratch.fill_streams s ~max_dynamic:Scratch.default_max_dynamic k ~warps ~seed;
  let ids = s.Scratch.ids and pc = s.Scratch.pc in
  for w = 0 to warps - 1 do
    let current : live_value option array = Array.make nr None in
    let finalize v =
      incr produced;
      Util.Stats.hincr read_counts v.reads;
      if v.reads = 1 then Util.Stats.hincr lifetimes (Int.max 1 (v.first_read - v.born))
    in
    (* [now] is the warp's dynamic index of the instruction. *)
    let rec step now =
      let id = ids.(pc.(w) + now) in
      if id >= 0 then begin
        let i = Ir.Kernel.instr k id in
        List.iter
          (fun r ->
            match current.(r) with
            | None -> ()  (* kernel input: not a value produced by the kernel *)
            | Some v ->
              v.reads <- v.reads + 1;
              if v.reads = 1 then v.first_read <- now)
          i.Ir.Instr.srcs;
        Option.iter
          (fun d ->
            Option.iter finalize current.(d);
            current.(d) <- Some { born = now; reads = 0; first_read = now })
          i.Ir.Instr.dst;
        step (now + 1)
      end
    in
    step 0;
    Array.iter (fun v -> Option.iter finalize v) current
  done;
  { values_produced = !produced; read_counts; lifetimes_read_once = lifetimes }

let merge stats_list =
  let read_counts = Util.Stats.histogram () in
  let lifetimes = Util.Stats.histogram () in
  let produced = ref 0 in
  List.iter
    (fun s ->
      produced := !produced + s.values_produced;
      List.iter (fun (k, n) -> Util.Stats.hincr read_counts ~by:n k) (Util.Stats.hbins s.read_counts);
      List.iter
        (fun (k, n) -> Util.Stats.hincr lifetimes ~by:n k)
        (Util.Stats.hbins s.lifetimes_read_once))
    stats_list;
  { values_produced = !produced; read_counts; lifetimes_read_once = lifetimes }
