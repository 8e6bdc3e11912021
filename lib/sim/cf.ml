(* One fill walks a warp's stream block by block: ids are dense in
   layout order, so a block visit pushes its first id and the ones
   counting up from it, then resolves the block's terminator.
   [counters] holds each block's consecutive taken count of its [Loop]
   branch at [b] and its terminator resolutions so far at [nb + b].
   The walk state is local refs that no closure captures, so a fill
   allocates nothing. *)
let fill ~max_dynamic (k : Ir.Kernel.t) ~warp ~seed ~counters push =
  let blocks = k.Ir.Kernel.blocks in
  let nb = Array.length blocks in
  Array.fill counters 0 (2 * nb) 0;
  let warp_hash = Util.Prng.hash2 seed warp in
  (* The block entered next, or the end marker once pushed; the empty
     blocks passed since the last instruction (a chain longer than
     twice the block count loops through empty blocks only, and ends
     the stream as the cap does); the instructions pushed. *)
  let b = ref 0 and steps = ref 0 and executed = ref 0 in
  while !b >= 0 do
    let cur = !b in
    let blk = blocks.(cur) in
    let n = Array.length blk.Ir.Block.instrs in
    (* The cap is checked after each instruction, so a block that
       reaches it stops there, and a walk pushes at least one. *)
    let room = max_dynamic - !executed in
    let fall = if cur + 1 < nb then cur + 1 else -1 in
    let next =
      if !steps > 2 * nb then -2
      else if n > 0 && room <= n then begin
        let first = blk.Ir.Block.instrs.(0).Ir.Instr.id in
        for i = 0 to Int.max 1 room - 1 do
          push (first + i)
        done;
        -2
      end
      else begin
        if n = 0 then incr steps
        else begin
          let first = blk.Ir.Block.instrs.(0).Ir.Instr.id in
          for i = 0 to n - 1 do
            push (first + i)
          done;
          executed := !executed + n;
          steps := 0
        end;
        let visits = counters.(nb + cur) + 1 in
        counters.(nb + cur) <- visits;
        match blk.Ir.Block.term with
        | Ir.Terminator.Fallthrough -> fall
        | Ir.Terminator.Jump l -> l
        | Ir.Terminator.Ret -> -1
        | Ir.Terminator.Branch { target; behavior } ->
          let taken =
            match behavior with
            | Ir.Terminator.Always_taken -> true
            | Ir.Terminator.Never_taken -> false
            | Ir.Terminator.Loop trips ->
              if counters.(cur) < trips - 1 then begin
                counters.(cur) <- counters.(cur) + 1;
                true
              end
              else begin
                counters.(cur) <- 0;
                false
              end
            | Ir.Terminator.Taken_with_prob p ->
              let h = Util.Prng.hash2 warp_hash (Util.Prng.hash2 cur visits) in
              float_of_int (h land 0xFFFFFF) /. 16777216.0 < p
          in
          if taken then target else fall
      end
    in
    if next < 0 then push next;
    b := next
  done

let warp_invariant (k : Ir.Kernel.t) =
  Array.for_all
    (fun (b : Ir.Block.t) ->
      match b.Ir.Block.term with
      | Ir.Terminator.Branch { behavior = Ir.Terminator.Taken_with_prob _; _ } -> false
      | _ -> true)
    k.Ir.Kernel.blocks
