type t = {
  idom : int array;       (* -1 = undefined (entry / unreachable) *)
  rpo_index : int array;  (* -1 = unreachable *)
}

let compute (cfg : Cfg.t) =
  let n = cfg.Cfg.num_blocks in
  let rpo = Cfg.reverse_postorder cfg in
  let rpo_index = Cfg.rpo_index cfg in
  let idom = Array.make n (-1) in
  if n > 0 then begin
    idom.(0) <- 0;
    (* Intersect walking up the (partially built) dominator tree. *)
    let rec intersect a b =
      if a = b then a
      else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
      else intersect a idom.(b)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          if b <> 0 then begin
            let processed_preds =
              List.filter (fun p -> rpo_index.(p) >= 0 && idom.(p) >= 0) cfg.Cfg.preds.(b)
            in
            match processed_preds with
            | [] -> ()
            | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
          end)
        rpo
    done
  end;
  { idom; rpo_index }

let idom t b =
  if b = 0 || t.idom.(b) < 0 then None else Some t.idom.(b)

let dominates t a b =
  if t.rpo_index.(a) < 0 || t.rpo_index.(b) < 0 then false
  else begin
    (* Walk b's dominator chain upwards; rpo index strictly decreases,
       so a cannot appear once the chain is at or before it in RPO. *)
    let rec walk x =
      if x = a then true else if t.rpo_index.(x) <= t.rpo_index.(a) then false else walk t.idom.(x)
    in
    walk b
  end

let instr_dominates (k : Ir.Kernel.t) t i j =
  let bi = Ir.Kernel.block_of k i and bj = Ir.Kernel.block_of k j in
  if bi = bj then i <= j else dominates t bi bj
