(* Dominance over the reversed CFG: node 0 is a virtual exit with an
   edge to every [Ret] block, and block b is node b + 1, so the exit is
   the entry [Dominance.compute] starts from. *)
type t = Dominance.t

let compute (k : Ir.Kernel.t) (cfg : Cfg.t) =
  let n = cfg.Cfg.num_blocks in
  let node b = b + 1 in
  let succs = Array.make (n + 1) [] and preds = Array.make (n + 1) [] in
  Array.iter
    (fun (b : Ir.Block.t) ->
      let l = b.Ir.Block.label in
      succs.(node l) <- List.map node cfg.Cfg.preds.(l);
      preds.(node l) <- List.map node cfg.Cfg.succs.(l);
      match b.Ir.Block.term with
      | Ir.Terminator.Ret ->
        succs.(0) <- node l :: succs.(0);
        preds.(node l) <- 0 :: preds.(node l)
      | Ir.Terminator.Fallthrough | Ir.Terminator.Jump _ | Ir.Terminator.Branch _ -> ())
    k.Ir.Kernel.blocks;
  Dominance.compute (Cfg.make ~succs ~preds)

let ipdom t b =
  match Dominance.idom t (b + 1) with Some p when p > 0 -> Some (p - 1) | Some _ | None -> None
