type t = {
  idom : int array;       (* -1 = undefined (entry / unreachable) *)
  pre : int array;        (* dominator-tree preorder number; -1 = unreachable *)
  post : int array;       (* dominator-tree postorder number *)
}

let compute (cfg : Cfg.t) =
  let n = cfg.Cfg.num_blocks in
  let rpo = cfg.Cfg.rpo and rpo_index = cfg.Cfg.rpo_index in
  let idom = Array.make n (-1) in
  if n > 0 then begin
    idom.(0) <- 0;
    (* Intersect walking up the (partially built) dominator tree. *)
    let rec intersect a b =
      if a = b then a
      else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
      else intersect a idom.(b)
    in
    (* Folds the processed predecessors (reachable, idom known) in
       order: the first is the start, the rest are intersected in; -1
       if there is none. *)
    let meet acc p =
      if rpo_index.(p) < 0 || idom.(p) < 0 then acc else if acc < 0 then p else intersect acc p
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          if b <> 0 then begin
            let new_idom = List.fold_left meet (-1) cfg.Cfg.preds.(b) in
            if new_idom >= 0 && idom.(b) <> new_idom then begin
              idom.(b) <- new_idom;
              changed := true
            end
          end)
        rpo
    done
  end;
  (* Number the dominator tree depth-first: a dominates b iff b's
     [pre, post] interval nests in a's.  Children come from [idom] as
     compressed rows; an explicit stack walks them. *)
  let child_start = Array.make (n + 1) 0 in
  for b = 1 to n - 1 do
    if idom.(b) >= 0 then child_start.(idom.(b) + 1) <- child_start.(idom.(b) + 1) + 1
  done;
  for b = 1 to n do
    child_start.(b) <- child_start.(b) + child_start.(b - 1)
  done;
  let children = Array.make child_start.(n) 0 and next = Array.sub child_start 0 n in
  for b = 1 to n - 1 do
    let p = idom.(b) in
    if p >= 0 then begin
      children.(next.(p)) <- b;
      next.(p) <- next.(p) + 1
    end
  done;
  let pre = Array.make n (-1) and post = Array.make n (-1) in
  if n > 0 then begin
    (* [stack.(i)] is a block on the current path; [next.(b)] its next
       child to visit. *)
    Array.blit child_start 0 next 0 n;
    let stack = Array.make n 0 and depth = ref 1 and pres = ref 1 and posts = ref 0 in
    pre.(0) <- 0;
    while !depth > 0 do
      let b = stack.(!depth - 1) in
      if next.(b) < child_start.(b + 1) then begin
        let c = children.(next.(b)) in
        next.(b) <- next.(b) + 1;
        pre.(c) <- !pres;
        incr pres;
        stack.(!depth) <- c;
        incr depth
      end
      else begin
        post.(b) <- !posts;
        incr posts;
        decr depth
      end
    done
  end;
  { idom; pre; post }

let idom t b =
  if b = 0 || t.idom.(b) < 0 then None else Some t.idom.(b)

let dominates t a b =
  t.pre.(a) >= 0 && t.pre.(b) >= 0 && t.pre.(a) <= t.pre.(b) && t.post.(b) <= t.post.(a)

let instr_dominates (k : Ir.Kernel.t) t i j =
  let bi = Ir.Kernel.block_of k i and bj = Ir.Kernel.block_of k j in
  if bi = bj then i <= j else dominates t bi bj
