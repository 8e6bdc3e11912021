(** Control-flow graph over a kernel's basic blocks. *)

type t = {
  num_blocks : int;
  succs : int list array;
  preds : int list array;
  rpo : int array;  (** reverse postorder of the blocks reachable from the entry (block 0) *)
  rpo_index : int array;  (** each block's position in [rpo]; -1 if unreachable *)
}

val of_kernel : Ir.Kernel.t -> t

val make : succs:int list array -> preds:int list array -> t
(** The graph with these edges, its order computed in one depth-first
    walk; {!of_kernel} builds a kernel's through it, once per compile. *)

val backward_targets : t -> bool array
(** [backward_targets.(b)] iff some layout-order backward edge
    [src -> b] with [b <= src] targets [b] — the paper's "backwards
    branch" notion (Sec. 4.1), which is defined on code layout, not on
    dominance.  Such blocks must begin a new strand. *)

val solve_union :
  t ->
  forward:bool ->
  join:Util.Bitset.matrix ->
  transfer:Util.Bitset.matrix ->
  kill:(int -> Util.Bitset.t -> unit) ->
  unit
(** The least fixpoint of a union (may) dataflow problem, solved in
    place over two [blocks]-row matrices of one capacity: row b of
    [join] becomes the union of [transfer]'s rows over b's predecessors
    (successors unless [forward]), and row b of [transfer] grows by
    [join] minus what [kill b] removes from a set (kill b s must
    remove block b's kill set from s).  Call it with an empty [join]
    and each [transfer] row holding b's gen set.  A layout-order sweep
    (reverse unless [forward]) revisits a block only when one of its
    sources grew; it allocates its pending flags and one scratch set. *)
