(** Control-flow graph over a kernel's basic blocks. *)

type t = {
  num_blocks : int;
  succs : int list array;
  preds : int list array;
}

val of_kernel : Ir.Kernel.t -> t

val reachable : t -> bool array
(** Reachability from the entry (block 0). *)

val reverse_postorder : t -> int array
(** Reverse postorder of the blocks reachable from the entry. *)

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
