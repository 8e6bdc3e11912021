(** Dynamic register-value usage statistics (paper Fig. 2).

    Tracks every dynamic value written to the register file: how many
    times it is read before being overwritten (or the kernel ends), and
    — for values read exactly once — the dynamic instruction distance
    between production and that read. *)

type stats = {
  values_produced : int;
  read_counts : Util.Stats.histogram;
  (** key = number of reads of the dynamic value (0, 1, 2, ...) *)
  lifetimes_read_once : Util.Stats.histogram;
  (** key = dynamic instruction distance def->read, for read-once values *)
}

val collect : ?warps:int -> ?seed:int -> Ir.Kernel.t -> stats
(** Over the streams of [warps] warps (default 4), read from this
    domain's {!Scratch.fill_streams} table, each capped at
    {!Scratch.default_max_dynamic} instructions. *)

val merge : stats list -> stats
(** Pool statistics across kernels (per-suite aggregation). *)
