(** Shared experiment options. *)

type t = {
  warps : int;       (** machine-resident warps simulated per kernel *)
  seed : int;        (** branch-behaviour seed *)
  params : Energy.Params.t;
  params_fp : string;
  (** precomputed {!fingerprint} of [params] — always update the two
      together (use {!with_params}); cache keys depend on it *)
  benchmarks : Workloads.Registry.entry list;  (** workload selection *)
  jobs : int;
  (** worker domains for per-benchmark fan-out; [1] (the default) is
      the exact serial path *)
}

val default : unit -> t
(** 32 warps, the paper's energy parameters, all 36 benchmarks,
    serial. *)

val quick : unit -> t
(** 8 warps — same normalized results for warp-uniform kernels, used by
    the examples. *)

val with_benchmarks : t -> string list -> t
(** Restrict to the named benchmarks.
    @raise Invalid_argument on an unknown name. *)

val with_params : t -> Energy.Params.t -> t
(** Replace the energy parameters and refresh [params_fp]. *)

val with_jobs : t -> int -> t
(** Set the fan-out width; [0] means {!Util.Pool.default_jobs} ()
    (all recommended domains), anything below 1 clamps to serial. *)

val fingerprint : Energy.Params.t -> string
(** Marshal-based full-fidelity key component for memo tables. *)
