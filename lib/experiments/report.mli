(** The paper's artefacts and the tables that render them. *)

type artefact =
  | Fig2 | Fig11 | Fig12 | Fig13 | Fig14 | Fig15
  | Perf | Encoding | Limit | Ablation | Divergence | Pressure | Scheduling | Tables

val artefact_names : (string * artefact) list
(** CLI-facing names: ["fig2"], ..., ["perf"], ["encoding"], ["limit"],
    ["tables"]. *)

val tables_of : Options.t -> artefact -> Util.Table.t list
(** The artefact's tables, in the order [rfh] prints them. *)

val clear_caches : unit -> unit
(** Reset every experiment memo table (cold-regeneration timing). *)

val name_of : artefact -> string
(** CLI-facing name of one artefact (reverse of {!artefact_names}). *)

val metrics_table : unit -> Util.Table.t
(** Snapshot of the global {!Obs.Metrics} registry as a table — what
    the [--metrics] flag appends after an artefact's output. *)
