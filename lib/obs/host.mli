(** Host fingerprint: where a run happened.

    Cross-run telemetry ({!History}) and the manifest's non-gated
    [meta] section need to distinguish "the code changed" from "the
    machine changed": a timing shift on a different core count or OCaml
    version is a host effect, not a regression.  The fingerprint is
    collected once per process and cached — it never changes mid-run.

    None of these fields participate in the regression gate
    ({!Regress} ignores the manifest [meta] section wholesale), so a
    baseline recorded on one machine still checks cleanly on another;
    only {!Trend} reads them, to annotate change-points with the
    revision (and host) they landed on. *)

type t = {
  cores : int;  (** [Domain.recommended_domain_count ()] *)
  os : string;  (** [Sys.os_type], e.g. ["Unix"] *)
  ocaml : string;  (** [Sys.ocaml_version] *)
  git_rev : string;  (** HEAD commit hex, or ["unknown"] outside a checkout *)
  git_dirty : bool;  (** tracked files modified vs HEAD (false if undeterminable) *)
}

val fingerprint : unit -> t
(** The current host's fingerprint (cached after the first call). *)

val short_rev : string -> string
(** A git revision cut to its first 10 characters, as every trend view
    prints it. *)

val utc_now : unit -> string
(** Current UTC wall-clock time as ["YYYY-MM-DDTHH:MM:SSZ"]. *)

val codec : t Json.codec
