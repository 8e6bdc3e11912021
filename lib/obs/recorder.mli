(** The structured-event recorder shared by {!Audit}, {!Explain} and
    {!Timeline}.

    A recorder is a sink function behind a flag.  Disabled (the
    default), instrumented call sites see [is_enabled () = false] and
    skip event construction entirely: the fast path is one atomic load,
    no lock, no allocation.  Enabled, sink invocation is serialized by a
    mutex, so one sink — a channel writer, a tallying closure — never
    sees two events at once even when simulators run on worker domains.
    The mutex is an Eprof-profiled lock named ["obs.<name>.sink"], so
    [rfh engine] reports its contention under [--jobs]. *)

(** What an event type supplies to become a recorder. *)
module type EVENT = sig
  type t

  val name : string
  (** Short recorder name: the lock is ["obs.<name>.sink"]. *)

  val to_json : t -> Json.t
  val of_json : Json.t -> (t, string) result
  val pp : Format.formatter -> t -> unit
end

module type S = sig
  type t

  val is_enabled : unit -> bool
  (** One atomic load; sample it once per allocator or simulator run. *)

  val emit : t -> unit
  (** Forward to the installed sink under the recorder mutex; a no-op
      when disabled. *)

  val set_sink : (t -> unit) -> unit
  (** Install a sink and enable the recorder. *)

  val set_enabled : bool -> unit
  (** Toggle emission without replacing the sink. *)

  val disable : unit -> unit
  (** Disable and drop the installed sink. *)

  (** {1 Sinks} *)

  val memory_sink : unit -> (t -> unit) * (unit -> t list)
  (** Collecting sink; the getter returns events in emission order. *)

  val tee : (t -> unit) list -> t -> unit

  val jsonl_sink : out_channel -> t -> unit
  (** One compact JSON object per line; the caller owns the channel. *)

  val printer_sink : Format.formatter -> t -> unit
  (** Human-readable rendering, one line per event. *)

  (** {1 Reading back} *)

  val load_jsonl : path:string -> (t list * int, string) result
  (** Garbage-tolerant loader: every decodable line in file order plus
      the count of non-empty lines that failed to parse or decode.
      [Error] only when the file itself cannot be read. *)
end

module Make (E : EVENT) : S with type t = E.t
(** [t] stays visible, so a recorder can be passed as a first-class
    [S] module. *)
