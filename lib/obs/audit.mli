(** Allocator / scheduler audit log: a structured event sink.

    The allocator, the strand partitioner and both simulators report
    decisions here, through a {!Recorder}, instead of formatting ad-hoc
    debug text; disabled, the simulator hot path neither allocates nor
    calls anything.

    Event semantics:
    - [Alloc]: the allocator placed a value (write unit) or a read
      range (read unit) at an upper level, with the estimated energy
      savings that justified it.
    - [Place]: a dynamic register-file write observed by the traffic
      simulator — one event per counted write, so summing [Place]
      events per level reproduces {!Energy.Counts} write totals
      exactly.
    - [Fill]: an MRF-served read whose value is simultaneously written
      into an ORF entry (read-operand allocation, paper Sec. 4.4).
    - [Evict]: a hardware register-file-cache or HW-LRF eviction;
      [writeback] tells whether the value was live and written back.
    - [Strand_boundary]: a static strand start in the compiled kernel.
    - [Desched]: a warp deschedule event.  The cause distinguishes
      compiler-scheduled strand boundaries ([Sw_boundary]), hardware
      long-latency dependence ([Hw_dependence]), banked-MRF conflict
      serialization extending a dependence past its base latency
      ([Bank_conflict]), and an unattributed scheduler decision
      ([Scheduler], kept for decoding older logs). *)

type level = Lrf | Orf | Mrf | Rfc

type cause = Sw_boundary | Hw_dependence | Bank_conflict | Scheduler

type unit_kind = Write_unit | Read_unit

type alloc = {
  reg : string;
  kind : unit_kind;
  strand : int;
  level : level;  (** [Lrf] or [Orf] *)
  slot : int;     (** LRF bank or ORF entry *)
  first : int;    (** occupancy interval, instr ids *)
  last : int;
  reads : int;    (** covered reads *)
  savings : float;
  partial : bool; (** range was iteratively shortened *)
  mrf_copy : bool;
}

type place = { warp : int; instr : int; level : level }
type fill = { warp : int; instr : int; pos : int; entry : int }
type evict = { warp : int; instr : int; level : level; writeback : bool }
type strand_boundary = { instr : int; strand : int }
type desched = { warp : int; instr : int; cause : cause }

type event =
  | Alloc of alloc
  | Place of place
  | Fill of fill
  | Evict of evict
  | Strand_boundary of strand_boundary
  | Desched of desched

include Recorder.S with type t = event
(** The recorder; [printer_sink] is the [-v] output. *)

(** {1 Encoding} *)

val level_name : level -> string
val cause_name : cause -> string
val to_json : event -> Json.t
val of_json : Json.t -> (event, string) result
val pp : Format.formatter -> event -> unit

(** {1 Summary} *)

val summary_table : event list -> expected:(level -> int) -> Util.Table.t * (level * bool) list
(** ["Audit log summary"]: [Place] events per level, each checked
    against [expected] (the {!Energy.Counts} write total of the same
    runs), then the [Alloc], [Desched], [Evict] and all-event counts.
    Also returns each level's check. *)
