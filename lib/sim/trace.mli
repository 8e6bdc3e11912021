(** Execution traces: the paper's methodology substrate (Sec. 5.1).

    The authors run each application to completion under Ocelot,
    record "the execution frequency of each dynamic control flow
    path", and feed a custom trace-driven simulator that reconstructs
    likely warp interleavings.  This module provides the same
    separation for our kernels:

    - {!capture} runs the warps once and records each warp's dynamic
      basic-block sequence (run-length encoded — self-loops compress
      to a single entry);
    - {!replay} re-produces a warp's exact instruction stream from the
      trace, with no branch evaluation — a trace-driven walker;
    - {!edge_profile} aggregates control-flow-edge frequencies;
    - {!synthesize} reconstructs a plausible block walk from the edge
      profile alone (a weighted walk that consumes edge counts), which
      is how frequency profiles stand in for full traces;
    - {!to_string} / {!of_string} give a stable text format so traces
      can be saved beside a benchmark and replayed later. *)

type t

val capture : ?warps:int -> ?seed:int -> Ir.Kernel.t -> t
(** Record the streams of [warps] warps (default 32), read from this
    domain's {!Scratch.fill_streams} table, each capped at
    {!Scratch.default_max_dynamic} instructions. *)

val warps : t -> int

val block_sequence : t -> warp:int -> int list
(** The warp's executed blocks, expanded. *)

val replay : t -> Ir.Kernel.t -> warp:int -> (Ir.Instr.t -> unit) -> unit
(** Drive the callback through the warp's exact dynamic instruction
    stream.  @raise Invalid_argument if the kernel's shape does not
    match the trace (wrong kernel). *)

val edge_profile : t -> ((int * int) * int) list
(** Control-flow edges [(from, to)] with their total execution counts,
    sorted; the [(-1, entry)] pseudo-edge counts warp starts. *)

val synthesize : t -> Ir.Kernel.t -> seed:int -> int list
(** One plausible block walk drawn from the edge profile: start at the
    entry, repeatedly pick a successor with probability proportional
    to the remaining count of that edge, consuming it.  Reproduces the
    relative path frequencies without per-warp sequences. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** Round-trips [to_string].  [Error] on a malformed header or line,
    a line count other than the header's warp count, a warp out of
    range or listed twice, a negative block, a repeat count below 1,
    or a warp whose expanded sequence is longer than a capture can be
    ({!Scratch.default_max_dynamic} blocks). *)
