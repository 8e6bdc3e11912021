(* Warp pipeline timeline: one interval per maximal run of cycles a
   warp spends in a single pipeline state, recorded through
   Obs.Recorder. *)

type state =
  | Issued
  | Wait_long_latency
  | Wait_short_latency
  | Bank_conflict_serialization
  | Descheduled_pending
  | No_issue_slot
  | Finished

let all_states =
  [
    Issued;
    Wait_long_latency;
    Wait_short_latency;
    Bank_conflict_serialization;
    Descheduled_pending;
    No_issue_slot;
    Finished;
  ]

let state_name = function
  | Issued -> "issued"
  | Wait_long_latency -> "wait_long_latency"
  | Wait_short_latency -> "wait_short_latency"
  | Bank_conflict_serialization -> "bank_conflict_serialization"
  | Descheduled_pending -> "descheduled_pending"
  | No_issue_slot -> "no_issue_slot"
  | Finished -> "finished"

let state_of_name = function
  | "issued" -> Some Issued
  | "wait_long_latency" -> Some Wait_long_latency
  | "wait_short_latency" -> Some Wait_short_latency
  | "bank_conflict_serialization" -> Some Bank_conflict_serialization
  | "descheduled_pending" -> Some Descheduled_pending
  | "no_issue_slot" -> Some No_issue_slot
  | "finished" -> Some Finished
  | _ -> None

type interval = { warp : int; state : state; start : int; stop : int }

(* ------------------------------------------------------------------ *)
(* Encoding.                                                           *)

let to_json iv =
  Json.Obj
    [
      ("ev", Json.Str "interval");
      ("warp", Json.int iv.warp);
      ("state", Json.Str (state_name iv.state));
      ("start", Json.int iv.start);
      ("stop", Json.int iv.stop);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let field name conv = Json.field "timeline" j name conv in
  let* ev = field "ev" Json.to_str in
  if ev <> "interval" then Error (Printf.sprintf "timeline: unknown event kind %S" ev)
  else
    let* warp = field "warp" Json.to_int in
    let* state = field "state" (fun v -> Option.bind (Json.to_str v) state_of_name) in
    let* start = field "start" Json.to_int in
    let* stop = field "stop" Json.to_int in
    if stop < start then Error "timeline: interval ends before it starts"
    else Ok { warp; state; start; stop }

let pp fmt iv =
  Format.fprintf fmt "warp %d [%d, %d) %s" iv.warp iv.start iv.stop (state_name iv.state)

include Recorder.Make (struct
  type t = interval

  let name = "timeline"
  let to_json = to_json
  let of_json = of_json
  let pp = pp
end)
