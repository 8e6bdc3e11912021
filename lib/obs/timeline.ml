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

let state_of_name n = List.find_opt (fun s -> String.equal (state_name s) n) all_states

type interval = { warp : int; state : state; start : int; stop : int }

(* ------------------------------------------------------------------ *)
(* Encoding.                                                           *)

(* One tagged case, so that a line of another stream is rejected. *)
let codec =
  Json.(
    map
      (fun iv -> if iv.stop < iv.start then Error "interval ends before it starts" else Ok iv)
      Fun.id
      (seal
         (tagged "ev"
            [
              case "interval"
                (obj (fun warp state start stop -> { warp; state; start; stop })
                |> req "warp" integer (fun iv -> iv.warp)
                |> req "state" (enum state_name all_states) (fun iv -> iv.state)
                |> req "start" integer (fun iv -> iv.start)
                |> req "stop" integer (fun iv -> iv.stop))
                Fun.id Option.some;
            ])))

let to_json = Json.encode codec
let of_json = Json.decode codec

let pp fmt iv =
  Format.fprintf fmt "warp %d [%d, %d) %s" iv.warp iv.start iv.stop (state_name iv.state)

include Recorder.Make (struct
  type t = interval

  let name = "timeline"
  let codec = codec
  let pp = pp
end)
