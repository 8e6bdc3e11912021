(* The Obs.Recorder contract, checked once per instance: Audit, Explain
   and Timeline all include Recorder.Make, so one parametric suite runs
   over each with its own sample events. *)

let check = Alcotest.check

module type CASE = sig
  type t

  include Obs.Recorder.S with type t := t

  val label : string

  val samples : t list
  (** At least two events, all encodable. *)
end

module Audit_case = struct
  type t = Obs.Audit.event

  include (Obs.Audit : Obs.Recorder.S with type t := t)

  let label = "audit"
  let samples = Test_obs.sample_events
end

module Explain_case = struct
  type t = Obs.Explain.decision

  include (Obs.Explain : Obs.Recorder.S with type t := t)

  let label = "explain"
  let samples = Test_why.stream
end

module Timeline_case = struct
  type t = Obs.Timeline.interval

  include (Obs.Timeline : Obs.Recorder.S with type t := t)

  let label = "timeline"

  let samples =
    List.mapi
      (fun i state -> { Obs.Timeline.warp = i mod 3; state; start = 10 * i; stop = (10 * i) + 7 })
      Obs.Timeline.all_states
end

let contract (module R : CASE) =
  (* Every case leaves the global recorder off with no sink. *)
  let isolated f () = Fun.protect ~finally:R.disable f in
  let counting () =
    let calls = ref 0 in
    ((fun _ -> incr calls), calls)
  in
  let off_is_silent () =
    let sink, calls = counting () in
    R.set_sink sink;
    R.set_enabled false;
    check Alcotest.bool "is_enabled reads the flag" false (R.is_enabled ());
    List.iter R.emit R.samples;
    check Alcotest.int "no sink call while off" 0 !calls;
    R.set_enabled true;
    List.iter R.emit R.samples;
    check Alcotest.int "re-enabled keeps the installed sink" (List.length R.samples) !calls
  in
  let set_sink_and_disable () =
    let first, first_calls = counting () in
    let second, second_calls = counting () in
    R.set_sink first;
    check Alcotest.bool "set_sink enables" true (R.is_enabled ());
    R.emit (List.hd R.samples);
    R.set_sink second;
    R.emit (List.hd R.samples);
    check Alcotest.(pair int int) "set_sink replaces the sink" (1, 1)
      (!first_calls, !second_calls);
    R.disable ();
    check Alcotest.bool "disable turns the flag off" false (R.is_enabled ());
    R.set_enabled true;
    R.emit (List.hd R.samples);
    check Alcotest.int "disable drops the sink" 1 !second_calls
  in
  let memory_and_tee_order () =
    let a, got_a = R.memory_sink () in
    let b, got_b = R.memory_sink () in
    R.set_sink (R.tee [ a; b ]);
    List.iter R.emit R.samples;
    check Alcotest.bool "memory_sink returns emission order" true (got_a () = R.samples);
    check Alcotest.bool "tee feeds every sink" true (got_b () = R.samples)
  in
  let jsonl_round_trip () =
    let path = Filename.temp_file ("rfh_" ^ R.label) ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc ->
            R.set_sink (R.jsonl_sink oc);
            List.iter R.emit R.samples;
            R.disable ();
            output_string oc "this is not json\n{\"ev\":\"wrong-schema\"}\n\n");
        match R.load_jsonl ~path with
        | Error msg -> Alcotest.failf "load failed: %s" msg
        | Ok (events, rejected) ->
          check Alcotest.bool "decodes back to the emitted events" true (events = R.samples);
          check Alcotest.int "garbage counted, blank skipped" 2 rejected);
    match R.load_jsonl ~path:"/nonexistent/recorder.jsonl" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "missing file must be an Error"
  in
  let printer_one_line_per_event () =
    let buf = Buffer.create 256 in
    let fmt = Format.formatter_of_buffer buf in
    List.iter (R.printer_sink fmt) R.samples;
    let lines = String.split_on_char '\n' (Buffer.contents buf) in
    check Alcotest.int "one line per event" (List.length R.samples)
      (List.length (List.filter (( <> ) "") lines))
  in
  List.map
    (fun (name, f) -> Alcotest.test_case (R.label ^ ": " ^ name) `Quick (isolated f))
    [
      ("off calls no sink", off_is_silent);
      ("set_sink / disable", set_sink_and_disable);
      ("memory_sink order, tee", memory_and_tee_order);
      ("jsonl_sink -> load_jsonl", jsonl_round_trip);
      ("printer_sink lines", printer_one_line_per_event);
    ]

(* --- Codec round-trips over generated events ------------------------- *)

let gen_int = Test_obs.gen_int
let gen_num = Test_obs.gen_num
let gen_str = Test_obs.gen_str

let gen_decision =
  let open QCheck.Gen in
  let verdict =
    oneof
      [
        return Obs.Explain.Chosen;
        map (fun why -> Obs.Explain.Ineligible why) gen_str;
        return Obs.Explain.Negative_savings;
        return Obs.Explain.No_free_slot;
      ]
  in
  let candidate =
    let+ level = gen_str and+ savings = gen_num and+ verdict = verdict in
    { Obs.Explain.level; savings; verdict }
  in
  let outcome =
    oneof
      [
        map (fun bank -> Obs.Explain.To_lrf { bank }) gen_int;
        map2 (fun entry shortened -> Obs.Explain.To_orf { entry; shortened }) gen_int gen_int;
        return Obs.Explain.To_mrf;
      ]
  in
  let+ seq = gen_int and+ kernel = gen_str and+ reg = gen_str and+ kind = gen_str
  and+ strand = gen_int and+ width = gen_int and+ first = gen_int and+ last = gen_int
  and+ defs = Test_obs.gen_list gen_int and+ covered = Test_obs.gen_list (pair gen_int gen_int)
  and+ dropped_reads = gen_int and+ mrf_copy = bool
  and+ candidates = Test_obs.gen_list candidate and+ outcome = outcome in
  { Obs.Explain.seq; kernel; reg; kind; strand; width; first; last; defs; covered;
    dropped_reads; mrf_copy; candidates; outcome }

let gen_interval =
  let open QCheck.Gen in
  let+ warp = gen_int and+ state = oneofl Obs.Timeline.all_states and+ start = gen_int
  and+ length = nat in
  { Obs.Timeline.warp; state; start; stop = start + length }

let gen_event =
  let open QCheck.Gen in
  let level = oneofl [ Obs.Audit.Lrf; Orf; Mrf; Rfc ] in
  oneof
    [
      (let+ reg = gen_str and+ kind = oneofl [ Obs.Audit.Write_unit; Read_unit ]
       and+ strand = gen_int and+ level = level and+ slot = gen_int and+ first = gen_int
       and+ last = gen_int and+ reads = gen_int and+ savings = gen_num and+ partial = bool
       and+ mrf_copy = bool in
       Obs.Audit.Alloc
         { reg; kind; strand; level; slot; first; last; reads; savings; partial; mrf_copy });
      (let+ warp = gen_int and+ instr = gen_int and+ level = level in
       Obs.Audit.Place { warp; instr; level });
      (let+ warp = gen_int and+ instr = gen_int and+ pos = gen_int and+ entry = gen_int in
       Obs.Audit.Fill { warp; instr; pos; entry });
      (let+ warp = gen_int and+ instr = gen_int and+ level = level and+ writeback = bool in
       Obs.Audit.Evict { warp; instr; level; writeback });
      (let+ instr = gen_int and+ strand = gen_int in
       Obs.Audit.Strand_boundary { instr; strand });
      (let+ warp = gen_int and+ instr = gen_int
       and+ cause = oneofl [ Obs.Audit.Sw_boundary; Hw_dependence; Bank_conflict; Scheduler ] in
       Obs.Audit.Desched { warp; instr; cause });
    ]

(* The round trip through one JSONL line, as jsonl_sink writes it. *)
let event_round_trip ~name gen to_json of_json =
  Test_obs.round_trip ~name gen
    (fun v -> Obs.Json.to_string (to_json v))
    (fun line -> Result.bind (Obs.Json.parse line) of_json)

let suite =
  contract (module Audit_case) @ contract (module Explain_case) @ contract (module Timeline_case)
  @ [
      event_round_trip ~name:"explain codec round-trip" gen_decision Obs.Explain.to_json
        Obs.Explain.of_json;
      event_round_trip ~name:"timeline codec round-trip" gen_interval Obs.Timeline.to_json
        Obs.Timeline.of_json;
      event_round_trip ~name:"audit codec round-trip" gen_event Obs.Audit.to_json
        Obs.Audit.of_json;
    ]
