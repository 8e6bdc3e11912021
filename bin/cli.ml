(* What the rfh subcommands share: the exit-code contract, benchmark and
   artefact lookup, every flag more than one command defines, the output
   files, the self-check collector, the recorders behind --trace-out and
   --jsonl-out, the compile path, and the one output path.  A command
   builds its output as one list: the tables are printed (as text, or
   CSV under --csv) and the same list is its --report-out page. *)

open Cmdliner

(* Captured at startup so --history-out records the whole invocation's
   wall time, not just the manifest collection's. *)
let start_ns = Obs.Clock.now_ns ()

(* ------------------------------------------------------------------ *)
(* Exit codes: 0 = success, 1 = a self-check or gate failed, 2 = an
   input is missing or unknown.                                        *)

let die_usage msg = prerr_endline msg; exit 2

let find_bench name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None ->
    die_usage
      (Printf.sprintf "unknown benchmark: %s (see 'rfh kernels' for the list)" name)

(* 'all' or one artefact name, as the engine command takes it. *)
let artefacts_of_target target =
  if target = "all" then List.map snd Experiments.Report.artefact_names
  else
    match List.assoc_opt target Experiments.Report.artefact_names with
    | Some a -> [ a ]
    | None ->
      die_usage
        ("unknown target: " ^ target ^ " (expected 'all' or one of "
        ^ String.concat ", " (List.map fst Experiments.Report.artefact_names)
        ^ ")")

(* An input file: a missing or unreadable one is a bad input, named
   with the system's reason. *)
let read_input path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    die_usage (Printf.sprintf "rfh: cannot read %s (%s)" path reason)

(* A numeric flag outside its range is a bad input: exit 2 naming the
   flag and the value before any command runs with it. *)
let check_range flag ~lo ?hi v =
  if v < lo || Option.fold ~none:false ~some:(fun hi -> v > hi) hi then
    die_usage
      (Printf.sprintf "rfh: %s %d is out of range (expected %s)" flag v
         (match hi with
         | Some hi -> Printf.sprintf "%d-%d" lo hi
         | None -> Printf.sprintf "at least %d" lo))
  else v

let in_range flag ~lo ?hi arg = Term.(const (check_range flag ~lo ?hi) $ arg)

(* ------------------------------------------------------------------ *)
(* Flags defined once.                                                 *)

let warps ?(default = 32) () =
  let doc = "Machine-resident warps to simulate per kernel." in
  in_range "--warps" ~lo:1 Arg.(value & opt int default & info [ "warps" ] ~docv:"N" ~doc)

let seed =
  let doc = "Deterministic seed for data-dependent branch behaviour." in
  Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"SEED" ~doc)

let benchmarks =
  let doc = "Restrict to the named benchmarks (default: all 36)." in
  Arg.(value & opt (list string) [] & info [ "benchmarks"; "b" ] ~docv:"NAMES" ~doc)

let jobs =
  let doc =
    "Worker domains for the per-benchmark fan-out.  1 (the default) is the exact serial \
     path; 0 means one per recommended core.  Output is byte-identical at any setting."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* --warps --seed -b as one serial options value; without -b the
   selection is [default_benchmarks] (all 36 when empty). *)
let selection ?warps:default ?(default_benchmarks = []) () =
  let make warps seed names =
    let names = if names = [] then default_benchmarks else names in
    let base = { (Experiments.Options.default ()) with Experiments.Options.warps; seed } in
    if names = [] then base
    else { base with Experiments.Options.benchmarks = List.map find_bench names }
  in
  Term.(const make $ warps ?default () $ seed $ benchmarks)

(* The same plus --jobs. *)
let options ?warps ?default_benchmarks () =
  Term.(const Experiments.Options.with_jobs $ selection ?warps ?default_benchmarks () $ jobs)

(* One benchmark's serial options, for the commands that take a
   benchmark name. *)
let bench_options ~warps ~seed e =
  { (Experiments.Options.default ()) with Experiments.Options.warps; seed; benchmarks = [ e ] }

let csv =
  let doc = "Emit CSV instead of aligned text tables." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let verbose =
  let doc = "Print allocator/simulator audit events to stderr (human-readable)." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

(* An optional FILE flag: an input or an output path. *)
let file_flag name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let manifest_out =
  file_flag "manifest-out" "Write a machine-readable run manifest (schema-versioned JSON) to $(docv)."

let report_out ?(doc = "Write a self-contained HTML run report to $(docv).") () =
  file_flag "report-out" doc

let history_out =
  file_flag "history-out"
    "Append one cross-run history record (JSONL, see $(b,rfh trend)) to $(docv).  The record \
     carries per-benchmark IPC/energy/stall shares plus the host fingerprint and the \
     invocation's wall time."

let trace_out doc = file_flag "trace-out" doc
let json_out doc = file_flag "json-out" doc
let jsonl_out doc = file_flag "jsonl-out" doc

(* --top N, at least 1; [default] None shows every row. *)
let top ?default doc =
  Term.(
    const (Option.map (check_range "--top" ~lo:1))
    $ Arg.(value & opt (some int) default & info [ "top" ] ~docv:"N" ~doc))

let why doc = Arg.(value & flag & info [ "why" ] ~doc)

let bench_name =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Benchmark name.")

let entries =
  in_range "--entries" ~lo:1 ~hi:Energy.Params.max_orf_entries
    Arg.(value & opt int 3 & info [ "entries" ] ~docv:"N" ~doc:"ORF entries per thread (1-8).")

let lrf =
  let modes = [ ("none", Alloc.Config.No_lrf); ("unified", Alloc.Config.Unified); ("split", Alloc.Config.Split) ] in
  let parse s =
    match List.assoc_opt s modes with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown LRF mode %S (none|unified|split)" s))
  in
  let print fmt m =
    Format.pp_print_string fmt (fst (List.find (fun (_, m') -> m' = m) modes))
  in
  Arg.(value & opt (conv (parse, print)) Alloc.Config.Split & info [ "lrf" ] ~docv:"MODE" ~doc:"LRF mode.")

(* [-v] installs the human-readable audit printer: allocator and
   simulator decisions flow through Obs.Audit, so nothing is installed
   (or paid for) without it. *)
let setup_verbosity verbose =
  if verbose then Obs.Audit.set_sink (Obs.Audit.printer_sink Format.err_formatter)

(* ------------------------------------------------------------------ *)
(* Output files.                                                       *)

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Every output file goes through here: create its directory, run
   [write path], and turn an I/O failure into exit 1. *)
let write_or_die path write =
  try
    mkdirs (Filename.dirname path);
    write path
  with Sys_error msg -> prerr_endline ("cannot write " ^ msg); exit 1

let json_file j path =
  Out_channel.with_open_text path (fun oc ->
      Obs.Json.to_channel oc j;
      output_char oc '\n')

(* Self-check collector for the cross-checking commands: [check] records
   a failed invariant; [report] prints them all and exits 1, or prints
   [passed]. *)
let self_checks () =
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  let report ~failed ?passed () =
    match List.rev !failures with
    | [] -> Option.iter print_endline passed
    | fs ->
      prerr_endline failed;
      List.iter (fun f -> prerr_endline ("  " ^ f)) fs;
      exit 1
  in
  (check, report)

(* ------------------------------------------------------------------ *)
(* The output path.                                                    *)

type out =
  | Table of Util.Table.t  (** printed, as text or CSV, and on the page *)
  | Text of string  (** printed only: text between the tables *)
  | Page of Obs.Html_report.block  (** on the page only: a chart, a banner, the run report *)
  | Report  (** where the page is written, announced as "<label> -> <path>" *)

let page_blocks outs =
  List.filter_map
    (function
      | Table t -> Some (Obs.Html_report.Table t)
      | Page b -> Some b
      | Text _ | Report -> None)
    outs

(* Print [outs] in order; at [Report], write them as the page [title]
   to [report_out] when it is given. *)
let emit ?(csv = false) ?(label = "report") ?(title = "rfh") ?report_out outs =
  List.iter
    (function
      | Table t when csv -> print_endline (Util.Table.csv t); print_newline ()
      | Table t -> Util.Table.print t
      | Text s -> print_string s
      | Page _ -> ()
      | Report ->
        Option.iter
          (fun path ->
            write_or_die path (fun path ->
                Obs.Html_report.write_page ~path (Obs.Html_report.page ~title (page_blocks outs)));
            Printf.printf "%s -> %s\n" label path)
          report_out)
    outs

let textf fmt = Printf.ksprintf (fun s -> Text s) fmt
let pages blocks = List.map (fun b -> Page b) blocks

(* The output file an optional flag names: written by [write], and
   announced as "<label> -> <path>". *)
let saved label write =
  Option.fold ~none:[] ~some:(fun path -> write_or_die path write; [ textf "%s -> %s\n" label path ])

(* A collected run manifest's outputs: the manifest file, where the
   page goes, and the history record; the run report the page ends
   with is returned apart so the command can place it last. *)
let manifest_outs ?compare ?history_out m ~manifest_out =
  let history path =
    let wall_s = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) start_ns) /. 1000.0 in
    Obs.History.append ~path (Obs.History.of_manifest ~source:"rfh" ~wall_s m)
  in
  ( saved "manifest" (fun path -> Obs.Manifest.write_file ~path m) manifest_out
    @ [ Report ]
    @ saved "history" history history_out,
    pages (Obs.Html_report.render ?compare m) )

(* --manifest-out / --report-out / --history-out on a figure command:
   collect the manifest only when one of them asks for it. *)
let collected ?entries ?lrf ?history_out opts ~manifest_out ~report_out =
  if manifest_out = None && report_out = None && history_out = None then ([], [])
  else
    manifest_outs ?history_out (Experiments.Run_manifest.collect ?entries ?lrf opts) ~manifest_out

(* A diagnosis's headline: "<who>: top cause — <bench>: <what> —
   <delta>", when it found a cause. *)
let top_cause who r =
  Option.map
    (fun (c : Obs.Rootcause.cause) ->
      Printf.sprintf "%s: top cause — %s: %s — %s" who c.c_bench c.c_what c.c_delta)
    (Obs.Rootcause.top_cause r)

(* ------------------------------------------------------------------ *)
(* Recorders.                                                          *)

(* A recorder's memory sink, teed with its JSONL writer when [path] is
   given (and with any [also] sinks), installed; returns the recorded
   events and the closer of the JSONL file. *)
let recording (type e) (module R : Obs.Recorder.S with type t = e) ?(also = []) path =
  let mem, events = R.memory_sink () in
  let oc = Option.map (fun path -> write_or_die path open_out) path in
  R.set_sink (R.tee ((mem :: Option.to_list (Option.map R.jsonl_sink oc)) @ also));
  (events, fun () -> R.disable (); Option.iter close_out oc)

(* What a command adds to its --trace-out file beyond the phase spans. *)
type trace_rows = {
  timeline : Obs.Timeline.interval list;
  base_ns : int64 option;
  extra : Obs.Json.t list;  (** engine and GC rows *)
}

let no_rows = { timeline = []; base_ns = None; extra = [] }

(* --trace-out: record phase spans (and with [~counters] the simulated
   counter tracks) while [run] does, then write them with the rows
   [run] returns and turn the recorders off.  Returns [run]'s result
   and the "trace: ..." line. *)
let traced ?(counters = false) ~process_name trace_out run =
  let on = trace_out <> None in
  if on then begin
    Obs.Span.reset ();
    Obs.Span.set_enabled true
  end;
  if on && counters then begin
    Obs.Counters.reset ();
    Obs.Counters.set_enabled true
  end;
  let result, rows = run () in
  let recorded = Obs.Span.spans () and tracks = if counters then Obs.Counters.tracks () else [] in
  let line =
    saved
      (Printf.sprintf "trace: %d spans%s%s%s" (List.length recorded)
         (if counters then Printf.sprintf ", %d counter tracks" (List.length tracks) else "")
         (if rows.timeline = [] then ""
          else Printf.sprintf ", %d timeline slices" (List.length rows.timeline))
         (if rows.extra = [] then "" else Printf.sprintf " + %d engine/gc rows" (List.length rows.extra)))
      (fun path ->
        Obs.Trace_export.write_file ~path ~process_name ~counters:tracks ~timeline:rows.timeline
          ?base_ns:rows.base_ns ~extra:rows.extra recorded)
      trace_out
  in
  Obs.Counters.set_enabled false;
  Obs.Span.set_enabled false;
  (result, line)

(* ------------------------------------------------------------------ *)
(* The compile path allocate, compile and explain share.               *)

(* Place [kernel] under [config] and verify the placement: a placement
   the verifier rejects fails the command (exit 1). *)
let compile config kernel =
  let ctx = Alloc.Context.create kernel in
  let placement, stats = Alloc.Allocator.run config ctx in
  match Alloc.Verify.check config ctx placement with
  | Ok () -> (ctx, placement, stats)
  | Error errs ->
    prerr_endline "PLACEMENT FAILED VERIFICATION:";
    List.iter prerr_endline errs;
    exit 1

(* The start of a placement listing line — strand, a '*' on a strand's
   first instruction, the instruction and its destination levels —
   and its source levels. *)
let placement_line ctx placement (i : Ir.Instr.t) =
  let part = ctx.Alloc.Context.partition and id = i.Ir.Instr.id in
  let dst =
    match Alloc.Placement.dest placement ~instr:id with
    | None -> "-"
    | Some d ->
      String.concat ""
        [
          (match d.Alloc.Placement.to_lrf with Some bk -> Printf.sprintf "LRF[%d] " bk | None -> "");
          (match d.Alloc.Placement.to_orf with Some en -> Printf.sprintf "ORF[%d] " en | None -> "");
          (if d.Alloc.Placement.to_mrf then "MRF" else "");
        ]
  in
  let srcs =
    List.mapi
      (fun pos _ -> Alloc.Placement.level_name (Alloc.Placement.src placement ~instr:id ~pos))
      i.Ir.Instr.srcs
    |> String.concat ","
  in
  ( Printf.sprintf "s%-3d%s %-40s dst: %-18s srcs: "
      (Strand.Partition.strand_of_instr part id)
      (if Strand.Partition.starts_strand part id then "*" else " ")
      (Ir.Instr.to_string i) dst,
    srcs )

(* List every instruction of [kernel] with its placement; with [~fills]
   the source levels are padded and the read-operand fills follow. *)
let list_placements ?(fills = false) ctx placement kernel =
  Ir.Kernel.iter_instrs kernel (fun _ i ->
      let line, srcs = placement_line ctx placement i in
      if fills then
        Printf.printf "%s%-24s %s\n" line srcs
          (Alloc.Placement.fills_of placement ~instr:i.Ir.Instr.id
          |> List.map (fun (p, en) -> Printf.sprintf "fill(slot %d -> ORF[%d])" p en)
          |> String.concat " ")
      else print_endline (line ^ srcs))
