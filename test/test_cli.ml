(* The rfh CLI end-to-end through the built binary: the exit-code
   contract for bad inputs (an unknown benchmark or artefact target, a
   missing input file, a numeric flag out of range or a command line
   that does not parse prints one clean message naming it and exits 2
   — never an uncaught exception), the
   transcript of every subcommand, the trace rows, and page parity. *)

let check = Alcotest.check
let rfh_exe = "../bin/rfh.exe"

let contains haystack needle =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Run the built binary; its exit code and combined output (or only
   its stdout with [~stderr:false]). *)
let run_rfh ?(stderr = true) args =
  let out = Filename.temp_file "rfh_cli" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s %s" rfh_exe args out (if stderr then "2>&1" else "2> /dev/null"))
      in
      (code, In_channel.with_open_text out In_channel.input_all))

let exits_2 (args, bad) () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let code, text = run_rfh args in
    check Alcotest.int "exit 2" 2 code;
    check Alcotest.bool "no uncaught exception" false (contains text "uncaught exception");
    check Alcotest.bool ("names the bad input: " ^ bad) true (contains text bad)
  end

(* [rfh compile] on a temporary assembly file holding [source]. *)
let compile_asm ~source ~code ~expect () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let asm = Filename.temp_file "rfh_cli" ".asm" in
    Fun.protect
      ~finally:(fun () -> Sys.remove asm)
      (fun () ->
        Out_channel.with_open_text asm (fun oc -> output_string oc source);
        let got, text = run_rfh ("compile " ^ Filename.quote asm) in
        check Alcotest.int "exit code" code got;
        check Alcotest.bool "no uncaught exception" false (contains text "uncaught exception");
        check Alcotest.bool ("prints: " ^ expect) true (contains text expect))
  end

(* [rfh selfcheck]: every benchmark kernel under all 24 hierarchy
   configurations (ORF sizes 1-8 x the three LRF modes) verifies. *)
let selfcheck () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let code, text = run_rfh "selfcheck" in
    check Alcotest.int "exit 0" 0 code;
    check Alcotest.string "summary" "selfcheck: 1464 placements verified, 0 failures\n" text
  end

let read path = In_channel.with_open_bin path In_channel.input_all

(* The transcript of every subcommand (see cli_transcript.ml) is
   byte-identical to cli_golden.txt; a difference names the first
   differing line and the invocation it belongs to. *)
let golden () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let got = Cli_transcript.render ~rfh:rfh_exe ~baseline:"../baselines/default.json" in
    let want = read "cli_golden.txt" in
    let rec first n entry = function
      | w :: wt, g :: gt ->
        let entry = if String.starts_with ~prefix:"### rfh " w then w else entry in
        if w = g then first (n + 1) entry (wt, gt)
        else Alcotest.failf "cli_golden.txt line %d (%s): expected %S, got %S" n entry w g
      | w :: _, [] -> Alcotest.failf "cli_golden.txt line %d (%s): transcript ends; expected %S" n entry w
      | [], g :: _ -> Alcotest.failf "cli_golden.txt line %d (%s): extra line %S" n entry g
      | [], [] -> ()
    in
    if got <> want then
      first 1 "" (String.split_on_char '\n' want, String.split_on_char '\n' got)
  end

(* [rfh ARGS --trace-out FILE] in a temporary file; the trace's events. *)
let trace_events args =
  let path = Filename.temp_file "rfh_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, _ = run_rfh (Printf.sprintf "%s --trace-out %s" args (Filename.quote path)) in
      check Alcotest.int ("exit 0: " ^ args) 0 code;
      match Obs.Json.parse (read path) with
      | Error e -> Alcotest.failf "%s: trace does not parse: %s" args e
      | Ok j -> Option.get (Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list))

let field name conv ev = Option.get (Option.bind (Obs.Json.member name ev) conv)
let pid = field "pid" Obs.Json.to_int

(* Metadata rows as (pid, tid, row name, display name). *)
let metadata events =
  List.filter_map
    (fun ev ->
      if field "ph" Obs.Json.to_str ev <> "M" then None
      else
        Some
          ( pid ev,
            field "tid" Obs.Json.to_int ev,
            field "name" Obs.Json.to_str ev,
            field "name" Obs.Json.to_str (Option.get (Obs.Json.member "args" ev)) ))
    events

let row = Alcotest.(list (pair (pair int int) (pair string string)))
let pack = List.map (fun (p, t, n, a) -> ((p, t), (n, a)))

(* The simulated-time rows (pids 2 and 3) of a timeline trace are
   byte-deterministic: pinned by their MD5.  The wall-clock rows vary
   run to run, so only their metadata is pinned: process names per
   pid, and one thread row per domain named by its id, in order. *)
let trace_rows () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let events = trace_events "timeline mm --warps 8 --mrf-banks 8" in
    let simulated = List.filter (fun ev -> pid ev = 2 || pid ev = 3) events in
    check Alcotest.string "MD5 of the pid 2 and 3 rows" "d0dd8e5c60781b9f5db0f80da866ac30"
      (Digest.to_hex
         (Digest.string (String.concat "" (List.map (fun ev -> Obs.Json.to_string ev ^ "\n") simulated))));
    check row "span metadata rows"
      (pack [ (1, 0, "process_name", "rfh timeline"); (1, 0, "thread_name", "domain 0 (main)") ])
      (pack (List.filter (fun (p, _, _, _) -> p = 1) (metadata events)));
    let md = metadata (trace_events "engine fig13 -b mm,cp --warps 8 --jobs 1,2") in
    check Alcotest.(list (pair int string)) "process rows"
      [ (1, "rfh engine"); (4, "rfh engine (wall clock)"); (4, "rfh engine (wall clock)");
        (5, "rfh engine gc (wall clock)"); (5, "rfh engine gc (wall clock)") ]
      (List.filter_map (fun (p, _, n, a) -> if n = "process_name" then Some (p, a) else None) md);
    let domain tid =
      if tid = 0 then "domain 0 (main)" else if tid = 9999 then "unresolved" else Printf.sprintf "domain %d" tid
    in
    (* Each process row is followed by its own thread rows, one per
       domain in tid order, each named by its id. *)
    ignore
      (List.fold_left
         (fun (cur, last) (p, tid, n, a) ->
           if n = "process_name" then (p, -1)
           else begin
             check Alcotest.int "thread row under its process row" cur p;
             check Alcotest.bool (Printf.sprintf "pid %d tid %d in order" p tid) true (tid > last);
             check Alcotest.string (Printf.sprintf "pid %d tid %d name" p tid) (domain tid) a;
             (cur, tid)
           end)
         (-1, -1) md)
  end

(* The table titles a command printed: each line above a header whose
   dashed rule matches the header's length (the Makefile's
   check_titles reads them the same way). *)
let printed_titles text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  List.filter_map
    (fun i ->
      let header = lines.(i + 1) and rule = lines.(i + 2) in
      if rule <> "" && String.for_all (( = ) '-') rule && String.length rule = String.length header
      then Some lines.(i)
      else None)
    (List.init (max 0 (Array.length lines - 2)) Fun.id)

(* Every <caption> of a page, in order. *)
let captions html =
  let rec go from acc =
    match Helpers.find_sub ~from html "<caption>" with
    | None -> List.rev acc
    | Some i ->
      let start = i + String.length "<caption>" in
      let stop = Option.get (Helpers.find_sub ~from:start html "</caption>") in
      go stop (String.sub html start (stop - start) :: acc)
  in
  go 0 []

(* Page parity: every page-writing command's page carries each table
   title the command printed as a caption, in the printed order.  The
   commands run in one temporary directory, in order: the baseline
   commands share a manifest, and [why] reads it. *)
let page_parity () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_dir "rfh_pages" "" in
    Fun.protect
      ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
      (fun () ->
        let in_dir = Filename.concat dir in
        List.iter (Obs.History.append ~path:(in_dir "history.jsonl")) Cli_transcript.history;
        let failures =
          List.concat_map
            (fun args ->
              let page = in_dir "page.html" in
              let code, text = run_rfh ~stderr:false (args ^ " " ^ Filename.quote page) in
              check Alcotest.int ("exit 0: " ^ args) 0 code;
              let rec missing titles caps =
                match (titles, caps) with
                | [], _ -> []
                | t :: rest, [] -> [ Printf.sprintf "rfh %s: page lacks '%s'" args t ] @ missing rest []
                | t :: rest, c :: crest ->
                  if Util.Table.escape_html t = c then missing rest crest else missing titles crest
              in
              missing (printed_titles text) (captions (read page)))
            [
              "fig13 -b mm --warps 8 --report-out";
              "all -b mm --warps 8 --report-out";
              "profile -b mm --warps 8 --report-out";
              Printf.sprintf "baseline record -b mm --warps 8 --baseline %s --report-out"
                (in_dir "base.json");
              Printf.sprintf "baseline check -b mm --warps 8 --baseline %s --report-out"
                (in_dir "base.json");
              "explain mm --warps 8 --report-out";
              "timeline mm --warps 8 --report-out";
              "engine fig13 -b mm --warps 8 --jobs 1,2 --report-out";
              Printf.sprintf "why %s %s --report-out" (in_dir "base.json") (in_dir "base.json");
              Printf.sprintf "trend --history %s --html-out" (in_dir "history.jsonl");
            ]
        in
        if failures <> [] then Alcotest.fail (String.concat "\n" failures))
  end

(* Each case is the arguments and the text the message must contain. *)
let exits_2_cases =
  List.map (fun (args, bad) -> Alcotest.test_case ("rfh " ^ args) `Quick (exits_2 (args, bad)))

let suite =
  exits_2_cases
    [
      ("fig2 -b nope", "nope");
      ("kernels nope", "nope");
      ("explain nope", "nope");
      ("engine nope", "nope");
      ("allocate mm --entries 0", "--entries 0");
      ("allocate mm --entries 99", "--entries 99");
      ("explain mm --entries 9", "--entries 9");
      ("profile -b mm --entries 0", "--entries 0");
      ("fig13 -b mm --warps 0", "--warps 0");
      ("baseline check --warps=-1", "--warps -1");
      ("fig15 -b mm --jobs=-3", "--jobs -3");
      ("engine fig13 -b mm --jobs 1,-2", "--jobs -2");
      ("timeline mm --mrf-banks=-3", "--mrf-banks -3");
      ("timeline mm --mrf-banks 0", "--mrf-banks 0");
      ("explain mm --top=-1", "--top -1");
      ("timeline mm --top=-1", "--top -1");
      ("why base.json cand.json --top 0", "--top 0");
      ("compile /nonexistent.asm", "cannot read /nonexistent.asm");
      ("trend --history /", "cannot read / (Is a directory)");
      ("trend --history / --check", "cannot read / (Is a directory)");
    ]
  @ [
      (* A parse error is bad input: exit 2, naming the line. *)
      Alcotest.test_case "rfh compile bad.asm" `Quick
        (compile_asm ~source:"entry:\n  mov %i\n  bogus.op %x, %i\n" ~code:2
           ~expect:"line 3: unknown mnemonic");
      (* No register traffic: nothing to save, not 100% saved. *)
      Alcotest.test_case "rfh compile empty.asm" `Quick
        (compile_asm ~source:"" ~code:0 ~expect:"energy: 1.000 (0.0% saved)");
      Alcotest.test_case "rfh selfcheck" `Quick selfcheck;
      Alcotest.test_case "rfh transcript = cli_golden.txt" `Quick golden;
      Alcotest.test_case "rfh trace rows" `Quick trace_rows;
      Alcotest.test_case "rfh pages carry the printed tables" `Quick page_parity;
    ]
  (* A command line that does not parse is bad input too. *)
  @ exits_2_cases
      [
        ("fig13 --warps abc", "invalid value 'abc'");
        ("fig13 --bogus", "unknown option '--bogus'");
        ("nosuchcmd", "unknown command 'nosuchcmd'");
      ]
  (* A negative tolerance flags equal values as drift and NaN passes
     every comparison: both are out of range. *)
  @ exits_2_cases
      [
        ("baseline check --float-tol=-1", "--float-tol -1");
        ("baseline check --float-tol nan", "--float-tol nan");
        ("baseline check --timing-tol=-0.5", "--timing-tol -0.5");
        ("baseline check --timing-tol inf", "--timing-tol inf");
      ]
