(* Tests for Obs.History: the JSONL run-record codec, garbage-line
   tolerance of the loader, and byte-stability of records modulo
   timestamp and git revision. *)

let check = Alcotest.check

let host ?(rev = "cafe0000") ?(dirty = false) () =
  { Obs.Host.cores = 8; os = "Unix"; ocaml = "5.1.1"; git_rev = rev; git_dirty = dirty }

let sample_record ?(rev = "cafe0000") ?(timestamp = "2026-08-08T00:00:00Z") () =
  {
    Obs.History.timestamp;
    source = "test";
    host = host ~rev ();
    jobs = 4;
    wall_s = 12.5;
    benches =
      [
        {
          Obs.History.hb_bench = "VectorAdd";
          hb_ipc = 0.25;
          hb_norm_energy = 0.53;
          hb_stalls = [ ("issued", 0.1); ("wait_long_latency", 0.9) ];
        };
      ];
    perfgate =
      Some
        {
          Obs.History.pg_ns_per_run = 1.5e6;
          pg_p90_ns = 1.8e6;
          pg_minor_words = 320.0;
          pg_runs = 5;
          pg_promoted_words = Some 12.0;
          pg_major_words = Some 40.0;
        };
  }

let test_roundtrip () =
  let r = sample_record () in
  let once = Obs.History.to_string r in
  match Obs.History.of_string once with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
    check Alcotest.string "encode/decode/re-encode is byte-stable" once
      (Obs.History.to_string decoded);
    check Alcotest.string "source survives" "test" decoded.Obs.History.source;
    check Alcotest.(option (float 0.0)) "perfgate promoted words survive" (Some 12.0)
      (Option.bind decoded.Obs.History.perfgate (fun g -> g.Obs.History.pg_promoted_words))

let test_optional_sections_omitted () =
  let r = { (sample_record ()) with Obs.History.perfgate = None } in
  let s = Obs.History.to_string r in
  let contains needle =
    let n = String.length needle and len = String.length s in
    let rec go i = i + n <= len && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "perfgate omitted, not null" false (contains "perfgate");
  match Obs.History.of_string s with
  | Error e -> Alcotest.fail e
  | Ok d -> check Alcotest.bool "decodes to a None section" true (d.Obs.History.perfgate = None)

let test_rejects_garbage () =
  List.iter
    (fun line ->
      match Obs.History.of_string line with
      | Ok _ -> Alcotest.failf "decoded garbage line %S" line
      | Error _ -> ())
    [
      "not json at all";
      "{\"schema_version\":99}";
      "{\"schema_version\":1,\"timestamp\":\"t\"}";
      "[1,2,3]";
    ]

let test_append_load_with_garbage () =
  let path = Filename.temp_file "history" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r1 = sample_record ~rev:"rev1" () in
      let r2 = sample_record ~rev:"rev2" ~timestamp:"2026-08-08T01:00:00Z" () in
      Obs.History.append ~path r1;
      (* Simulate a foreign/corrupt line between two good appends. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"schema_version\":99,\"who\":\"knows\"}\nnot json\n\n";
      close_out oc;
      Obs.History.append ~path r2;
      let records, rejected = Obs.History.load ~path in
      check Alcotest.int "both good records load" 2 (List.length records);
      check Alcotest.int "two bad lines counted (blank skipped silently)" 2 rejected;
      check Alcotest.(list string) "file order preserved" [ "rev1"; "rev2" ]
        (List.map (fun (r : Obs.History.t) -> r.Obs.History.host.Obs.Host.git_rev) records))

(* Records written before the engine and GC sections were retired
   still carry [engine], [gc] and [jobs2_slower]; the decoder ignores
   them. *)
let test_retired_sections_ignored () =
  let current = Obs.History.to_string (sample_record ()) in
  let legacy =
    match Obs.Json.parse current with
    | Ok (Obs.Json.Obj fields) ->
      Obs.Json.to_string
        (Obs.Json.Obj
           (fields
           @ [
               ( "engine",
                 Obs.Json.Obj
                   [ ("useful", Obs.Json.Num 0.16); ("spawn", Obs.Json.Num 0.13); ("idle", Obs.Json.Num 0.68) ]
               );
               ( "gc",
                 Obs.Json.Obj
                   [
                     ("share", Obs.Json.Num 0.02);
                     ("minor_words", Obs.Json.Num 1e6);
                     ("pause_p99_ns", Obs.Json.Num 4e4);
                   ] );
               ("jobs2_slower", Obs.Json.Bool true);
             ]))
    | _ -> Alcotest.fail "record does not re-parse as an object"
  in
  match Obs.History.of_string legacy with
  | Error e -> Alcotest.fail e
  | Ok r -> check Alcotest.string "decodes to the current record" current (Obs.History.to_string r)

(* The committed history starts with 4 records, the first written by
   the retired harness.  Runs append to the file, so later records may
   follow; none may be rejected. *)
let test_committed_history_loads () =
  let records, rejected = Obs.History.load ~path:"../baselines/history.jsonl" in
  check Alcotest.bool "the committed records load" true (List.length records >= 4);
  check Alcotest.int "none rejected" 0 rejected

let test_load_missing_file () =
  let records, rejected = Obs.History.load ~path:"/nonexistent/history.jsonl" in
  check Alcotest.int "no records" 0 (List.length records);
  check Alcotest.int "no rejects" 0 rejected

(* Two records built from the same measurements must differ only in
   timestamp and git revision: pinning those makes the bytes equal. *)
let test_byte_stable_modulo_timestamp_rev () =
  let opts =
    Experiments.Options.with_benchmarks
      { (Experiments.Options.default ()) with Experiments.Options.warps = 4 }
      [ "VectorAdd"; "MatrixMul" ]
  in
  let m = Experiments.Run_manifest.collect opts in
  let r1 =
    Obs.History.of_manifest ~timestamp:"2026-08-08T00:00:00Z" ~host:(host ~rev:"aaaa" ())
      ~source:"bench" ~wall_s:1.0 m
  in
  let r2 =
    Obs.History.of_manifest ~timestamp:"2026-08-08T09:00:00Z" ~host:(host ~rev:"bbbb" ())
      ~source:"bench" ~wall_s:1.0 m
  in
  check Alcotest.bool "bytes differ before pinning" false
    (String.equal (Obs.History.to_string r1) (Obs.History.to_string r2));
  let pinned =
    {
      r2 with
      Obs.History.timestamp = r1.Obs.History.timestamp;
      host = { r2.Obs.History.host with Obs.Host.git_rev = "aaaa" };
    }
  in
  check Alcotest.string "identical after pinning timestamp+rev"
    (Obs.History.to_string r1) (Obs.History.to_string pinned)

let test_of_manifest_stall_shares () =
  let opts =
    Experiments.Options.with_benchmarks
      { (Experiments.Options.default ()) with Experiments.Options.warps = 4 }
      [ "VectorAdd" ]
  in
  let m = Experiments.Run_manifest.collect opts in
  let r = Obs.History.of_manifest ~source:"bench" ~wall_s:1.0 m in
  match r.Obs.History.benches with
  | [ b ] ->
    check Alcotest.string "bench name" "VectorAdd" b.Obs.History.hb_bench;
    let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 b.Obs.History.hb_stalls in
    check (Alcotest.float 1e-9) "stall shares sum to 1" 1.0 total;
    List.iter
      (fun (cause, v) ->
        if v < 0.0 || v > 1.0 then Alcotest.failf "stall share %s = %g out of range" cause v)
      b.Obs.History.hb_stalls
  | l -> Alcotest.failf "expected one bench point, got %d" (List.length l)

let gen_record =
  let open QCheck.Gen in
  let num = Test_obs.gen_num and str = Test_obs.gen_str in
  let bench =
    let+ hb_bench = str and+ hb_ipc = num and+ hb_norm_energy = num
    and+ hb_stalls = Test_obs.gen_assoc num in
    { Obs.History.hb_bench; hb_ipc; hb_norm_energy; hb_stalls }
  in
  let perfgate =
    let+ pg_ns_per_run = num and+ pg_p90_ns = num and+ pg_minor_words = num
    and+ pg_runs = Test_obs.gen_int and+ pg_promoted_words = opt num
    and+ pg_major_words = opt num in
    { Obs.History.pg_ns_per_run; pg_p90_ns; pg_minor_words; pg_runs; pg_promoted_words;
      pg_major_words }
  in
  let+ timestamp = str and+ source = str and+ host = Test_obs.gen_host
  and+ jobs = Test_obs.gen_int and+ wall_s = num and+ benches = Test_obs.gen_list bench
  and+ perfgate = opt perfgate in
  { Obs.History.timestamp; source; host; jobs; wall_s; benches; perfgate }

let prop_record_round_trip =
  Test_obs.round_trip ~name:"record codec round-trip" gen_record Obs.History.to_string
    Obs.History.of_string

(* Every committed record without a retired section re-encodes to its
   exact line (3 of the first 4 today). *)
let test_committed_lines_reencode () =
  let lines =
    In_channel.with_open_bin "../baselines/history.jsonl" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun line -> line <> "")
  in
  let current =
    List.filter
      (fun line ->
        match Obs.Json.parse line with
        | Ok j -> List.for_all (fun k -> Obs.Json.member k j = None) [ "engine"; "gc"; "jobs2_slower" ]
        | Error e -> Alcotest.fail e)
      lines
  in
  check Alcotest.bool "at least 3 current records" true (List.length current >= 3);
  List.iter
    (fun line ->
      match Obs.History.of_string line with
      | Ok r -> check Alcotest.string "re-encodes to its line" line (Obs.History.to_string r)
      | Error e -> Alcotest.fail e)
    current

let suite =
  [
    Alcotest.test_case "record JSONL round-trip" `Quick test_roundtrip;
    Alcotest.test_case "optional sections omitted" `Quick test_optional_sections_omitted;
    Alcotest.test_case "decoder rejects garbage" `Quick test_rejects_garbage;
    Alcotest.test_case "append/load skips garbage lines" `Quick test_append_load_with_garbage;
    Alcotest.test_case "missing file loads empty" `Quick test_load_missing_file;
    Alcotest.test_case "retired sections ignored" `Quick test_retired_sections_ignored;
    Alcotest.test_case "committed history loads" `Quick test_committed_history_loads;
    Alcotest.test_case "byte-stable modulo timestamp/rev" `Quick
      test_byte_stable_modulo_timestamp_rev;
    Alcotest.test_case "manifest stall counts become shares" `Quick
      test_of_manifest_stall_shares;
    prop_record_round_trip;
    Alcotest.test_case "committed lines re-encode to their bytes" `Quick
      test_committed_lines_reencode;
  ]
