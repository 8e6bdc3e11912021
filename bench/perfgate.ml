(* Performance gate (make perfgate; wired into make ci).

   Times two Sim.Perf probes and measures the steady-state minor-heap
   cost of one run of each:

   - sim:perf-two-level — MatrixMul, 8 warps, Two_level 8, the stage
     bench of bench/main.ml: a busy loop where few cycles are dead;
   - sim:perf-lowipc — ConvolutionSeparable, 32 warps, Two_level 1: the
     simulated IPC is about 0.12, so most cycles issue nothing and this
     probe slows by several times if the cycle loop stops jumping
     dead cycles, which the first probe barely notices.

   Every number is checked against the committed threshold file
   baselines/perfgate.json:

   - each probe's median ns per run may regress at most 2x over its own
     committed threshold (ns_per_run, lowipc_ns_per_run): generous
     enough for machine-to-machine variance, tight enough to catch the
     cycle loop re-growing a per-cycle allocation, a quadratic scan or
     a lost dead-cycle jump;
   - minor words per run must stay under the committed cap.  The
     steady-state loop allocates nothing, so a run costs only the
     result record — a constant independent of cycle count;
   - promoted and major words per run (Gc.quick_stat deltas averaged
     over the timed runs) must stay under their committed caps: a
     steady-state allocation regression whose garbage survives minor
     collection would pass the minor-words gate while growing the
     major heap every run.

   Each probe is timed --runs times (default 5); the gate compares the
   median, and the p90 rides along as a tail-latency indicator.  The
   measured numbers land in _build/perfgate.json for CI to upload, so
   the trajectory is recorded even when the gate passes, and one
   history record (of the sim:perf-two-level probe) is appended to
   baselines/history.jsonl (--history to redirect, --no-history to
   skip) so rfh trend sees the cross-run series.  A threshold missing
   from the file — all of them on a fresh tree — is recorded from the
   current measurement (the regress-gate convention). *)

let baseline_path = "baselines/perfgate.json"
let artifact_path = "_build/perfgate.json"
let default_timed_runs = 5

let arg_value name =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let timed_runs =
  match Option.map int_of_string_opt (arg_value "--runs") with
  | Some (Some n) when n > 0 -> n
  | Some _ -> prerr_endline "perfgate: --runs wants a positive integer"; exit 2
  | None -> default_timed_runs

let history_path =
  if Array.exists (( = ) "--no-history") Sys.argv then None
  else Some (Option.value ~default:"baselines/history.jsonl" (arg_value "--history"))

(* [key] names the probe's ns-per-run threshold in the baseline file. *)
type probe = { name : string; key : string; run : unit -> Sim.Perf.result }

let probes () =
  let ctx name = Alloc.Context.create (Rfh.benchmark name) in
  let mm = ctx "MatrixMul" and conv = ctx "ConvolutionSeparable" in
  [
    {
      name = "sim:perf-two-level";
      key = "ns_per_run";
      run =
        (fun () ->
          Sim.Perf.run ~warps:8 ~max_dynamic_per_warp:300 ~scheduler:(Sim.Perf.Two_level 8)
            ~policy:Sim.Perf.On_dependence mm);
    };
    {
      name = "sim:perf-lowipc";
      key = "lowipc_ns_per_run";
      run =
        (fun () ->
          Sim.Perf.run ~warps:32 ~max_dynamic_per_warp:300 ~scheduler:(Sim.Perf.Two_level 1)
            ~policy:Sim.Perf.On_dependence conv);
    };
  ]

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let p90 a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (int_of_float (ceil (0.9 *. float_of_int n)) - 1))

type measured = {
  probe : probe;
  ns : float;  (* median over the timed runs *)
  p90_ns : float;
  minor_words : float;  (* one warmed run *)
  promoted_words : float;  (* per run, averaged over the timed runs *)
  major_words : float;
  result : Sim.Perf.result;
}

let measure p =
  (* Two warm-up runs fill the domain-local scratch and the predecode
     cache, so both the allocation probe and the timed runs see steady
     state; scratch reuse must not change the result. *)
  let r0 = p.run () in
  ignore (p.run ());
  let w0 = Gc.minor_words () in
  let r1 = p.run () in
  let minor_words = Gc.minor_words () -. w0 in
  if r1 <> r0 then begin
    Printf.eprintf "perfgate: %s: scratch reuse changed the simulation result\n" p.name;
    exit 1
  end;
  (* Promoted/major probe over the whole timed loop: a single run's
     delta is lumpy (promotion only happens when a minor collection
     lands mid-run), so the average over the timed runs is gated. *)
  let qs0 = Gc.quick_stat () in
  let samples =
    Array.init timed_runs (fun _ ->
        let t0 = Obs.Clock.now_ns () in
        ignore (p.run ());
        Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0))
  in
  let qs1 = Gc.quick_stat () in
  let per_run d = d /. float_of_int timed_runs in
  {
    probe = p;
    ns = median samples;
    p90_ns = p90 samples;
    minor_words;
    promoted_words = per_run (qs1.Gc.promoted_words -. qs0.Gc.promoted_words);
    major_words = per_run (qs1.Gc.major_words -. qs0.Gc.major_words);
    result = r1;
  }

let read_baseline () =
  if not (Sys.file_exists baseline_path) then []
  else
    let s = In_channel.with_open_text baseline_path In_channel.input_all in
    match Obs.Json.parse s with
    | Ok (Obs.Json.Obj fields) ->
      List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Obs.Json.to_num v)) fields
    | Ok _ ->
      Printf.eprintf "perfgate: malformed %s\n" baseline_path;
      exit 1
    | Error e ->
      Printf.eprintf "perfgate: cannot parse %s: %s\n" baseline_path e;
      exit 1

let write_json path json =
  let oc = open_out path in
  Obs.Json.to_channel oc json;
  output_char oc '\n';
  close_out oc

let () =
  let wall0 = Obs.Clock.now_ns () in
  let ms = List.map measure (probes ()) in
  let baseline = read_baseline () in
  (* The caps recorded into a fresh baseline are the fixed allocation
     budgets the zero-alloc tests also enforce: the steady-state loop
     promotes nothing, so anything beyond slack for an unluckily-timed
     minor collection is a regression. *)
  let recorded = ref [] in
  let threshold key default =
    match List.assoc_opt key baseline with
    | Some v -> v
    | None ->
      recorded := key :: !recorded;
      default
  in
  let ns_thresholds = List.map (fun m -> (m, threshold m.probe.key m.ns)) ms in
  let minor_cap = threshold "max_minor_words_per_run" 8192.0 in
  let promoted_cap = threshold "max_promoted_words_per_run" 8192.0 in
  let major_cap = threshold "max_major_words_per_run" 16384.0 in
  if !recorded <> [] then begin
    write_json baseline_path
      (Obs.Json.Obj
         (List.map (fun (m, t) -> (m.probe.key, Obs.Json.Num t)) ns_thresholds
         @ [
             ("max_minor_words_per_run", Obs.Json.Num minor_cap);
             ("max_promoted_words_per_run", Obs.Json.Num promoted_cap);
             ("max_major_words_per_run", Obs.Json.Num major_cap);
           ]));
    Printf.printf "perfgate: recorded %s from this run into %s\n"
      (String.concat ", " (List.rev !recorded))
      baseline_path
  end;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let probe_json (m, threshold_ns) =
    let name = m.probe.name in
    let allowed_ns = 2.0 *. threshold_ns in
    let failed0 = List.length !failures in
    if m.ns > allowed_ns then
      fail "%s ns_per_run regressed more than 2x over %s (%s)" name baseline_path m.probe.key;
    if m.minor_words > minor_cap then
      fail
        "%s steady-state run allocates %.0f minor words (cap %.0f); the cycle loop is \
         allocating again"
        name m.minor_words minor_cap;
    if m.promoted_words > promoted_cap then
      fail
        "%s steady-state run promotes %.0f words (cap %.0f); per-run garbage is surviving \
         minor collection"
        name m.promoted_words promoted_cap;
    if m.major_words > major_cap then
      fail "%s steady-state run grows the major heap by %.0f words (cap %.0f)" name
        m.major_words major_cap;
    Printf.printf
      "perfgate: %s %.2f ms/run median over %d, p90 %.2f ms (threshold %.2f ms, allowed \
       %.2f ms), %.0f minor words/run (cap %.0f), %.0f promoted (cap %.0f), %.0f major (cap \
       %.0f)\n"
      name (m.ns /. 1e6) timed_runs (m.p90_ns /. 1e6) (threshold_ns /. 1e6)
      (allowed_ns /. 1e6) m.minor_words minor_cap m.promoted_words promoted_cap m.major_words
      major_cap;
    Obs.Json.Obj
      [
        ("benchmark", Obs.Json.Str name);
        ("ns_per_run", Obs.Json.Num m.ns);
        ("p90_ns_per_run", Obs.Json.Num m.p90_ns);
        ("threshold_ns_per_run", Obs.Json.Num threshold_ns);
        ("allowed_ns_per_run", Obs.Json.Num allowed_ns);
        ("minor_words_per_run", Obs.Json.Num m.minor_words);
        ("max_minor_words_per_run", Obs.Json.Num minor_cap);
        ("promoted_words_per_run", Obs.Json.Num m.promoted_words);
        ("max_promoted_words_per_run", Obs.Json.Num promoted_cap);
        ("major_words_per_run", Obs.Json.Num m.major_words);
        ("max_major_words_per_run", Obs.Json.Num major_cap);
        ("cycles", Obs.Json.int m.result.Sim.Perf.cycles);
        ("instructions", Obs.Json.int m.result.Sim.Perf.instructions);
        ("pass", Obs.Json.Bool (List.length !failures = failed0));
      ]
  in
  let probes_json = List.map probe_json ns_thresholds in
  write_json artifact_path
    (Obs.Json.Obj
       [
         ("timed_runs", Obs.Json.int timed_runs);
         ("probes", Obs.Json.Arr probes_json);
         ("pass", Obs.Json.Bool (!failures = []));
       ]);
  Printf.printf "perfgate: wrote %s\n" artifact_path;
  (match history_path with
  | None -> ()
  | Some path ->
    let m = List.hd ms in
    let record =
      {
        Obs.History.timestamp = Obs.Host.utc_now ();
        source = "perfgate";
        host = Obs.Host.fingerprint ();
        jobs = 1;
        wall_s = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) wall0) /. 1000.0;
        benches = [];
        perfgate =
          Some
            {
              Obs.History.pg_ns_per_run = m.ns;
              pg_p90_ns = m.p90_ns;
              pg_minor_words = m.minor_words;
              pg_runs = timed_runs;
              pg_promoted_words = Some m.promoted_words;
              pg_major_words = Some m.major_words;
            };
        engine = None;
        gc = None;
        jobs2_slower = None;
      }
    in
    Obs.History.append ~path record;
    Printf.printf "perfgate: history record -> %s\n" path);
  List.iter (Printf.eprintf "perfgate: FAIL — %s\n") (List.rev !failures);
  if !failures <> [] then exit 1
