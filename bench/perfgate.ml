(* Performance gate (make perfgate; wired into make ci).

   Times twelve probes — five Sim.Perf, two Sim.Traffic and five on the
   compile path (Alloc.Context and Alloc.Allocator at two kernel sizes
   each, Alloc.Verify) —
   and measures the steady-state minor-heap cost of one run of each:

   - sim:perf-two-level — MatrixMul, 8 warps, Two_level 8, capped at
     300 dynamic instructions per warp: a busy loop where few cycles
     are dead;
   - sim:perf-lowipc — ConvolutionSeparable, 32 warps, Two_level 1: the
     simulated IPC is about 0.12, so most cycles issue nothing and this
     probe slows by several times if the cycle loop stops jumping
     dead cycles, which the first probe barely notices;
   - sim:perf-single-level — MatrixMul, 32 warps, Single_level, capped
     at 100 dynamic instructions per warp: every warp sits in one
     active queue, so the queue is at its longest, and this probe slows
     if a queue move or the walk starts copying or shifting the queue
     again;
   - sim:perf-two-level-16 — MatrixMul, 32 warps, Two_level 16 under
     At_strand_boundaries with an 8-bank MRF, capped at 100 dynamic
     instructions per warp: most cycles issue with many warps still
     waiting behind the issuer, whose owed cycles are credited at
     their next visit through the strand-boundary and bank-conflict
     causes, so this probe slows if the walk goes back to classifying
     every warp behind the issuer each cycle;
   - sim:perf-per-warp-streams — Mandelbrot, 32 warps, Two_level 8
     under At_strand_boundaries: Mandelbrot's loops exit on
     probabilistic branches, so the run fills and reads one instruction
     stream per warp, where the four probes above run warp-invariant
     kernels whose warps share one stream;
   - sim:traffic-hw — sad, 32 warps, a 3-entry hardware RFC with a
     hardware LRF: the traffic walk's costliest scheme, which replays
     both caches on every dynamic instruction;
   - sim:traffic-sw — sad, 32 warps, the software hierarchy under the
     default config (placement built outside the timed region): sad
     has no probabilistic branch, so every warp replays one stream and
     the run walks warp 0 alone; this probe slows several times if
     Baseline and Sw runs go back to walking every warp, which
     sim:traffic-hw cannot see;
   - compile:context — Alloc.Context.create (every analysis, the
     strand partition and must-defined) on the size-256 generated
     kernel of seed 1 (1,678 instructions, 388 blocks, 1,150
     registers);
   - compile:allocate — Alloc.Allocator.run on that kernel under the
     default config, on a context built outside the timed region (what
     the compile path outputs is pinned by test/placement_golden.jsonl,
     not here): its candidates live in a reused per-domain table, so a
     run allocates little more than its placement;
   - compile:verify — Alloc.Verify.check alone on that kernel under
     the default config; the context and placement are built outside
     the timed region;
   - compile:context-1024 — Alloc.Context.create on the size-1024
     generated kernel of seed 1 (6,410 instructions, 1,542 blocks,
     4,397 registers): the compile path's scaling gate, which slows by
     several times per instruction if an analysis goes back to a dense
     table over every definition site or register per block;
   - compile:allocate-1024 — Alloc.Allocator.run on that kernel under
     the default config, its context built outside the timed region:
     the allocator's scaling gate.

   Every number is checked against the committed threshold file
   baselines/perfgate.json:

   - each probe's median ns per run may regress at most 2x over its own
     committed threshold (ns_per_run, lowipc_ns_per_run,
     single_level_ns_per_run, two_level_16_ns_per_run,
     per_warp_streams_ns_per_run, traffic_ns_per_run,
     traffic_sw_ns_per_run, context_ns_per_run, allocate_ns_per_run,
     verify_ns_per_run, context_1024_ns_per_run,
     allocate_1024_ns_per_run): generous enough for
     machine-to-machine variance, tight enough to catch a loop
     re-growing a per-step allocation, a quadratic scan, a lost
     dead-cycle jump, an active queue copied per cycle again, a cache
     replay back on polymorphic compare or a verifier fixpoint back on
     per-visit state copies;
   - minor words per run must stay under the committed cap.  The
     simulator loops allocate nothing in the steady state, so a run
     costs only its result and per-run records — a constant
     independent of run length;
   - promoted and major words per run (Gc.quick_stat deltas averaged
     over the timed runs) must stay under their committed caps: a
     steady-state allocation regression whose garbage survives minor
     collection would pass the minor-words gate while growing the
     major heap every run.

   The simulator probes share one set of caps (max_minor_words_per_run,
   max_promoted_words_per_run, max_major_words_per_run).  Each compile
   probe has its own (the same keys prefixed context_, allocate_,
   verify_, context_1024_ or allocate_1024_): those runs build
   per-kernel tables, so
   they allocate in proportion to the kernel, and the caps sit between
   today's cost and the cost of what they replaced, so a return to it
   fails on allocation even where the 2x time tolerance would let it
   pass.  Every compile-path table past the 256-word minor-heap limit
   holds immediates (flat int arrays and bit matrices), so a run
   promotes almost nothing; the promoted caps fail if a table of
   pointers (per-block sets, per-instruction lists or records) comes
   back, whose cells the write barrier would promote live or dead, and
   the major caps fail if a dense blocks x sites table does.

   Each probe is timed --runs times (default 5); the gate compares the
   median, and the p90 rides along as a tail-latency indicator.  The
   measured numbers land in _build/perfgate.json for CI to upload, so
   the trajectory is recorded even when the gate passes.  With
   --history FILE, one history record (of the sim:perf-two-level probe)
   is appended to FILE so rfh trend sees the cross-run series; without
   it nothing else is written.  A threshold missing
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

let history_path = arg_value "--history"

(* The allocation caps a probe is held to: the baseline-file keys
   (the prefix names the set) and the values recorded into a fresh
   baseline. *)
type caps = { prefix : string; minor : float; promoted : float; major : float }

(* The fixed budgets the zero-alloc tests also enforce: the simulator
   steady state promotes nothing, so anything beyond slack for an
   unluckily-timed minor collection is a regression. *)
let sim_caps = { prefix = ""; minor = 8192.0; promoted = 8192.0; major = 16384.0 }

(* A check on the probe's kernel allocates ~9k minor words and ~12k
   major words (its block-entry tables) and promotes nothing.  The
   round-robin fixpoint it replaced allocated 380,804 minor and 3.76 M
   major words per run; the per-block entry states after it, 24k minor
   words, which the next minor collection promoted. *)
let verify_caps = { prefix = "verify_"; minor = 16384.0; promoted = 32768.0; major = 65536.0 }

(* Context.create on the probe's kernel allocates ~65k minor words and
   ~64k major words and promotes ~2k.  With per-block sets and
   per-instruction lists and records it cost 329k/124k/160k
   (minor/promoted/major), and before the compile path moved to word
   bitsets and per-operand reaching tables 777k/249k/279k.  At size
   1024, Context.create allocates ~261k minor and ~402k major words and
   promotes ~14k; with per-block sets over every definition site it
   cost 2,084k/1,151k/1,316k.  An allocator run keeps its candidates in
   a reused per-domain table of immediates: on the size-256 kernel it
   allocates ~18k minor and ~7-12k major words (mostly its placement)
   and promotes a few hundred.  With candidates built from per-group
   lists, closures, records and boxed floats it cost 290k/34-40k/46-63k,
   and before once-scored candidates 1,206k/102k/114k. *)
let context_caps = { prefix = "context_"; minor = 131072.0; promoted = 16384.0; major = 98304.0 }
let allocate_caps = { prefix = "allocate_"; minor = 49152.0; promoted = 8192.0; major = 24576.0 }
let context_1024_caps =
  { prefix = "context_1024_"; minor = 786432.0; promoted = 65536.0; major = 655360.0 }
let allocate_1024_caps =
  { prefix = "allocate_1024_"; minor = 196608.0; promoted = 32768.0; major = 98304.0 }

(* [what] is "minor", "promoted" or "major". *)
let cap_key c what = Printf.sprintf "%smax_%s_words_per_run" c.prefix what
let cap_defaults c = [ ("minor", c.minor); ("promoted", c.promoted); ("major", c.major) ]

(* [key] names the probe's ns-per-run threshold in the baseline file.
   [warm] makes two warm-up runs, which fill the domain-local scratch
   and the predecode cache, then one more whose minor words it returns
   with that run's result fields; scratch reuse must not change the
   result.  [timed] is one run. *)
type probe = {
  name : string;
  key : string;
  caps : caps;
  warm : unit -> (string * Obs.Json.t) list * float;
  timed : unit -> unit;
}

let probe (type r) ~name ~key ?(caps = sim_caps) (run : unit -> r)
    (fields : r -> (string * Obs.Json.t) list) =
  let warm () =
    let r0 = run () in
    ignore (run ());
    let w0 = Gc.minor_words () in
    let r1 = run () in
    let minor_words = Gc.minor_words () -. w0 in
    if r1 <> r0 then begin
      Printf.eprintf "perfgate: %s: a repeated run (reusing its scratch) changed the result\n" name;
      exit 1
    end;
    (fields r1, minor_words)
  in
  { name; key; caps; warm; timed = (fun () -> ignore (run ())) }

let perf_fields (r : Sim.Perf.result) =
  [
    ("cycles", Obs.Json.int r.Sim.Perf.cycles);
    ("instructions", Obs.Json.int r.Sim.Perf.instructions);
  ]

let traffic_fields (r : Sim.Traffic.result) =
  [
    ("dynamic_instrs", Obs.Json.int r.Sim.Traffic.dynamic_instrs);
    ("desched_events", Obs.Json.int r.Sim.Traffic.desched_events);
  ]

let allocate_fields (_, (s : Alloc.Allocator.stats)) =
  [
    ("candidates", Obs.Json.int (s.write_units + s.read_units));
    ("placed", Obs.Json.int (s.lrf_allocated + s.orf_allocated));
  ]

let verify_fields = function
  | Ok () -> [ ("verdict", Obs.Json.Str "ok") ]
  | Error errs -> [ ("verdict", Obs.Json.Str "rejected"); ("errors", Obs.Json.int (List.length errs)) ]

let probes () =
  let ctx name = Alloc.Context.create (Rfh.benchmark name) in
  let mm = ctx "MatrixMul" and conv = ctx "ConvolutionSeparable" and sad = ctx "sad" in
  let mandel = ctx "Mandelbrot" in
  let gen_kernel = Workloads.Generator.kernel ~size:256 ~seed:1 () in
  let gen = Alloc.Context.create gen_kernel in
  let gen_1024 = Workloads.Generator.kernel ~size:1024 ~seed:1 () in
  let gen_1024_ctx = Alloc.Context.create gen_1024 in
  let config = Alloc.Config.make () in
  let placement = Alloc.Allocator.place config gen in
  let sad_sw = Sim.Traffic.Sw { config; placement = Alloc.Allocator.place config sad } in
  [
    probe ~name:"sim:perf-two-level" ~key:"ns_per_run"
      (fun () ->
        Sim.Perf.run ~warps:8 ~max_dynamic_per_warp:300 ~scheduler:(Sim.Perf.Two_level 8)
          ~policy:Sim.Perf.On_dependence mm)
      perf_fields;
    probe ~name:"sim:perf-lowipc" ~key:"lowipc_ns_per_run"
      (fun () ->
        Sim.Perf.run ~warps:32 ~max_dynamic_per_warp:300 ~scheduler:(Sim.Perf.Two_level 1)
          ~policy:Sim.Perf.On_dependence conv)
      perf_fields;
    probe ~name:"sim:perf-single-level" ~key:"single_level_ns_per_run"
      (fun () ->
        Sim.Perf.run ~warps:32 ~max_dynamic_per_warp:100 ~scheduler:Sim.Perf.Single_level
          ~policy:Sim.Perf.On_dependence mm)
      perf_fields;
    probe ~name:"sim:perf-two-level-16" ~key:"two_level_16_ns_per_run"
      (fun () ->
        Sim.Perf.run ~warps:32 ~max_dynamic_per_warp:100 ~mrf_banks:8
          ~scheduler:(Sim.Perf.Two_level 16) ~policy:Sim.Perf.At_strand_boundaries mm)
      perf_fields;
    probe ~name:"sim:perf-per-warp-streams" ~key:"per_warp_streams_ns_per_run"
      (fun () ->
        Sim.Perf.run ~warps:32 ~scheduler:(Sim.Perf.Two_level 8)
          ~policy:Sim.Perf.At_strand_boundaries mandel)
      perf_fields;
    probe ~name:"sim:traffic-hw" ~key:"traffic_ns_per_run"
      (fun () ->
        Sim.Traffic.run ~warps:32 sad
          (Sim.Traffic.Hw { (Sim.Traffic.hw_defaults ~rfc_entries:3) with with_lrf = true }))
      traffic_fields;
    probe ~name:"sim:traffic-sw" ~key:"traffic_sw_ns_per_run"
      (fun () -> Sim.Traffic.run ~warps:32 sad sad_sw)
      traffic_fields;
    probe ~name:"compile:context" ~key:"context_ns_per_run" ~caps:context_caps
      (fun () -> Alloc.Context.create gen_kernel)
      (fun (c : Alloc.Context.t) ->
        [ ("strands", Obs.Json.int (Strand.Partition.num_strands c.Alloc.Context.partition)) ]);
    probe ~name:"compile:allocate" ~key:"allocate_ns_per_run" ~caps:allocate_caps
      (fun () -> Alloc.Allocator.run config gen)
      allocate_fields;
    probe ~name:"compile:verify" ~key:"verify_ns_per_run" ~caps:verify_caps
      (fun () -> Alloc.Verify.check config gen placement)
      verify_fields;
    probe ~name:"compile:context-1024" ~key:"context_1024_ns_per_run" ~caps:context_1024_caps
      (fun () -> Alloc.Context.create gen_1024)
      (fun (c : Alloc.Context.t) ->
        [ ("strands", Obs.Json.int (Strand.Partition.num_strands c.Alloc.Context.partition)) ]);
    probe ~name:"compile:allocate-1024" ~key:"allocate_1024_ns_per_run" ~caps:allocate_1024_caps
      (fun () -> Alloc.Allocator.run config gen_1024_ctx)
      allocate_fields;
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
  fields : (string * Obs.Json.t) list;  (* the warmed run's result *)
}

let measure p =
  let fields, minor_words = p.warm () in
  (* Promoted/major probe over the whole timed loop: a single run's
     delta is lumpy (promotion only happens when a minor collection
     lands mid-run), so the average over the timed runs is gated.  The
     timed loop starts on an empty minor heap: otherwise what was
     allocated before it (every probe's inputs, built up front, and
     the scratch growth of earlier probes and of this warm-up) is
     promoted by whichever probe's window the next minor collection
     happens to land in, and charged to that probe's steady state. *)
  Gc.minor ();
  let qs0 = Gc.quick_stat () in
  let samples =
    Array.init timed_runs (fun _ ->
        let t0 = Obs.Clock.now_ns () in
        p.timed ();
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
    fields;
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
  let recorded = ref [] in
  let threshold key default =
    match List.assoc_opt key baseline with
    | Some v -> v
    | None ->
      recorded := key :: !recorded;
      default
  in
  let ns_thresholds = List.map (fun m -> (m, threshold m.probe.key m.ns)) ms in
  let caps =
    List.concat_map
      (fun c ->
        List.map
          (fun (what, default) ->
            let key = cap_key c what in
            (key, threshold key default))
          (cap_defaults c))
      [ sim_caps; context_caps; allocate_caps; verify_caps; context_1024_caps; allocate_1024_caps ]
  in
  if !recorded <> [] then begin
    write_json baseline_path
      (Obs.Json.Obj
         (List.map (fun (m, t) -> (m.probe.key, Obs.Json.Num t)) ns_thresholds
         @ List.map (fun (key, v) -> (key, Obs.Json.Num v)) caps));
    Printf.printf "perfgate: recorded %s from this run into %s\n"
      (String.concat ", " (List.rev !recorded))
      baseline_path
  end;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let probe_json (m, threshold_ns) =
    let name = m.probe.name in
    let cap what = List.assoc (cap_key m.probe.caps what) caps in
    let minor_cap = cap "minor" and promoted_cap = cap "promoted" and major_cap = cap "major" in
    let allowed_ns = 2.0 *. threshold_ns in
    let failed0 = List.length !failures in
    if m.ns > allowed_ns then
      fail "%s ns_per_run regressed more than 2x over %s (%s)" name baseline_path m.probe.key;
    if m.minor_words > minor_cap then
      fail "%s steady-state run allocates %.0f minor words (cap %.0f); a loop is allocating again"
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
      "perfgate: %s %.3f ms/run median over %d, p90 %.3f ms (threshold %.3f ms, allowed \
       %.3f ms), %.0f minor words/run (cap %.0f), %.0f promoted (cap %.0f), %.0f major (cap \
       %.0f)\n"
      name (m.ns /. 1e6) timed_runs (m.p90_ns /. 1e6) (threshold_ns /. 1e6)
      (allowed_ns /. 1e6) m.minor_words minor_cap m.promoted_words promoted_cap m.major_words
      major_cap;
    Obs.Json.Obj
      ([
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
      ]
      @ m.fields
      @ [ ("pass", Obs.Json.Bool (List.length !failures = failed0)) ])
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
      }
    in
    Obs.History.append ~path record;
    Printf.printf "perfgate: history record -> %s\n" path);
  List.iter (Printf.eprintf "perfgate: FAIL — %s\n") (List.rev !failures);
  if !failures <> [] then exit 1
