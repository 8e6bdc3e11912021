(* The committed simulator and verifier goldens, rendered from the
   current engines.  gen_perf_golden.ml prints them to (re)capture the
   files and test_perf_golden.ml compares them byte-for-byte, so the
   generator and the gate can never drift apart. *)

(* --- result records: test/perf_golden.json ------------------------- *)

let warps = 8
let max_dynamic = 200

let schedulers = [ ("single", Sim.Perf.Single_level); ("two4", Sim.Perf.Two_level 4) ]
let policies = [ ("dep", Sim.Perf.On_dependence); ("strand", Sim.Perf.At_strand_boundaries) ]
let banks = [ 0; 4 ]

let breakdown_json (b : Sim.Perf.stall_breakdown) =
  Obs.Json.Arr (List.map (fun (_, n) -> Obs.Json.int n) (Sim.Perf.breakdown_fields b))

let per_warp_json (r : Sim.Perf.result) =
  Obs.Json.Arr
    (Array.to_list
       (Array.map
          (fun (w : Sim.Perf.warp_stats) -> breakdown_json w.Sim.Perf.breakdown)
          r.Sim.Perf.per_warp))

let sched_stats_json (s : Sim.Perf.sched_stats) =
  Obs.Json.Arr
    (List.map Obs.Json.int
       Sim.Perf.
         [
           s.entries;
           s.exits;
           s.resident_cycles;
           s.desched_long_latency;
           s.desched_strand_boundary;
           s.desched_bank_conflict;
         ])

let result_json bench sname pname bank (r : Sim.Perf.result) =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.Str bench);
      ("sched", Obs.Json.Str sname);
      ("policy", Obs.Json.Str pname);
      ("banks", Obs.Json.int bank);
      ("cycles", Obs.Json.int r.Sim.Perf.cycles);
      ("instructions", Obs.Json.int r.Sim.Perf.instructions);
      ("desched_events", Obs.Json.int r.Sim.Perf.desched_events);
      ("stalls", breakdown_json r.Sim.Perf.stalls);
      ("per_warp", per_warp_json r);
      ("sched_stats", sched_stats_json r.Sim.Perf.sched);
    ]

let results_doc () =
  let entries =
    List.concat_map
      (fun (e : Workloads.Registry.entry) ->
        let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
        List.concat_map
          (fun (sname, scheduler) ->
            List.concat_map
              (fun (pname, policy) ->
                List.map
                  (fun bank ->
                    let mrf_banks = if bank = 0 then None else Some bank in
                    let r =
                      Sim.Perf.run ~warps ~max_dynamic_per_warp:max_dynamic ?mrf_banks
                        ~scheduler ~policy ctx
                    in
                    result_json e.Workloads.Registry.name sname pname bank r)
                  banks)
              policies)
          schedulers)
      (Workloads.Registry.all ())
  in
  Obs.Json.Obj
    [
      ("warps", Obs.Json.int warps);
      ("max_dynamic_per_warp", Obs.Json.int max_dynamic);
      ("runs", Obs.Json.Arr entries);
    ]

let results_run_count () =
  List.length (Workloads.Registry.all ())
  * List.length schedulers * List.length policies * List.length banks

(* --- recorder streams: test/perf_timeline_golden.jsonl ------------- *)

(* Low-IPC benches at full warp count, where most cycles issue nothing:
   the Obs.Timeline intervals and Obs.Counters samples of each run, so
   how intervals close and when perf.active_warps is sampled is pinned
   as well as the totals. *)
let tl_warps = 32
let tl_max_dynamic = 12
let tl_benches = [ "BicubicTexture"; "ConvolutionTexture" ]

let tl_schedulers =
  [
    ("two1", Sim.Perf.Two_level 1);
    ("two8", Sim.Perf.Two_level 8);
    ("single", Sim.Perf.Single_level);
  ]

let tl_banks = [ 0; 8 ]

(* One extra run cut off by [max_cycles] at a cycle where no warp
   issues (a dead span of BicubicTexture under Two_level 1), so the
   end-of-run interval closing and breakdown flush are pinned at a
   truncation too. *)
let tl_cut = ("BicubicTexture", "two1", Sim.Perf.Two_level 1, 1_800)

let ctx_of name =
  match Workloads.Registry.find name with
  | Some e -> Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel)
  | None -> invalid_arg ("perf golden: unknown bench " ^ name)

let line buf j =
  Buffer.add_string buf (Obs.Json.to_string j);
  Buffer.add_char buf '\n'

(* Every recorded counter sample, tracks by name, samples by time. *)
let counter_lines buf =
  List.iter
    (fun (t : Obs.Counters.track) ->
      List.iter
        (fun (s : Obs.Counters.sample) ->
          line buf
            (Obs.Json.Obj
               [
                 ("track", Obs.Json.Str t.Obs.Counters.track);
                 ("at", Obs.Json.Num s.Obs.Counters.at);
                 ("value", Obs.Json.Num s.Obs.Counters.value);
               ]))
        t.Obs.Counters.samples)
    (Obs.Counters.tracks ())

(* [f ()] with the Obs.Timeline and Obs.Counters recorders on, and the
   streams it recorded: every interval in emission order, then every
   counter sample. *)
let recorded f =
  let sink, intervals = Obs.Timeline.memory_sink () in
  Obs.Timeline.set_sink sink;
  Obs.Counters.reset ();
  Obs.Counters.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Timeline.disable ();
        Obs.Counters.set_enabled false)
      f
  in
  let streams = Buffer.create (1 lsl 16) in
  List.iter (fun iv -> line streams (Obs.Timeline.to_json iv)) (intervals ());
  counter_lines streams;
  Obs.Counters.reset ();
  (r, Buffer.contents streams)

(* Header line, then the run's recorded streams. *)
let record_run buf ~bench ~sname ~pname ~bank ?max_cycles ~scheduler ~policy ctx =
  let mrf_banks = if bank = 0 then None else Some bank in
  let r, streams =
    recorded (fun () ->
        Sim.Perf.run ~warps:tl_warps ~max_dynamic_per_warp:tl_max_dynamic ?max_cycles
          ?mrf_banks ~scheduler ~policy ctx)
  in
  line buf
    (Obs.Json.Obj
       [
         ("bench", Obs.Json.Str bench);
         ("sched", Obs.Json.Str sname);
         ("policy", Obs.Json.Str pname);
         ("banks", Obs.Json.int bank);
         ( "max_cycles",
           match max_cycles with Some c -> Obs.Json.int c | None -> Obs.Json.Null );
         ("cycles", Obs.Json.int r.Sim.Perf.cycles);
         ("instructions", Obs.Json.int r.Sim.Perf.instructions);
       ]);
  Buffer.add_string buf streams

let timeline_doc () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun bench ->
      let ctx = ctx_of bench in
      List.iter
        (fun (sname, scheduler) ->
          List.iter
            (fun (pname, policy) ->
              List.iter
                (fun bank -> record_run buf ~bench ~sname ~pname ~bank ~scheduler ~policy ctx)
                tl_banks)
            policies)
        tl_schedulers)
    tl_benches;
  let bench, sname, scheduler, max_cycles = tl_cut in
  record_run buf ~bench ~sname ~pname:"dep" ~bank:0 ~max_cycles ~scheduler
    ~policy:Sim.Perf.On_dependence (ctx_of bench);
  Buffer.contents buf

(* --- full-width runs: test/perf_wide_golden.jsonl ----------------- *)

(* The results golden runs 8 warps and the timeline golden 12
   instructions per warp, so neither pins a long run with a long active
   queue.  These do: 32 warps under Single_level and Two_level 8 and
   16, and 100 warps under Single_level and Two_level 64, on benches
   that mix high IPC (MatrixMul, Mandelbrot, ConvolutionSeparable)
   with deschedule-heavy low IPC (sad, Reduction, ConvolutionTexture,
   BoxFilter, lu).  One line per run: the totals, the scheduler stats
   and the MD5 of the per-warp rows. *)
let wide_max_dynamic = 300

let wide_benches =
  [
    "MatrixMul"; "Mandelbrot"; "ConvolutionSeparable"; "BoxFilter"; "sad"; "Reduction";
    "ConvolutionTexture"; "lu";
  ]

let wide_grid =
  [
    ( 32,
      wide_benches,
      [
        ("single", Sim.Perf.Single_level);
        ("two8", Sim.Perf.Two_level 8);
        ("two16", Sim.Perf.Two_level 16);
      ] );
    ( 100,
      [ "MatrixMul"; "sad" ],
      [ ("single", Sim.Perf.Single_level); ("two64", Sim.Perf.Two_level 64) ] );
  ]

let wide_banks = [ 0; 8 ]

let wide_doc () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (warps, benches, schedulers) ->
      List.iter
        (fun bench ->
          let ctx = ctx_of bench in
          List.iter
            (fun (sname, scheduler) ->
              List.iter
                (fun (pname, policy) ->
                  List.iter
                    (fun bank ->
                      let mrf_banks = if bank = 0 then None else Some bank in
                      let r =
                        Sim.Perf.run ~warps ~max_dynamic_per_warp:wide_max_dynamic ?mrf_banks
                          ~scheduler ~policy ctx
                      in
                      line buf
                        (Obs.Json.Obj
                           [
                             ("bench", Obs.Json.Str bench);
                             ("warps", Obs.Json.int warps);
                             ("sched", Obs.Json.Str sname);
                             ("policy", Obs.Json.Str pname);
                             ("banks", Obs.Json.int bank);
                             ("cycles", Obs.Json.int r.Sim.Perf.cycles);
                             ("instructions", Obs.Json.int r.Sim.Perf.instructions);
                             ("desched_events", Obs.Json.int r.Sim.Perf.desched_events);
                             ("stalls", breakdown_json r.Sim.Perf.stalls);
                             ("sched_stats", sched_stats_json r.Sim.Perf.sched);
                             ( "per_warp_md5",
                               Obs.Json.Str
                                 (Digest.to_hex
                                    (Digest.string (Obs.Json.to_string (per_warp_json r)))) );
                           ]))
                    wide_banks)
                policies)
            schedulers)
        benches)
    wide_grid;
  Buffer.contents buf

(* --- runs cut in busy stretches: test/perf_cut_golden.jsonl -------- *)

(* The wide golden's runs end when every warp finishes, and the
   timeline golden's cut falls in a dead span under Two_level 1, where
   no warp ever sits behind the issuer.  These runs are cut at
   [max_cycles] while many warps wait behind each cycle's issuer, so
   the end-of-run flush of every warp's owed cycles and the clamp of a
   stall cached past the cut are pinned.  One line per run: the totals,
   the scheduler stats, the MD5 of the per-warp rows and the MD5 of the
   run's Timeline intervals and Counters samples (recorded in a second
   run, which must return the same result). *)
let cut_warps = 32
let cut_max_dynamic = 300
let cut_benches = [ "MatrixMul"; "sad"; "lu" ]

let cut_schedulers =
  [
    ("single", Sim.Perf.Single_level); ("two8", Sim.Perf.Two_level 8);
    ("two16", Sim.Perf.Two_level 16);
  ]

let cut_banks = [ 0; 8 ]
let cut_cycles = [ 700; 1_500 ]

(* Every cut run: [max_cycles], the result with the recorders off, the
   result with them on, and the line the golden holds for it. *)
let cut_runs () =
  List.concat_map
    (fun bench ->
      let ctx = ctx_of bench in
      List.concat_map
        (fun (sname, scheduler) ->
          List.concat_map
            (fun (pname, policy) ->
              List.concat_map
                (fun bank ->
                  List.map
                    (fun max_cycles ->
                      let mrf_banks = if bank = 0 then None else Some bank in
                      let run () =
                        Sim.Perf.run ~warps:cut_warps ~max_dynamic_per_warp:cut_max_dynamic
                          ~max_cycles ?mrf_banks ~scheduler ~policy ctx
                      in
                      let r = run () in
                      let recorded_r, streams = recorded run in
                      let md5 s = Obs.Json.Str (Digest.to_hex (Digest.string s)) in
                      ( max_cycles,
                        r,
                        recorded_r,
                        Obs.Json.Obj
                          [
                            ("bench", Obs.Json.Str bench);
                            ("sched", Obs.Json.Str sname);
                            ("policy", Obs.Json.Str pname);
                            ("banks", Obs.Json.int bank);
                            ("max_cycles", Obs.Json.int max_cycles);
                            ("cycles", Obs.Json.int r.Sim.Perf.cycles);
                            ("instructions", Obs.Json.int r.Sim.Perf.instructions);
                            ("desched_events", Obs.Json.int r.Sim.Perf.desched_events);
                            ("stalls", breakdown_json r.Sim.Perf.stalls);
                            ("sched_stats", sched_stats_json r.Sim.Perf.sched);
                            ("per_warp_md5", md5 (Obs.Json.to_string (per_warp_json r)));
                            ("streams_md5", md5 streams);
                          ] ))
                    cut_cycles)
                cut_banks)
            policies)
        cut_schedulers)
    cut_benches

let cut_doc_of runs =
  let buf = Buffer.create (1 lsl 15) in
  List.iter (fun (_, _, _, j) -> line buf j) runs;
  Buffer.contents buf

let cut_doc () = cut_doc_of (cut_runs ())

(* --- traffic walk: test/traffic_golden.jsonl ---------------------- *)

(* Two sections.  Results: every registry benchmark under every scheme
   shape the figures use (Baseline; SW two-level and split-LRF and HW
   with and without an LRF at 1, 3 and 8 entries; the two Sec. 7 HW
   flush variants), one line per run with the merged counts, the
   per-strand counts, and the run totals.  Verbatim: short runs whose
   every recorder output is pinned — the Obs.Audit stream in emission
   order, the traffic.* counter samples and the whole attribution
   ranking — so the order events are emitted in and the pc every access
   is charged to are held as well as the totals. *)

let tr_warps = 32

let hw ?(with_lrf = false) ?(never_flush = false) ?(flush_on_backward_branch = false) n =
  Sim.Traffic.Hw
    { (Sim.Traffic.hw_defaults ~rfc_entries:n) with with_lrf; never_flush; flush_on_backward_branch }

let sw lrf entries ctx =
  let config = Alloc.Config.make ~orf_entries:entries ~lrf () in
  Sim.Traffic.Sw { config; placement = Alloc.Allocator.place config ctx }

let tr_schemes =
  ("baseline", fun _ -> Sim.Traffic.Baseline)
  :: List.concat_map
       (fun n ->
         [
           (Printf.sprintf "sw-two-%d" n, sw Alloc.Config.No_lrf n);
           (Printf.sprintf "sw-split-%d" n, sw Alloc.Config.Split n);
           (Printf.sprintf "hw-%d" n, fun _ -> hw n);
           (Printf.sprintf "hw-lrf-%d" n, fun _ -> hw ~with_lrf:true n);
         ])
       [ 1; 3; 8 ]
  @ [
      ("hw-3-never-flush", fun _ -> hw ~never_flush:true 3);
      ("hw-3-backward-flush", fun _ -> hw ~flush_on_backward_branch:true 3);
    ]

(* Every count cell: reads then writes, MRF/ORF/RFC/LRF, private then
   shared, then the RFC probes. *)
let counts_cells c =
  let levels = Energy.Model.[ Mrf; Orf; Rfc; Lrf ] and dps = Energy.Model.[ Private; Shared ] in
  let cells get = List.concat_map (fun l -> List.map (fun dp -> get c l dp) dps) levels in
  Obs.Json.Arr
    (List.map Obs.Json.int
       (cells Energy.Counts.reads_dp @ cells Energy.Counts.writes_dp
       @ [ Energy.Counts.rfc_probes c ]))

let traffic_results buf =
  line buf
    (Obs.Json.Obj [ ("section", Obs.Json.Str "results"); ("warps", Obs.Json.int tr_warps) ]);
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
      List.iter
        (fun (sname, scheme) ->
          let r = Sim.Traffic.run ~warps:tr_warps ctx (scheme ctx) in
          line buf
            (Obs.Json.Obj
               [
                 ("bench", Obs.Json.Str e.Workloads.Registry.name);
                 ("scheme", Obs.Json.Str sname);
                 ("counts", Energy.Counts.to_json r.Sim.Traffic.counts);
                 ( "per_strand",
                   Obs.Json.Arr (Array.to_list (Array.map counts_cells r.Sim.Traffic.per_strand)) );
                 ("dynamic_instrs", Obs.Json.int r.Sim.Traffic.dynamic_instrs);
                 ("desched_events", Obs.Json.int r.Sim.Traffic.desched_events);
                 ("capped_warps", Obs.Json.int r.Sim.Traffic.capped_warps);
               ]))
        tr_schemes)
    (Workloads.Registry.all ())

let vb_warps = 2
let vb_max_dynamic = 200
let vb_benches = [ "VectorAdd"; "MatrixMul" ]

let vb_schemes =
  [
    ("sw-split-3", sw Alloc.Config.Split 3);
    ("hw-lrf-3-backward-flush", fun _ -> hw ~with_lrf:true ~flush_on_backward_branch:true 3);
  ]

let traffic_verbatim buf bench (sname, scheme) =
  let ctx = ctx_of bench in
  let scheme = scheme ctx in
  let sink, events = Obs.Audit.memory_sink () in
  Obs.Audit.set_sink sink;
  Obs.Counters.reset ();
  Obs.Counters.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Audit.disable ();
        Obs.Counters.set_enabled false)
      (fun () ->
        Sim.Traffic.run ~warps:vb_warps ~max_dynamic_per_warp:vb_max_dynamic ~attribution:true
          ctx scheme)
  in
  line buf
    (Obs.Json.Obj
       [
         ("section", Obs.Json.Str "verbatim");
         ("bench", Obs.Json.Str bench);
         ("scheme", Obs.Json.Str sname);
         ("warps", Obs.Json.int vb_warps);
         ("max_dynamic_per_warp", Obs.Json.int vb_max_dynamic);
         ("counts", Energy.Counts.to_json r.Sim.Traffic.counts);
         ("dynamic_instrs", Obs.Json.int r.Sim.Traffic.dynamic_instrs);
         ("desched_events", Obs.Json.int r.Sim.Traffic.desched_events);
       ]);
  List.iter (fun ev -> line buf (Obs.Audit.to_json ev)) (events ());
  counter_lines buf;
  Obs.Counters.reset ();
  let top =
    Energy.Counts.top_instrs Energy.Params.default ~orf_entries:3
      ~n:(Ir.Kernel.instr_count ctx.Alloc.Context.kernel)
      r.Sim.Traffic.counts
  in
  line buf
    (Obs.Json.Obj
       [
         ( "top_instrs",
           Obs.Json.Arr
             (List.map (fun (pc, pj) -> Obs.Json.Arr [ Obs.Json.int pc; Obs.Json.Num pj ]) top) );
       ])

let traffic_doc () =
  let buf = Buffer.create (1 lsl 20) in
  traffic_results buf;
  List.iter (fun bench -> List.iter (traffic_verbatim buf bench) vb_schemes) vb_benches;
  Buffer.contents buf

(* --- verifier verdicts: test/verify_golden.jsonl ------------------- *)

(* The allocator configuration [prop_allocator_sound] (test_properties.ml)
   pairs with a generator seed: every LRF mode, ORF size 1-8, and
   partial ranges and read operands on and off. *)
let config_of_seed seed =
  let lrf =
    match seed mod 3 with
    | 0 -> Alloc.Config.No_lrf
    | 1 -> Alloc.Config.Unified
    | _ -> Alloc.Config.Split
  in
  Alloc.Config.make
    ~orf_entries:(1 + (seed / 3 mod 8))
    ~lrf
    ~partial_ranges:(seed mod 2 = 0)
    ~read_operands:(seed mod 5 <> 0)
    ()

(* Every seed in 0-99,999 whose size-10 kernel the allocator places
   wrongly under [config_of_seed]. *)
let prop_rejecting_seeds =
  [
    148; 467; 2176; 10403; 16130; 17718; 18488; 19178; 22818; 26338; 26441; 27336;
    27963; 28705; 29143; 29985; 31934; 37409; 37970; 38332; 39979; 42924; 46824;
    57773; 58745; 60302; 60942; 65953; 73578; 78851; 79058; 82382; 83118; 90650;
    93181; 96419;
  ]

(* The two compile-gen kernels the allocator places wrongly at
   benchmark seed 1 (size 12, default config). *)
let compile_gen_rejecting_seeds = [ 63; 221 ]

(* Four sections, each a header line then one line per (generator seed,
   size, config) with the verdict and, on a rejection, every message in
   order: seeds 0-999 at sizes 8-32; seeds 0-4 at sizes 128 and 256;
   the rejecting seeds above at their own size and config. *)
let verdict_line buf ~seed ~size config =
  let k = Workloads.Generator.kernel ~size ~seed () in
  let ctx = Alloc.Context.create k in
  let placement = Alloc.Allocator.place config ctx in
  let verdict =
    match Alloc.Verify.check config ctx placement with
    | Ok () -> [ ("verdict", Obs.Json.Str "ok") ]
    | Error errs ->
      [
        ("verdict", Obs.Json.Str "rejected");
        ("errors", Obs.Json.Arr (List.map (fun e -> Obs.Json.Str e) errs));
      ]
  in
  line buf
    (Obs.Json.Obj
       ([
          ("seed", Obs.Json.int seed);
          ("size", Obs.Json.int size);
          ("config", Obs.Json.Str (Format.asprintf "%a" Alloc.Config.pp config));
        ]
       @ verdict))

let verify_doc () =
  let buf = Buffer.create (1 lsl 18) in
  let section name = line buf (Obs.Json.Obj [ ("section", Obs.Json.Str name) ]) in
  section "sweep";
  for seed = 0 to 999 do
    verdict_line buf ~seed ~size:(8 + (seed mod 25)) (config_of_seed seed)
  done;
  section "large";
  List.iter
    (fun size ->
      for seed = 0 to 4 do
        verdict_line buf ~seed ~size (config_of_seed seed)
      done)
    [ 128; 256 ];
  section "prop-rejects";
  List.iter (fun seed -> verdict_line buf ~seed ~size:10 (config_of_seed seed)) prop_rejecting_seeds;
  section "compile-gen-rejects";
  List.iter
    (fun seed -> verdict_line buf ~seed ~size:12 (Alloc.Config.make ()))
    compile_gen_rejecting_seeds;
  Buffer.contents buf

(* --- allocator placements: test/placement_golden.jsonl ------------- *)

(* Six configs that between them cover the three LRF modes, ORF sizes
   1, 2, 3, 5 and 8, and each of partial ranges off, read operands off
   and mirror_mrf on. *)
let curated_configs =
  Alloc.Config.
    [
      make ~orf_entries:1 ~lrf:No_lrf ();
      make ~orf_entries:2 ~lrf:Unified ();
      make ();
      make ~orf_entries:5 ~lrf:Split ~partial_ranges:false ();
      make ~orf_entries:8 ~lrf:No_lrf ~read_operands:false ();
      make ~orf_entries:3 ~lrf:Unified ~mirror_mrf:true ();
    ]

let level_token = function
  | Alloc.Placement.From_lrf b -> Printf.sprintf "L%d" b
  | Alloc.Placement.From_orf e -> Printf.sprintf "O%d" e
  | Alloc.Placement.From_mrf -> "M"

(* One token per instruction: destination targets joined by '+' ('-'
   when the instruction has no result), ':', the source levels in slot
   order, then ':' and the fills (slot>entry) in placement order if
   there are any. *)
let instr_token (p : Alloc.Placement.t) id =
  let dest =
    match Alloc.Placement.dest p ~instr:id with
    | None -> "-"
    | Some d ->
      String.concat "+"
        (List.filter_map Fun.id
           [
             Option.map (Printf.sprintf "L%d") d.Alloc.Placement.to_lrf;
             Option.map (Printf.sprintf "O%d") d.Alloc.Placement.to_orf;
             (if d.Alloc.Placement.to_mrf then Some "M" else None);
           ])
  in
  let srcs =
    String.concat ","
      (List.init (Alloc.Placement.arity p ~instr:id) (fun pos ->
           level_token (Alloc.Placement.src p ~instr:id ~pos)))
  in
  match Alloc.Placement.fills_of p ~instr:id with
  | [] -> Printf.sprintf "%s:%s" dest srcs
  | fills ->
    Printf.sprintf "%s:%s:%s" dest srcs
      (String.concat "," (List.map (fun (pos, e) -> Printf.sprintf "%d>%d" pos e) fills))

let config_label config =
  Format.asprintf "%a%s" Alloc.Config.pp config
    (if config.Alloc.Config.mirror_mrf then " mirror-mrf" else "")

let placement_line buf ~label ctx config =
  let placement, (s : Alloc.Allocator.stats) = Alloc.Allocator.run config ctx in
  let n = Ir.Kernel.instr_count ctx.Alloc.Context.kernel in
  line buf
    (Obs.Json.Obj
       [
         ("kernel", Obs.Json.Str label);
         ("config", Obs.Json.Str (config_label config));
         ( "stats",
           Obs.Json.Arr
             (List.map Obs.Json.int
                Alloc.Allocator.
                  [ s.write_units; s.read_units; s.lrf_allocated; s.orf_allocated;
                    s.partial_allocated ]) );
         ("instrs", Obs.Json.Str (String.concat " " (List.init n (instr_token placement))));
       ])

(* The allocator runs both allocator goldens pin, in three sections:
   every registry kernel under [curated_configs]; generator seeds 0-299
   at sizes 8-48; seeds 0-2 at sizes 128 and 256, each generated kernel
   under [config_of_seed].  [section] is called with each section's
   name before its runs. *)
let allocator_runs ~section run =
  section "curated";
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun (k : Ir.Kernel.t) ->
          let ctx = Alloc.Context.create k in
          let label = e.Workloads.Registry.name ^ "/" ^ k.Ir.Kernel.name in
          List.iter (run ~label ctx) curated_configs)
        (Lazy.force e.Workloads.Registry.kernels))
    (Workloads.Registry.all ());
  let generated ~seed ~size =
    let ctx = Alloc.Context.create (Workloads.Generator.kernel ~size ~seed ()) in
    run ~label:(Printf.sprintf "gen seed %d size %d" seed size) ctx (config_of_seed seed)
  in
  section "generated";
  for seed = 0 to 299 do
    generated ~seed ~size:(8 + (seed mod 41))
  done;
  section "large";
  List.iter
    (fun size ->
      for seed = 0 to 2 do
        generated ~seed ~size
      done)
    [ 128; 256 ]

(* The [allocator_runs] sections, then MatrixMul's audit events
   (strand boundaries and allocations) and explain decisions under the
   default config, verbatim and in emission order. *)
let placement_doc () =
  let buf = Buffer.create (1 lsl 20) in
  let section name = line buf (Obs.Json.Obj [ ("section", Obs.Json.Str name) ]) in
  allocator_runs ~section (placement_line buf);
  section "matrixmul-streams";
  let audit_sink, audit_events = Obs.Audit.memory_sink () in
  let explain_sink, decisions = Obs.Explain.memory_sink () in
  Obs.Audit.set_sink audit_sink;
  Obs.Explain.set_sink explain_sink;
  Fun.protect
    ~finally:(fun () ->
      Obs.Audit.disable ();
      Obs.Explain.disable ())
    (fun () -> ignore (Alloc.Allocator.run (Alloc.Config.make ()) (ctx_of "MatrixMul")));
  List.iter (fun ev -> line buf (Obs.Audit.to_json ev)) (audit_events ());
  List.iter (fun d -> line buf (Obs.Explain.to_json d)) (decisions ());
  Buffer.contents buf

(* --- allocator streams: test/alloc_streams_golden.jsonl ------------ *)

(* One line per [allocator_runs] run, with the audit and explain
   recorders on: the decision count, the [Alloc]-event count, and the
   MD5 of each stream's JSONL in emission order. *)
let streams_line buf ~label ctx config =
  let audit_sink, audit_events = Obs.Audit.memory_sink () in
  let explain_sink, decisions = Obs.Explain.memory_sink () in
  Obs.Audit.set_sink audit_sink;
  Obs.Explain.set_sink explain_sink;
  Fun.protect
    ~finally:(fun () ->
      Obs.Audit.disable ();
      Obs.Explain.disable ())
    (fun () -> ignore (Alloc.Allocator.run config ctx));
  let events = audit_events () and decisions = decisions () in
  let md5 to_json xs =
    let b = Buffer.create 4096 in
    List.iter (fun x -> line b (to_json x)) xs;
    Obs.Json.Str (Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  line buf
    (Obs.Json.Obj
       [
         ("kernel", Obs.Json.Str label);
         ("config", Obs.Json.Str (config_label config));
         ("decisions", Obs.Json.int (List.length decisions));
         ( "alloc_events",
           Obs.Json.int
             (List.length
                (List.filter (function Obs.Audit.Alloc _ -> true | _ -> false) events)) );
         ("audit_md5", md5 Obs.Audit.to_json events);
         ("explain_md5", md5 Obs.Explain.to_json decisions);
       ])

let streams_doc () =
  let buf = Buffer.create (1 lsl 17) in
  allocator_runs ~section:ignore (streams_line buf);
  Buffer.contents buf

(* --- SIMT and variable-ORF walks: test/simt_golden.jsonl ----------- *)

(* Every kernel of every registry benchmark at two (warps, seed)
   points.  Per kernel and point, one line holds the divergence-aware
   counts (Sim.Simt's cluster weights) of the all-MRF baseline and of
   the SW placement (3 ORF entries, split LRF) with the SIMT stats,
   then one line per pool size holds
   Sim.Variable_orf's counts and grant counters, for the 8-entry
   mirror_mrf placement the limit study runs with 8 active warps. *)
let simt_points = [ (8, 0x5eed); (32, 1) ]
let simt_pools = [ 0; 5; 12; 24; 64 ]

let simt_stats_json (s : Sim.Simt.stats) =
  Obs.Json.Obj
    [
      ("warp_instructions", Obs.Json.int s.Sim.Simt.warp_instructions);
      ("thread_instructions", Obs.Json.int s.Sim.Simt.thread_instructions);
      ("simd_efficiency", Obs.Json.Num s.Sim.Simt.simd_efficiency);
      ("max_stack_depth", Obs.Json.int s.Sim.Simt.max_stack_depth);
      ("divergent_branches", Obs.Json.int s.Sim.Simt.divergent_branches);
      ("reconvergences", Obs.Json.int s.Sim.Simt.reconvergences);
    ]

let simt_doc () =
  let buf = Buffer.create (1 lsl 18) in
  let sw_config = Alloc.Config.make ~orf_entries:3 ~lrf:Alloc.Config.Split () in
  let vorf_config =
    Alloc.Config.make ~orf_entries:8 ~lrf:Alloc.Config.Split ~orf_cost_entries:3
      ~mirror_mrf:true ()
  in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      List.iter
        (fun (k : Ir.Kernel.t) ->
          let ctx = Alloc.Context.create k in
          let label = e.Workloads.Registry.name ^ "/" ^ k.Ir.Kernel.name in
          let sw = Alloc.Allocator.place sw_config ctx in
          let vorf = Alloc.Allocator.place vorf_config ctx in
          List.iter
            (fun (warps, seed) ->
              let point =
                [
                  ("kernel", Obs.Json.Str label);
                  ("warps", Obs.Json.int warps);
                  ("seed", Obs.Json.int seed);
                ]
              in
              let r = Sim.Simt.traffic ~warps ~seed ctx in
              let price p = Energy.Counts.to_json (Sim.Traffic.price ctx p r.Sim.Simt.clusters) in
              line buf
                (Obs.Json.Obj
                   (point
                   @ [
                       ("baseline", price (Alloc.Placement.baseline k));
                       ("sw", price sw);
                       ("stats", simt_stats_json r.Sim.Simt.stats);
                     ]));
              List.iter
                (fun pool ->
                  let r =
                    Sim.Variable_orf.run ~active:8 ~warps ~seed ~pool_entries:pool
                      ~config:vorf_config ~placement:vorf ctx
                  in
                  line buf
                    (Obs.Json.Obj
                       (point
                       @ [
                           ("pool", Obs.Json.int pool);
                           ("counts", Energy.Counts.to_json r.Sim.Variable_orf.counts);
                           ("strand_executions", Obs.Json.int r.Sim.Variable_orf.strand_executions);
                           ("full_grants", Obs.Json.int r.Sim.Variable_orf.full_grants);
                           ("partial_grants", Obs.Json.int r.Sim.Variable_orf.partial_grants);
                           ("entries_denied", Obs.Json.int r.Sim.Variable_orf.entries_denied);
                         ])))
                simt_pools)
            simt_points)
        (Lazy.force e.Workloads.Registry.kernels))
    (Workloads.Registry.all ());
  Buffer.contents buf
