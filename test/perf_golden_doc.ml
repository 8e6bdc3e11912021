(* The two committed Sim.Perf goldens, rendered from the current engine.
   gen_perf_golden.ml prints them to (re)capture the files and
   test_perf_golden.ml compares them byte-for-byte, so the generator and
   the gate can never drift apart. *)

(* --- result records: test/perf_golden.json ------------------------- *)

let warps = 8
let max_dynamic = 200

let schedulers = [ ("single", Sim.Perf.Single_level); ("two4", Sim.Perf.Two_level 4) ]
let policies = [ ("dep", Sim.Perf.On_dependence); ("strand", Sim.Perf.At_strand_boundaries) ]
let banks = [ 0; 4 ]

let breakdown_json (b : Sim.Perf.stall_breakdown) =
  Obs.Json.Arr (List.map (fun (_, n) -> Obs.Json.int n) (Sim.Perf.breakdown_fields b))

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
      ( "per_warp",
        Obs.Json.Arr
          (Array.to_list
             (Array.map
                (fun (w : Sim.Perf.warp_stats) -> breakdown_json w.Sim.Perf.breakdown)
                r.Sim.Perf.per_warp)) );
      ( "sched_stats",
        Obs.Json.Arr
          (List.map Obs.Json.int
             [
               r.Sim.Perf.sched.Sim.Perf.entries;
               r.Sim.Perf.sched.Sim.Perf.exits;
               r.Sim.Perf.sched.Sim.Perf.resident_cycles;
               r.Sim.Perf.sched.Sim.Perf.desched_long_latency;
               r.Sim.Perf.sched.Sim.Perf.desched_strand_boundary;
               r.Sim.Perf.sched.Sim.Perf.desched_bank_conflict;
             ]) );
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

(* Header line, then every interval in emission order, then every
   counter sample (tracks by name, samples by time). *)
let record_run buf ~bench ~sname ~pname ~bank ?max_cycles ~scheduler ~policy ctx =
  let sink, intervals = Obs.Timeline.memory_sink () in
  Obs.Timeline.set_sink sink;
  Obs.Counters.reset ();
  Obs.Counters.set_enabled true;
  let mrf_banks = if bank = 0 then None else Some bank in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Timeline.disable ();
        Obs.Counters.set_enabled false)
      (fun () ->
        Sim.Perf.run ~warps:tl_warps ~max_dynamic_per_warp:tl_max_dynamic ?max_cycles
          ?mrf_banks ~scheduler ~policy ctx)
  in
  let line j =
    Buffer.add_string buf (Obs.Json.to_string j);
    Buffer.add_char buf '\n'
  in
  line
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
  List.iter (fun iv -> line (Obs.Timeline.to_json iv)) (intervals ());
  List.iter
    (fun (t : Obs.Counters.track) ->
      List.iter
        (fun (s : Obs.Counters.sample) ->
          line
            (Obs.Json.Obj
               [
                 ("track", Obs.Json.Str t.Obs.Counters.track);
                 ("at", Obs.Json.Num s.Obs.Counters.at);
                 ("value", Obs.Json.Num s.Obs.Counters.value);
               ]))
        t.Obs.Counters.samples)
    (Obs.Counters.tracks ());
  Obs.Counters.reset ()

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
