type row = {
  name : string;
  original : float;
  rescheduled : float;
  unrolled : float;
  unrolled_rescheduled : float;
  best : float;
}

(* The allocator's placement, which must pass the verifier: the
   passes must not hand it a kernel it places wrongly. *)
let verified config ctx =
  let placement = Alloc.Allocator.place config ctx in
  (match Alloc.Verify.check config ctx placement with
   | Ok () -> ()
   | Error errs ->
     failwith
       (Printf.sprintf "scheduling study: %s failed verification: %s"
          ctx.Alloc.Context.kernel.Ir.Kernel.name (String.concat "; " errs)));
  Sim.Traffic.Sw { config; placement }

let compute ?(entries = 3) ?(factor = 4) (opts : Options.t) =
  let config =
    Alloc.Config.make ~orf_entries:entries ~lrf:Alloc.Config.Split ~params:opts.Options.params ()
  in
  Sweep.per_bench opts (fun (e : Workloads.Registry.entry) ->
      let ks = Lazy.force e.Workloads.Registry.kernels in
      (* Every variant is normalized to ITS OWN single-level baseline:
         unrolling changes the dynamic instruction count, so absolute
         energies are not comparable, ratios are. *)
      let ratio transform =
        let ctxs = List.map (fun k -> Alloc.Context.create (transform k)) ks in
        Util.Stats.ratio
          (Sweep.traffic_energy opts ctxs ~orf_entries:entries (verified config))
          (Sweep.traffic_energy opts ctxs ~orf_entries:1 (fun _ -> Sim.Traffic.Baseline))
      in
      let original = ratio Fun.id in
      let rescheduled = ratio Transform.Reschedule.kernel in
      let unrolled = ratio (Transform.Unroll.kernel ~factor) in
      let unrolled_rescheduled =
        ratio (fun k -> Transform.Reschedule.kernel (Transform.Unroll.kernel ~factor k))
      in
      {
        name = e.Workloads.Registry.name;
        original;
        rescheduled;
        unrolled;
        unrolled_rescheduled;
        best = List.fold_left min original [ rescheduled; unrolled; unrolled_rescheduled ];
      })

let table ?entries ?factor opts =
  let rows = compute ?entries ?factor opts in
  let t =
    Util.Table.create
      ~title:
        "Code motion (extension): normalized SW energy after real rescheduling / unrolling passes"
      ~columns:[ "Benchmark"; "Original"; "Rescheduled"; "Unrolled x4"; "Unroll+resched"; "JIT best" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_float_row t r.name
        [ r.original; r.rescheduled; r.unrolled; r.unrolled_rescheduled; r.best ])
    rows;
  let mean f = Util.Stats.mean (List.map f rows) in
  Util.Table.add_float_row t "MEAN"
    [
      mean (fun r -> r.original);
      mean (fun r -> r.rescheduled);
      mean (fun r -> r.unrolled);
      mean (fun r -> r.unrolled_rescheduled);
      mean (fun r -> r.best);
    ];
  t
