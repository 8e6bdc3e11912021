(* Variable-ORF runtime tests (Sec. 7's dynamic scheme, realistic
   scheduler). *)

let check = Alcotest.check

let setup name =
  let e = Option.get (Workloads.Registry.find name) in
  let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
  let config =
    Alloc.Config.make ~orf_entries:8 ~lrf:Alloc.Config.Split ~orf_cost_entries:3
      ~mirror_mrf:true ()
  in
  let placement = Alloc.Allocator.place config ctx in
  (match Alloc.Verify.check config ctx placement with
   | Ok () -> ()
   | Error errs -> Alcotest.failf "verify: %s" (String.concat "; " errs));
  (ctx, config, placement)

let energy c = (Energy.Counts.energy Energy.Params.default ~orf_entries:3 c).Energy.Counts.total

let test_requires_mirror () =
  let e = Option.get (Workloads.Registry.find "MatrixMul") in
  let ctx = Alloc.Context.create (Lazy.force e.Workloads.Registry.kernel) in
  let config = Alloc.Config.make () in
  let placement = Alloc.Allocator.place config ctx in
  Alcotest.check_raises "mirror required"
    (Invalid_argument "Variable_orf.run: the placement must be compiled with mirror_mrf")
    (fun () -> ignore (Sim.Variable_orf.run ~pool_entries:24 ~config ~placement ctx))

let test_mirror_keeps_mrf_copies () =
  (* Under mirror_mrf every ORF destination also writes the MRF. *)
  let ctx, _, placement = setup "MatrixMul" in
  Ir.Kernel.iter_instrs ctx.Alloc.Context.kernel (fun _ i ->
      match Alloc.Placement.dest placement ~instr:i.Ir.Instr.id with
      | Some { Alloc.Placement.to_orf = Some _; to_mrf; _ } ->
        check Alcotest.bool "ORF value mirrored" true to_mrf
      | _ -> ())

let test_requests_bounded () =
  let ctx, _, placement = setup "Mandelbrot" in
  let requests = Sim.Variable_orf.strand_requests ctx placement in
  Array.iter (fun r -> check Alcotest.bool "0..8" true (r >= 0 && r <= 8)) requests;
  check Alcotest.bool "some strand wants entries" true (Array.exists (fun r -> r > 0) requests)

let test_zero_pool_all_mrf () =
  let ctx, config, placement = setup "MatrixMul" in
  let r = Sim.Variable_orf.run ~warps:4 ~pool_entries:0 ~config ~placement ctx in
  check Alcotest.int "no ORF reads" 0 (Energy.Counts.reads r.Sim.Variable_orf.counts Energy.Model.Orf);
  check Alcotest.int "no ORF writes" 0
    (Energy.Counts.writes r.Sim.Variable_orf.counts Energy.Model.Orf);
  check Alcotest.bool "denials counted" true (r.Sim.Variable_orf.entries_denied > 0)

let test_large_pool_no_denials () =
  let ctx, config, placement = setup "MatrixMul" in
  let r = Sim.Variable_orf.run ~warps:4 ~active:4 ~pool_entries:(4 * 8) ~config ~placement ctx in
  check Alcotest.int "no denials" 0 r.Sim.Variable_orf.entries_denied;
  check Alcotest.int "no partial grants" 0 r.Sim.Variable_orf.partial_grants;
  check Alcotest.bool "ORF used" true
    (Energy.Counts.reads r.Sim.Variable_orf.counts Energy.Model.Orf > 0)

let test_monotone_in_pool () =
  let ctx, config, placement = setup "Mandelbrot" in
  let e pool =
    energy (Sim.Variable_orf.run ~warps:4 ~pool_entries:pool ~config ~placement ctx).Sim.Variable_orf.counts
  in
  check Alcotest.bool "more pool never hurts" true (e 32 <= e 8 +. 1e-6);
  check Alcotest.bool "some pool beats none" true (e 32 < e 0)

let test_deterministic () =
  let ctx, config, placement = setup "needle" in
  let run () =
    energy (Sim.Variable_orf.run ~warps:4 ~pool_entries:12 ~config ~placement ctx).Sim.Variable_orf.counts
  in
  check (Alcotest.float 1e-9) "deterministic" (run ()) (run ())

(* A negative pool would grant negative entries and deny more than a
   strand requests. *)
let test_negative_pool_rejected () =
  let ctx, config, placement = setup "MatrixMul" in
  Alcotest.check_raises "negative pool"
    (Invalid_argument "Variable_orf.run: pool_entries < 0")
    (fun () -> ignore (Sim.Variable_orf.run ~warps:4 ~pool_entries:(-1) ~config ~placement ctx))

let suite =
  [
    Alcotest.test_case "requires mirror" `Quick test_requires_mirror;
    Alcotest.test_case "mirror keeps MRF copies" `Quick test_mirror_keeps_mrf_copies;
    Alcotest.test_case "requests bounded" `Quick test_requests_bounded;
    Alcotest.test_case "zero pool = all MRF" `Quick test_zero_pool_all_mrf;
    Alcotest.test_case "large pool = no denials" `Quick test_large_pool_no_denials;
    Alcotest.test_case "monotone in pool" `Quick test_monotone_in_pool;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "negative pool rejected" `Quick test_negative_pool_rejected;
  ]
