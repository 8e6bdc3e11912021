(* allocate: place one benchmark's kernel and list its operand
   placements, with the read-operand fills. *)

open Cmdliner

let cmd =
  let doc = "Run the allocator on one benchmark and print the operand placements." in
  let run name entries lrf verbose =
    Cli.setup_verbosity verbose;
    let e = Cli.find_bench name in
    let k = Lazy.force e.Workloads.Registry.kernel in
    let ctx, placement, stats = Cli.compile (Alloc.Config.make ~orf_entries:entries ~lrf ()) k in
    Printf.printf "%s: %d strands; %d write units, %d read units; %d LRF + %d ORF allocations (%d partial)\n\n"
      e.Workloads.Registry.name
      (Strand.Partition.num_strands ctx.Alloc.Context.partition)
      stats.Alloc.Allocator.write_units stats.Alloc.Allocator.read_units
      stats.Alloc.Allocator.lrf_allocated stats.Alloc.Allocator.orf_allocated
      stats.Alloc.Allocator.partial_allocated;
    Cli.list_placements ~fills:true ctx placement k
  in
  Cmd.v (Cmd.info "allocate" ~doc ~exits:Cli.exits)
    Term.(const run $ Cli.bench_name $ Cli.entries $ Cli.lrf $ Cli.verbose)
