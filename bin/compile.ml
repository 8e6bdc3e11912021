(* compile: an assembly file onto the hierarchy — its placements and
   the measured energy saving. *)

open Cmdliner

let cmd =
  let doc =
    "Compile a PTX-flavoured assembly file (see Ir.Asm) onto the hierarchy: print strands, \
     operand placements and the measured energy saving."
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Assembly source file.")
  in
  let run file entries lrf warps seed verbose =
    Cli.setup_verbosity verbose;
    let name = Filename.remove_extension (Filename.basename file) in
    match Ir.Asm.parse ~name (Cli.read_input file) with
    | Error msg -> Cli.die_usage ("parse error: " ^ msg)
    | Ok kernel ->
      let config = Alloc.Config.make ~orf_entries:entries ~lrf () in
      let context, placement, stats = Cli.compile config kernel in
      Cli.list_placements context placement kernel;
      let m = Rfh.measure ~warps ~seed { Rfh.context; config; placement; stats } in
      Printf.printf "\nnormalized register-file energy: %.3f (%.1f%% saved)\n"
        m.Rfh.normalized_energy m.Rfh.savings_percent
  in
  Cmd.v (Cmd.info "compile" ~doc ~exits:Cli.exits)
    Term.(const run $ file $ Cli.entries $ Cli.lrf $ Cli.warps () $ Cli.seed $ Cli.verbose)
