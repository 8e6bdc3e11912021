(* selfcheck: every benchmark kernel placed and verified under every
   hierarchy configuration. *)

open Cmdliner

let cmd =
  let doc =
    "Run the allocator and verifier over every benchmark and hierarchy configuration."
  in
  let run () =
    let configs =
      List.concat_map
        (fun entries ->
          List.map
            (fun lrf -> Alloc.Config.make ~orf_entries:entries ~lrf ())
            [ Alloc.Config.No_lrf; Alloc.Config.Unified; Alloc.Config.Split ])
        [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    in
    let checked = ref 0 in
    let failed = ref 0 in
    List.iter
      (fun (e : Workloads.Registry.entry) ->
        List.iter
          (fun kernel ->
            let ctx = Alloc.Context.create kernel in
            List.iter
              (fun config ->
                incr checked;
                let placement = Alloc.Allocator.place config ctx in
                match Alloc.Verify.check config ctx placement with
                | Ok () -> ()
                | Error errs ->
                  incr failed;
                  Printf.printf "FAIL %s/%s under %s:\n  %s\n" e.Workloads.Registry.name
                    kernel.Ir.Kernel.name
                    (Format.asprintf "%a" Alloc.Config.pp config)
                    (String.concat "\n  " errs))
              configs)
          (Lazy.force e.Workloads.Registry.kernels))
      (Workloads.Registry.all ());
    Printf.printf "selfcheck: %d placements verified, %d failures\n" !checked !failed;
    if !failed > 0 then exit 1
  in
  Cmd.v (Cmd.info "selfcheck" ~doc ~exits:Cli.exits) Term.(const run $ const ())
