(* rfh — command-line driver regenerating every table and figure of the
   paper's evaluation, plus kernel/placement inspection commands.  Each
   subcommand is one module of Rfh_cli; Rfh_cli.Cli holds what they
   share. *)

open Cmdliner
open Rfh_cli

(* A command line that does not parse is bad input like any other:
   exit 2 (cmdliner's own default is 124). *)
let () =
  let doc = "compile-time managed multi-level register file hierarchy (MICRO 2011) reproduction" in
  let info = Cmd.info "rfh" ~version:"1.0.0" ~doc ~exits:Cli.exits in
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
            (Artefact.cmds
            @ [ Kernels.cmd; Allocate.cmd; Compile.cmd; Selfcheck.cmd; Trace.cmd; Profile.cmd;
                Baseline.cmd; Trend.cmd; Why.cmd; Explain.cmd; Timeline.cmd; Engine.cmd ]))
     with
     | Ok (`Ok () | `Version | `Help) -> 0
     | Error (`Parse | `Term) -> 2
     | Error `Exn -> 125)
