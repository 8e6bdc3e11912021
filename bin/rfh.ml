(* rfh — command-line driver regenerating every table and figure of the
   paper's evaluation, plus kernel/placement inspection commands.  Each
   subcommand is one module of Rfh_cli; Rfh_cli.Cli holds what they
   share. *)

open Cmdliner
open Rfh_cli

let () =
  let doc = "compile-time managed multi-level register file hierarchy (MICRO 2011) reproduction" in
  let info = Cmd.info "rfh" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          (Artefact.cmds
          @ [ Kernels.cmd; Allocate.cmd; Compile.cmd; Selfcheck.cmd; Trace.cmd; Profile.cmd;
              Baseline.cmd; Trend.cmd; Why.cmd; Explain.cmd; Timeline.cmd; Engine.cmd ])))
