(* kernels: the benchmark list (paper Table 1), or one kernel's code. *)

open Cmdliner

let table () =
  let t =
    Util.Table.create ~title:"Benchmarks (paper Table 1)"
      ~columns:[ "Name"; "Suite"; "Kernels"; "Static instrs"; "Blocks"; "Description" ]
  in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let ks = Lazy.force e.Workloads.Registry.kernels in
      let sum f = List.fold_left (fun acc k -> acc + f k) 0 ks in
      Util.Table.add_row t
        [
          e.Workloads.Registry.name;
          Workloads.Suite.name e.Workloads.Registry.suite;
          string_of_int (List.length ks);
          string_of_int (sum Ir.Kernel.instr_count);
          string_of_int (sum Ir.Kernel.block_count);
          e.Workloads.Registry.description;
        ])
    (Workloads.Registry.all ());
  t

let cmd =
  let doc = "List the benchmarks, or print one kernel's PTX-like code." in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Benchmark to print.")
  in
  let run = function
    | None -> Cli.emit [ Cli.Table (table ()) ]
    | Some name ->
      print_string (Ir.Kernel.to_string (Lazy.force (Cli.find_bench name).Workloads.Registry.kernel))
  in
  Cmd.v (Cmd.info "kernels" ~doc ~exits:Cli.exits) Term.(const run $ name_arg)
