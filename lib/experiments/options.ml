type t = {
  warps : int;
  seed : int;
  params : Energy.Params.t;
  params_fp : string;
  benchmarks : Workloads.Registry.entry list;
  jobs : int;
}

(* Full-fidelity fingerprint of the energy parameters: Hashtbl.hash
   truncates deep structures and would alias distinct wire models.
   Computed once per option set — cache keys reuse the string instead
   of re-marshalling on every lookup. *)
let fingerprint (p : Energy.Params.t) = Marshal.to_string p []

let default () =
  {
    warps = 32;
    seed = 0x5eed;
    params = Energy.Params.default;
    params_fp = fingerprint Energy.Params.default;
    benchmarks = Workloads.Registry.all ();
    jobs = 1;
  }

let quick () = { (default ()) with warps = 8 }

let with_benchmarks t names =
  let entries =
    List.map
      (fun n ->
        match Workloads.Registry.find n with
        | Some e -> e
        | None -> invalid_arg (Printf.sprintf "unknown benchmark %S" n))
      names
  in
  { t with benchmarks = entries }

let with_params t params = { t with params; params_fp = fingerprint params }

let with_jobs t jobs = { t with jobs = Util.Pool.resolve_jobs (Some jobs) }
