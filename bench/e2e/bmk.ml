(* End-to-end benchmark: one workload per process.

     bmk --workload W [--seed N] [--seconds S] [--trace 0|1]
         [--json-out FILE] [--trace-out FILE]
     bmk compare A.jsonl B.jsonl [--bench BENCHMARK.json]

   Run from the repository root.  Prints every metric as
   "name value unit (n=samples)", then, as the last line of standard
   output, the result object {correct, attempted, failed, metrics}.
   See bench/e2e/README.md for the workloads and metrics.

   [--setup-only] (used by bmk itself) runs the set-up alone and prints
   its time in ns. *)

(* Set-up is timed from here, the program's start. *)
let started = Obs.Clock.now_ns ()

let usage () =
  prerr_endline
    "usage: bmk --workload (paper-regen|compile-gen|timing-sweep|traffic-sweep) [--seed N] \
     [--seconds S] [--trace 0|1] [--json-out FILE] [--trace-out FILE]\n\
    \       bmk compare A.jsonl B.jsonl [--bench BENCHMARK.json]";
  exit 2

let expected_path = "bench/e2e/expected.json"
let out_dir = "bench/e2e/_out"

(* The committed output digests hold for one seed only. *)
let expected_digest w seed =
  let j =
    match Obs.Json.parse (In_channel.with_open_text expected_path In_channel.input_all) with
    | Ok j -> j
    | Error e ->
      Printf.eprintf "bmk: %s: %s\n" expected_path e;
      exit 2
    | exception Sys_error e ->
      Printf.eprintf "bmk: %s (run from the repository root)\n" e;
      exit 2
  in
  if Option.bind (Obs.Json.member "seed" j) Obs.Json.to_int <> Some seed then None
  else
    Option.bind
      (Option.bind (Obs.Json.member "digests" j) (Obs.Json.member (Wl.name w)))
      Obs.Json.to_str

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* The set-up runs once per process, so its further samples each take
   a process of their own: this program again with [--setup-only],
   one after the other, each printing its set-up time in ns. *)
let extra_setups = 2

let setup_in_child w seed =
  let args = [| Sys.executable_name; "--setup-only"; "--workload"; Wl.name w; "--seed"; string_of_int seed |] in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, int_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some ns -> ns
  | _ -> failwith (Printf.sprintf "bmk: set-up child for %s seed %d failed" (Wl.name w) seed)

let main args =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let json_out = ref None and trace_out = ref None and setup_only = ref false in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := (match Wl.of_name v with Some w -> Some w | None -> usage ());
      parse rest
    | "--seed" :: v :: rest -> seed := int_arg v; parse rest
    | "--seconds" :: v :: rest ->
      seconds := (match float_of_string_opt v with Some s when s > 0.0 -> s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | "--json-out" :: v :: rest -> json_out := Some v; parse rest
    | "--trace-out" :: v :: rest -> trace_out := Some v; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  let w = match !workload with Some w -> w | None -> usage () in
  if !setup_only then begin
    let o = Runner.run ~started ~scale:Wl.Full ~seed:!seed ~stop:(Runner.Ops 0) ~trace:false w in
    Printf.printf "%d\n" o.Runner.setup_ns;
    exit (if o.Runner.correct then 0 else 1)
  end;
  let trace_out =
    if not !trace then None
    else
      Some
        (match !trace_out with
         | Some p -> p
         | None ->
           mkdir_p out_dir;
           Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" (Wl.name w) !seed))
  in
  let o =
    Runner.run ?expected_digest:(expected_digest w !seed) ?trace_out ~started
      ~more_setups:(fun () -> List.init extra_setups (fun _ -> setup_in_child w !seed))
      ~scale:Wl.Full ~seed:!seed ~stop:(Runner.Seconds !seconds) ~trace:!trace w
  in
  Runner.print o;
  Option.iter (fun p -> Printf.printf "trace written to %s\n" p) trace_out;
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          output_string oc (Obs.Json.to_string (Runner.record_json o));
          output_char oc '\n'))
    !json_out;
  print_endline (Obs.Json.to_string (Runner.result_json o));
  if not o.Runner.correct then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: a :: b :: rest ->
    let bench = match rest with [] -> "BENCHMARK.json" | [ "--bench"; p ] -> p | _ -> usage () in
    exit (Compare.run ~bench a b)
  | args -> main args
