(* The rfh CLI transcript pinned by cli_golden.txt: every subcommand on
   deterministic inputs, one entry per invocation holding its argv,
   exit code and stdout verbatim.  Each run happens in a fresh
   directory holding the inputs (an assembly file, a golden manifest,
   a history file), so no argv names a temporary path.

   Regenerate it only for a deliberate output change:

     dune build && dune exec test/gen_perf_golden.exe -- cli > test/cli_golden.txt *)

type step =
  | Rfh of string  (** one invocation: the arguments after [rfh] *)
  | Flip_first_orf of string * string
      (** copy an explain stream, moving its first ORF placement to
          the MRF (what [make why-smoke] does with sed) *)

let steps =
  [
    Rfh "kernels";
    Rfh "kernels mm";
    Rfh "allocate mm --entries 2 --lrf unified";
    Rfh "compile mm.asm";
    Rfh "compile mm.asm --lrf none --entries 1";
    Rfh "selfcheck";
    Rfh "trace mm --warps 4";
    Rfh "all -b mm,cp --warps 8";
    Rfh "fig13 -b mm,cp --warps 8 --csv";
    Rfh "explain mm --warps 8 --top 5";
    Rfh "timeline mm --warps 16 --mrf-banks 8 --top 5";
    Rfh "profile -b mm --warps 8";
    Rfh "baseline check";
    Rfh "baseline record --warps 8 -b mm,cp --baseline base.json";
    Rfh "explain mm --warps 8 --jsonl-out base.jsonl";
    Flip_first_orf ("base.jsonl", "cand.jsonl");
    Rfh "why base.json base.json --explain-a base.jsonl --explain-b cand.jsonl";
    Rfh "trend --history history.jsonl";
  ]

(* Six perfgate records from one host, fixed timestamps and revs: the
   trend table over them is byte-reproducible. *)
let history =
  List.init 6 (fun i ->
      {
        Obs.History.timestamp = Printf.sprintf "2026-09-%02dT00:00:00Z" (i + 1);
        source = "perfgate";
        host =
          { Obs.Host.cores = 2; os = "Unix"; ocaml = "5.1.1";
            git_rev = Printf.sprintf "rev%03d" i; git_dirty = false };
        jobs = 1;
        wall_s = 20.0 +. float_of_int (i mod 3);
        benches =
          [ { Obs.History.hb_bench = "MatrixMul"; hb_ipc = 0.46; hb_norm_energy = 0.413;
              hb_stalls = [ ("issued", 0.46); ("wait_long_latency", 0.54) ] } ];
        perfgate =
          Some
            { Obs.History.pg_ns_per_run = 1000.0 +. float_of_int (10 * (i mod 2));
              pg_p90_ns = 1100.0; pg_minor_words = 320.0; pg_runs = 5;
              pg_promoted_words = None; pg_major_words = None };
      })

let read path = In_channel.with_open_bin path In_channel.input_all
let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let replace_first ~sub ~by s =
  let n = String.length sub and len = String.length s in
  let rec go i =
    if i + n > len then s
    else if String.sub s i n = sub then String.sub s 0 i ^ by ^ String.sub s (i + n) (len - i - n)
    else go (i + 1)
  in
  go 0

(* The per-phase time table's rows are wall clock (and sorted by it):
   keep its title, header and rule, drop the rows up to the blank line
   that ends it. *)
let mask_wall_clock out =
  let rec skip = function "" :: _ as rest -> rest | _ :: tl -> skip tl | [] -> [] in
  let rec go acc = function
    | ("Profile: per-phase time (inclusive)" as title) :: header :: rule :: rest ->
      go (rule :: header :: title :: acc) (skip rest)
    | l :: rest -> go (l :: acc) rest
    | [] -> List.rev acc
  in
  String.concat "\n" (go [] (String.split_on_char '\n' out))

let absolute path = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

(* Run every step with the binary [rfh] in a fresh directory seeded
   with MatrixMul's assembly, a copy of [baseline] as
   baselines/default.json and the history above; the transcript. *)
let render ~rfh ~baseline =
  let rfh = absolute rfh in
  let dir = Filename.temp_dir "rfh_cli" "" in
  let in_dir f = Filename.concat dir f in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      let mm = Lazy.force (Option.get (Workloads.Registry.find "mm")).Workloads.Registry.kernel in
      write (in_dir "mm.asm") (Ir.Asm.to_source mm);
      Sys.mkdir (in_dir "baselines") 0o755;
      write (in_dir "baselines/default.json") (read baseline);
      List.iter (Obs.History.append ~path:(in_dir "history.jsonl")) history;
      let buf = Buffer.create 65536 in
      List.iter
        (function
          | Flip_first_orf (src, dst) ->
            write (in_dir dst)
              (replace_first ~sub:{|"to":"orf"|} ~by:{|"to":"mrf"|} (read (in_dir src)))
          | Rfh args ->
            let out = in_dir "stdout.txt" in
            let code =
              Sys.command
                (Printf.sprintf "cd %s && %s %s > %s 2> /dev/null" (Filename.quote dir)
                   (Filename.quote rfh) args (Filename.quote out))
            in
            let text = mask_wall_clock (read out) in
            Printf.bprintf buf "### rfh %s\n### exit %d\n%s" args code text;
            if text <> "" && text.[String.length text - 1] <> '\n' then
              Buffer.add_string buf "\n### no newline at end of stdout\n")
        steps;
      Buffer.contents buf)
