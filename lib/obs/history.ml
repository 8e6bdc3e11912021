let schema_version = 1

type bench_point = {
  hb_bench : string;
  hb_ipc : float;
  hb_norm_energy : float;
  hb_stalls : (string * float) list;
}

type perfgate = {
  pg_ns_per_run : float;
  pg_p90_ns : float;
  pg_minor_words : float;
  pg_runs : int;
  (* Added after the first committed records; encoded only when
     present so existing history lines keep decoding (and re-encode
     byte-identically). *)
  pg_promoted_words : float option;
  pg_major_words : float option;
}

type t = {
  timestamp : string;
  source : string;
  host : Host.t;
  jobs : int;
  wall_s : float;
  benches : bench_point list;
  perfgate : perfgate option;
}

(* ------------------------------------------------------------------ *)
(* Building records.                                                   *)

let bench_point_of_bench (b : Manifest.bench) =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 b.Manifest.stalls in
  {
    hb_bench = b.Manifest.bench;
    hb_ipc = b.Manifest.ipc;
    hb_norm_energy = b.Manifest.norm_energy;
    hb_stalls =
      List.map
        (fun (cause, n) ->
          (cause, if total = 0 then 0.0 else float_of_int n /. float_of_int total))
        b.Manifest.stalls;
  }

let of_manifest ?timestamp ?host ?perfgate ~source ~wall_s (m : Manifest.t) =
  {
    timestamp = (match timestamp with Some s -> s | None -> Host.utc_now ());
    source;
    host = (match host with Some h -> h | None -> Host.fingerprint ());
    jobs = m.Manifest.options.Manifest.jobs;
    wall_s;
    benches = List.map bench_point_of_bench m.Manifest.benches;
    perfgate;
  }

(* ------------------------------------------------------------------ *)
(* Codec.  Field order is fixed so records are byte-stable; optional
   sections are omitted entirely rather than encoded as null, keeping
   lines compact and the decoder's presence test trivial.  Keys the
   decoder does not know (the retired [engine], [gc] and [jobs2_slower]
   sections of older records) are ignored.                             *)

let bench_point_codec =
  Json.(
    obj (fun hb_bench hb_ipc hb_norm_energy hb_stalls ->
        { hb_bench; hb_ipc; hb_norm_energy; hb_stalls })
    |> req "bench" str (fun p -> p.hb_bench)
    |> req "ipc" num (fun p -> p.hb_ipc)
    |> req "norm_energy" num (fun p -> p.hb_norm_energy)
    |> req "stalls" (assoc num) (fun p -> p.hb_stalls)
    |> seal)

let perfgate_codec =
  Json.(
    obj (fun pg_ns_per_run pg_p90_ns pg_minor_words pg_runs pg_promoted_words pg_major_words ->
        { pg_ns_per_run; pg_p90_ns; pg_minor_words; pg_runs; pg_promoted_words; pg_major_words })
    |> req "ns_per_run" num (fun g -> g.pg_ns_per_run)
    |> req "p90_ns" num (fun g -> g.pg_p90_ns)
    |> req "minor_words" num (fun g -> g.pg_minor_words)
    |> req "runs" integer (fun g -> g.pg_runs)
    |> opt "promoted_words" num (fun g -> g.pg_promoted_words)
    |> opt "major_words" num (fun g -> g.pg_major_words)
    |> seal)

let codec =
  Json.(
    obj (fun () timestamp source host jobs wall_s benches perfgate ->
        { timestamp; source; host; jobs; wall_s; benches; perfgate })
    |> req "schema_version" (version schema_version) ignore
    |> req "timestamp" str (fun r -> r.timestamp)
    |> req "source" str (fun r -> r.source)
    |> req "host" Host.codec (fun r -> r.host)
    |> req "jobs" integer (fun r -> r.jobs)
    |> req "wall_s" num (fun r -> r.wall_s)
    |> req "benches" (list bench_point_codec) (fun r -> r.benches)
    |> opt "perfgate" perfgate_codec (fun r -> r.perfgate)
    |> seal)

let to_string r = Json.to_string (Json.encode codec r)
let of_string = Json.decode_string codec

(* ------------------------------------------------------------------ *)
(* File I/O.                                                           *)

let rec mkdir_parents dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_parents (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let append ~path r =
  mkdir_parents (Filename.dirname path);
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string r);
      output_char oc '\n')

let load ~path =
  if not (Sys.file_exists path) then ([], 0)
  else
    match Json.load_jsonl ~path codec with
    | Ok loaded -> loaded
    | Error msg -> raise (Sys_error msg)
