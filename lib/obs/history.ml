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

let bench_point_to_json p =
  Json.Obj
    [
      ("bench", Json.Str p.hb_bench);
      ("ipc", Json.Num p.hb_ipc);
      ("norm_energy", Json.Num p.hb_norm_energy);
      ("stalls", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) p.hb_stalls));
    ]

let perfgate_to_json g =
  let opt name = function Some v -> [ (name, Json.Num v) ] | None -> [] in
  Json.Obj
    ([
       ("ns_per_run", Json.Num g.pg_ns_per_run);
       ("p90_ns", Json.Num g.pg_p90_ns);
       ("minor_words", Json.Num g.pg_minor_words);
       ("runs", Json.int g.pg_runs);
     ]
    @ opt "promoted_words" g.pg_promoted_words
    @ opt "major_words" g.pg_major_words)

let to_json (r : t) =
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  Json.Obj
    ([
       ("schema_version", Json.int schema_version);
       ("timestamp", Json.Str r.timestamp);
       ("source", Json.Str r.source);
       ("host", Host.to_json r.host);
       ("jobs", Json.int r.jobs);
       ("wall_s", Json.Num r.wall_s);
       ("benches", Json.Arr (List.map bench_point_to_json r.benches));
     ]
    @ opt "perfgate" perfgate_to_json r.perfgate)

let to_string r = Json.to_string (to_json r)

let ( let* ) = Result.bind

let field j = Json.field "history" j

let all_results l =
  List.fold_right
    (fun r acc ->
      let* x = r in
      let* tl = acc in
      Ok (x :: tl))
    l (Ok [])

let bench_point_of_json j =
  let* hb_bench = field j "bench" Json.to_str in
  let* hb_ipc = field j "ipc" Json.to_num in
  let* hb_norm_energy = field j "norm_energy" Json.to_num in
  let* kvs = field j "stalls" Json.to_obj in
  let* hb_stalls =
    all_results
      (List.map
         (fun (k, v) ->
           match Json.to_num v with
           | Some f -> Ok (k, f)
           | None -> Error (Printf.sprintf "history: stall %S not a number" k))
         kvs)
  in
  Ok { hb_bench; hb_ipc; hb_norm_energy; hb_stalls }

let perfgate_of_json j =
  let* pg_ns_per_run = field j "ns_per_run" Json.to_num in
  let* pg_p90_ns = field j "p90_ns" Json.to_num in
  let* pg_minor_words = field j "minor_words" Json.to_num in
  let* pg_runs = field j "runs" Json.to_int in
  let opt name = Option.bind (Json.member name j) Json.to_num in
  Ok
    {
      pg_ns_per_run;
      pg_p90_ns;
      pg_minor_words;
      pg_runs;
      pg_promoted_words = opt "promoted_words";
      pg_major_words = opt "major_words";
    }

let opt_field j name conv =
  match Json.member name j with
  | None -> Ok None
  | Some v ->
    let* x = conv v in
    Ok (Some x)

let of_json j =
  let* version = field j "schema_version" Json.to_int in
  if version <> schema_version then
    Error (Printf.sprintf "history: schema version %d, expected %d" version schema_version)
  else
    let* timestamp = field j "timestamp" Json.to_str in
    let* source = field j "source" Json.to_str in
    let* host = Result.bind (field j "host" Option.some) Host.of_json in
    let* jobs = field j "jobs" Json.to_int in
    let* wall_s = field j "wall_s" Json.to_num in
    let* benches = field j "benches" Json.to_list in
    let* benches = all_results (List.map bench_point_of_json benches) in
    let* perfgate = opt_field j "perfgate" perfgate_of_json in
    Ok { timestamp; source; host; jobs; wall_s; benches; perfgate }

let of_string s =
  let* j = Json.parse s in
  of_json j

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
    let lines =
      In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'
    in
    List.fold_left
      (fun (records, rejected) line ->
        if String.trim line = "" then (records, rejected)
        else
          match of_string line with
          | Ok r -> (r :: records, rejected)
          | Error _ -> (records, rejected + 1))
      ([], 0) lines
    |> fun (records, rejected) -> (List.rev records, rejected)
