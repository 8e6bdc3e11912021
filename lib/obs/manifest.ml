let schema_version = 3

type options = {
  warps : int;
  seed : int;
  jobs : int;
  orf_entries : int;
  lrf : string;
  params_fp : string;
  benchmarks : string list;
}

type sched = {
  entries : int;
  exits : int;
  resident_cycles : int;
  desched_long_latency : int;
  desched_strand_boundary : int;
  desched_bank_conflict : int;
}

type bench = {
  bench : string;
  strands : int;
  write_units : int;
  read_units : int;
  lrf_allocs : int;
  orf_allocs : int;
  partial_allocs : int;
  dynamic_instrs : int;
  desched_events : int;
  capped_warps : int;
  norm_energy : float;
  total_pj : float;
  baseline_pj : float;
  ipc : float;
  stalls : (string * int) list;
  sched : sched;
  counts : Json.t;
  energy_pj : (string * (float * float)) list;
}

type phase = { phase : string; calls : int; total_ms : float }

type audit = { alloc_events : int; top_allocs : Audit.alloc list }

type t = {
  options : options;
  meta : Host.t;
  benches : bench list;
  metrics : Metrics.snapshot;
  phases : phase list;
  audit : audit;
}

(* ------------------------------------------------------------------ *)
(* Codec.  Field order is fixed everywhere so that equal manifests
   encode byte-identically and a decode/re-encode round-trip is
   stable.                                                             *)

let options_codec =
  Json.(
    obj (fun warps seed jobs orf_entries lrf params_fp benchmarks ->
        { warps; seed; jobs; orf_entries; lrf; params_fp; benchmarks })
    |> req "warps" integer (fun o -> o.warps)
    |> req "seed" integer (fun o -> o.seed)
    |> req "jobs" integer (fun o -> o.jobs)
    |> req "orf_entries" integer (fun o -> o.orf_entries)
    |> req "lrf" str (fun o -> o.lrf)
    |> req "params_fp" str (fun o -> o.params_fp)
    |> req "benchmarks" (list str) (fun o -> o.benchmarks)
    |> seal)

let sched_codec =
  Json.(
    obj (fun entries exits resident_cycles desched_long_latency desched_strand_boundary
             desched_bank_conflict ->
        { entries; exits; resident_cycles; desched_long_latency; desched_strand_boundary;
          desched_bank_conflict })
    |> req "entries" integer (fun s -> s.entries)
    |> req "exits" integer (fun s -> s.exits)
    |> req "resident_cycles" integer (fun s -> s.resident_cycles)
    |> req "desched_long_latency" integer (fun s -> s.desched_long_latency)
    |> req "desched_strand_boundary" integer (fun s -> s.desched_strand_boundary)
    |> req "desched_bank_conflict" integer (fun s -> s.desched_bank_conflict)
    |> seal)

let energy_codec =
  Json.(
    obj (fun access wire -> (access, wire))
    |> req "access" num fst
    |> req "wire" num snd
    |> seal)

let bench_codec =
  Json.(
    obj (fun bench strands write_units read_units lrf_allocs orf_allocs partial_allocs
             dynamic_instrs desched_events capped_warps norm_energy total_pj baseline_pj ipc
             stalls sched counts energy_pj ->
        { bench; strands; write_units; read_units; lrf_allocs; orf_allocs; partial_allocs;
          dynamic_instrs; desched_events; capped_warps; norm_energy; total_pj; baseline_pj;
          ipc; stalls; sched; counts; energy_pj })
    |> req "name" str (fun b -> b.bench)
    |> req "strands" integer (fun b -> b.strands)
    |> req "write_units" integer (fun b -> b.write_units)
    |> req "read_units" integer (fun b -> b.read_units)
    |> req "lrf_allocs" integer (fun b -> b.lrf_allocs)
    |> req "orf_allocs" integer (fun b -> b.orf_allocs)
    |> req "partial_allocs" integer (fun b -> b.partial_allocs)
    |> req "dynamic_instrs" integer (fun b -> b.dynamic_instrs)
    |> req "desched_events" integer (fun b -> b.desched_events)
    |> req "capped_warps" integer (fun b -> b.capped_warps)
    |> req "norm_energy" num (fun b -> b.norm_energy)
    |> req "total_pj" num (fun b -> b.total_pj)
    |> req "baseline_pj" num (fun b -> b.baseline_pj)
    |> req "ipc" num (fun b -> b.ipc)
    |> req "stalls" (assoc integer) (fun b -> b.stalls)
    |> req "sched" sched_codec (fun b -> b.sched)
    |> req "counts" raw (fun b -> b.counts)
    |> req "energy_pj" (assoc energy_codec) (fun b -> b.energy_pj)
    |> seal)

let phase_codec =
  Json.(
    obj (fun phase calls total_ms -> { phase; calls; total_ms })
    |> req "phase" str (fun p -> p.phase)
    |> req "calls" integer (fun p -> p.calls)
    |> req "total_ms" num (fun p -> p.total_ms)
    |> seal)

let audit_codec =
  let alloc =
    Json.map
      (function Audit.Alloc a -> Ok a | _ -> Error "not an alloc event")
      (fun a -> Audit.Alloc a)
      Audit.codec
  in
  Json.(
    obj (fun alloc_events top_allocs -> { alloc_events; top_allocs })
    |> req "alloc_events" integer (fun a -> a.alloc_events)
    |> req "top_allocs" (list alloc) (fun a -> a.top_allocs)
    |> seal)

let codec =
  Json.(
    obj (fun () options meta benches metrics phases audit ->
        { options; meta; benches; metrics; phases; audit })
    |> req "schema_version" (version schema_version) ignore
    |> const "tool" (Str "rfh")
    |> req "options" options_codec (fun m -> m.options)
    (* Non-gated provenance: Regress ignores the whole "meta"
       subtree, so a baseline recorded on one host checks cleanly on
       another. *)
    |> req "meta" Host.codec (fun m -> m.meta)
    |> req "benches" (list bench_codec) (fun m -> m.benches)
    |> req "metrics" Metrics.snapshot_codec (fun m -> m.metrics)
    |> req "phases" (list phase_codec) (fun m -> m.phases)
    |> req "audit" audit_codec (fun m -> m.audit)
    |> seal)

let to_json = Json.encode codec
let to_string m = Json.to_string (to_json m)
let of_string s = Result.map_error (( ^ ) "manifest: ") (Json.decode_string codec s)

(* ------------------------------------------------------------------ *)
(* Files.                                                              *)

let write_file ~path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (to_json m);
      output_char oc '\n')

(* Read whole, as the JSONL loader does: sizing the read by
   [in_channel_length] fails on a directory with an overflow error
   instead of "Is a directory". *)
let read_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> of_string (String.trim contents)

let mean_residency (s : sched) =
  if s.entries = 0 then 0.0 else float_of_int s.resident_cycles /. float_of_int s.entries

let residency_table ~label rows =
  let t =
    Util.Table.create ~title:"Active-set residency"
      ~columns:
        [ label; "Entries"; "Exits"; "Resident cycles"; "Mean residency"; "Desched LL";
          "Desched strand"; "Desched conflict" ]
  in
  List.iter
    (fun (name, s) ->
      Util.Table.add_row t
        [
          name;
          string_of_int s.entries;
          string_of_int s.exits;
          string_of_int s.resident_cycles;
          Printf.sprintf "%.1f" (mean_residency s);
          string_of_int s.desched_long_latency;
          string_of_int s.desched_strand_boundary;
          string_of_int s.desched_bank_conflict;
        ])
    rows;
  t

let mean_norm_energy m =
  match m.benches with
  | [] -> 0.0
  | bs ->
    List.fold_left (fun acc b -> acc +. b.norm_energy) 0.0 bs /. float_of_int (List.length bs)
