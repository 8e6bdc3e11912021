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

type audit = { alloc_events : int; top_allocs : Json.t list }

type t = {
  options : options;
  meta : Host.t;
  benches : bench list;
  metrics : Metrics.snapshot;
  phases : phase list;
  audit : audit;
}

(* ------------------------------------------------------------------ *)
(* Encoding.  Field order is fixed everywhere so that equal manifests
   encode byte-identically and a decode/re-encode round-trip is
   stable.                                                             *)

let options_to_json (o : options) =
  Json.Obj
    [
      ("warps", Json.int o.warps);
      ("seed", Json.int o.seed);
      ("jobs", Json.int o.jobs);
      ("orf_entries", Json.int o.orf_entries);
      ("lrf", Json.Str o.lrf);
      ("params_fp", Json.Str o.params_fp);
      ("benchmarks", Json.Arr (List.map (fun n -> Json.Str n) o.benchmarks));
    ]

let bench_to_json (b : bench) =
  Json.Obj
    [
      ("name", Json.Str b.bench);
      ("strands", Json.int b.strands);
      ("write_units", Json.int b.write_units);
      ("read_units", Json.int b.read_units);
      ("lrf_allocs", Json.int b.lrf_allocs);
      ("orf_allocs", Json.int b.orf_allocs);
      ("partial_allocs", Json.int b.partial_allocs);
      ("dynamic_instrs", Json.int b.dynamic_instrs);
      ("desched_events", Json.int b.desched_events);
      ("capped_warps", Json.int b.capped_warps);
      ("norm_energy", Json.Num b.norm_energy);
      ("total_pj", Json.Num b.total_pj);
      ("baseline_pj", Json.Num b.baseline_pj);
      ("ipc", Json.Num b.ipc);
      ("stalls", Json.Obj (List.map (fun (cause, n) -> (cause, Json.int n)) b.stalls));
      ( "sched",
        Json.Obj
          [
            ("entries", Json.int b.sched.entries);
            ("exits", Json.int b.sched.exits);
            ("resident_cycles", Json.int b.sched.resident_cycles);
            ("desched_long_latency", Json.int b.sched.desched_long_latency);
            ("desched_strand_boundary", Json.int b.sched.desched_strand_boundary);
            ("desched_bank_conflict", Json.int b.sched.desched_bank_conflict);
          ] );
      ("counts", b.counts);
      ( "energy_pj",
        Json.Obj
          (List.map
             (fun (level, (access, wire)) ->
               (level, Json.Obj [ ("access", Json.Num access); ("wire", Json.Num wire) ]))
             b.energy_pj) );
    ]

let phase_to_json (p : phase) =
  Json.Obj
    [
      ("phase", Json.Str p.phase);
      ("calls", Json.int p.calls);
      ("total_ms", Json.Num p.total_ms);
    ]

let to_json (m : t) =
  Json.Obj
    [
      ("schema_version", Json.int schema_version);
      ("tool", Json.Str "rfh");
      ("options", options_to_json m.options);
      (* Non-gated provenance: Regress ignores the whole "meta"
         subtree, so a baseline recorded on one host checks cleanly on
         another. *)
      ("meta", Host.to_json m.meta);
      ("benches", Json.Arr (List.map bench_to_json m.benches));
      ("metrics", Metrics.to_json m.metrics);
      ("phases", Json.Arr (List.map phase_to_json m.phases));
      ( "audit",
        Json.Obj
          [
            ("alloc_events", Json.int m.audit.alloc_events);
            ("top_allocs", Json.Arr m.audit.top_allocs);
          ] );
    ]

let to_string m = Json.to_string (to_json m)

(* ------------------------------------------------------------------ *)
(* Decoding.                                                           *)

let ( let* ) = Result.bind

let field j = Json.field "manifest" j

let int_f j name = field j name Json.to_int
let num_f j name = field j name Json.to_num
let str_f j name = field j name Json.to_str
let list_f j name = field j name Json.to_list

let options_of_json j =
  let* warps = int_f j "warps" in
  let* seed = int_f j "seed" in
  let* jobs = int_f j "jobs" in
  let* orf_entries = int_f j "orf_entries" in
  let* lrf = str_f j "lrf" in
  let* params_fp = str_f j "params_fp" in
  let* names = list_f j "benchmarks" in
  let* benchmarks =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        match Json.to_str v with
        | Some s -> Ok (s :: acc)
        | None -> Error "manifest: non-string benchmark name")
      (Ok []) names
    |> Result.map List.rev
  in
  Ok { warps; seed; jobs; orf_entries; lrf; params_fp; benchmarks }

let bench_of_json j =
  let* bench = str_f j "name" in
  let* strands = int_f j "strands" in
  let* write_units = int_f j "write_units" in
  let* read_units = int_f j "read_units" in
  let* lrf_allocs = int_f j "lrf_allocs" in
  let* orf_allocs = int_f j "orf_allocs" in
  let* partial_allocs = int_f j "partial_allocs" in
  let* dynamic_instrs = int_f j "dynamic_instrs" in
  let* desched_events = int_f j "desched_events" in
  let* capped_warps = int_f j "capped_warps" in
  let* norm_energy = num_f j "norm_energy" in
  let* total_pj = num_f j "total_pj" in
  let* baseline_pj = num_f j "baseline_pj" in
  let* ipc = num_f j "ipc" in
  let* stall_fields = field j "stalls" Json.to_obj in
  let* stalls =
    List.fold_left
      (fun acc (cause, v) ->
        let* acc = acc in
        match Json.to_int v with
        | Some n -> Ok ((cause, n) :: acc)
        | None -> Error "manifest: non-integer stall count")
      (Ok []) stall_fields
    |> Result.map List.rev
  in
  let* sched =
    let* s = field j "sched" Option.some in
    let* entries = int_f s "entries" in
    let* exits = int_f s "exits" in
    let* resident_cycles = int_f s "resident_cycles" in
    let* desched_long_latency = int_f s "desched_long_latency" in
    let* desched_strand_boundary = int_f s "desched_strand_boundary" in
    let* desched_bank_conflict = int_f s "desched_bank_conflict" in
    Ok
      {
        entries;
        exits;
        resident_cycles;
        desched_long_latency;
        desched_strand_boundary;
        desched_bank_conflict;
      }
  in
  let* counts = field j "counts" Option.some in
  let* energy_fields = field j "energy_pj" Json.to_obj in
  let* energy_pj =
    List.fold_left
      (fun acc (level, v) ->
        let* acc = acc in
        let* access = num_f v "access" in
        let* wire = num_f v "wire" in
        Ok ((level, (access, wire)) :: acc))
      (Ok []) energy_fields
    |> Result.map List.rev
  in
  Ok
    {
      bench;
      strands;
      write_units;
      read_units;
      lrf_allocs;
      orf_allocs;
      partial_allocs;
      dynamic_instrs;
      desched_events;
      capped_warps;
      norm_energy;
      total_pj;
      baseline_pj;
      ipc;
      stalls;
      sched;
      counts;
      energy_pj;
    }

let phase_of_json j =
  let* phase = str_f j "phase" in
  let* calls = int_f j "calls" in
  let* total_ms = num_f j "total_ms" in
  Ok { phase; calls; total_ms }

let of_json j =
  let* version = int_f j "schema_version" in
  if version <> schema_version then
    Error
      (Printf.sprintf "manifest: schema version %d unsupported (expected %d)" version
         schema_version)
  else
    let* options = Result.bind (field j "options" Option.some) options_of_json in
    let* meta = Result.bind (field j "meta" Option.some) Host.of_json in
    let* benches =
      let* items = list_f j "benches" in
      List.fold_left
        (fun acc v ->
          let* acc = acc in
          let* b = bench_of_json v in
          Ok (b :: acc))
        (Ok []) items
      |> Result.map List.rev
    in
    let* metrics = Result.bind (field j "metrics" Option.some) Metrics.snapshot_of_json in
    let* phases =
      let* items = list_f j "phases" in
      List.fold_left
        (fun acc v ->
          let* acc = acc in
          let* p = phase_of_json v in
          Ok (p :: acc))
        (Ok []) items
      |> Result.map List.rev
    in
    let* audit_j = field j "audit" Option.some in
    let* alloc_events = int_f audit_j "alloc_events" in
    let* top_allocs = list_f audit_j "top_allocs" in
    Ok { options; meta; benches; metrics; phases; audit = { alloc_events; top_allocs } }

let of_string s =
  match Json.parse s with
  | Error e -> Error ("manifest: " ^ e)
  | Ok j -> of_json j

(* ------------------------------------------------------------------ *)
(* Files.                                                              *)

let write_file ~path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (to_json m);
      output_char oc '\n')

let read_file ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
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
