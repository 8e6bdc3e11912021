(* Tests of the end-to-end benchmark, run by [dune runtest]: every
   workload at a tiny size, through the same entry points as bmk.

     test_e2e.exe BENCHMARK.json *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let parse_exn s = match Obs.Json.parse s with Ok j -> j | Error e -> failwith e
let member k j = Option.get (Obs.Json.member k j)
let str j = Option.get (Obs.Json.to_str j)

let declared section =
  let j = parse_exn (In_channel.with_open_text Sys.argv.(1) In_channel.input_all) in
  List.map
    (fun e -> (str (member "name" e), str (member "unit" e), str (member "better" e)))
    (Option.get (Obs.Json.to_list (member section j)))

let triple (m : Runner.metric) = (m.Runner.name, m.Runner.unit, m.Runner.better)

let tiny ?wrap ?trace_out ?(ops = 2) ~trace w =
  Runner.run ?wrap ?trace_out ~scale:Wl.Tiny ~seed:1 ~stop:(Runner.Ops ops) ~trace w

(* The metrics of the printed result line, as (name, unit). *)
let printed o =
  let j = parse_exn (Obs.Json.to_string (Runner.result_json o)) in
  check "result keys"
    (match j with
     | Obs.Json.Obj fs -> List.map fst fs = [ "correct"; "attempted"; "failed"; "metrics" ]
     | _ -> false);
  match member "metrics" j with
  | Obs.Json.Obj fs -> List.map (fun (k, v) -> (k, str (member "unit" v))) fs
  | _ -> []

let names_units l = List.map (fun (n, u, _) -> (n, u)) l

let () =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  check "end_to_end matches BENCHMARK.json" (List.map triple Runner.end_to_end = e2e);
  check "per_layer matches BENCHMARK.json" (List.map triple Runner.per_layer = layers);
  check "quartiles follow statistics.quantiles"
    (Runner.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) = Some (2.75, 5.5, 8.25));
  List.iter
    (fun w ->
      let n = Wl.name w in
      let a = tiny ~trace:false w and b = tiny ~trace:false w in
      check (n ^ ": correct") (a.Runner.correct && a.Runner.failed = 0);
      check (n ^ ": digests repeat") (a.Runner.digest = b.Runner.digest);
      check (n ^ ": printed end-to-end metrics") (printed a = names_units e2e);
      let trace_out = Printf.sprintf "test-trace-%s.json" n in
      let t = tiny ~trace:true ~trace_out w in
      check (n ^ ": traced run correct") t.Runner.correct;
      check (n ^ ": traced digest") (t.Runner.digest = a.Runner.digest);
      check (n ^ ": printed per-layer metrics") (printed t = names_units layers);
      check (n ^ ": layer table sums to wall x jobs")
        (List.fold_left (fun acc (_, ns) -> acc + ns) 0 t.Runner.layers = t.Runner.budget_ns
         && t.Runner.table_errors = []);
      let events =
        member "traceEvents" (parse_exn (In_channel.with_open_text trace_out In_channel.input_all))
      in
      check (n ^ ": trace has benchmark spans")
        (List.exists
           (fun e -> Obs.Json.member "cat" e = Some (Obs.Json.Str "bmk"))
           (Option.get (Obs.Json.to_list events))))
    Wl.all;
  (* An operation that raises or fails its check is counted, and the
     run goes on. *)
  let broken (Wl.W s) =
    Wl.W
      {
        s with
        Wl.run = (fun i -> if i = 1 then failwith "injected" else s.Wl.run i);
        check = (fun i r -> if i = 2 then Some "injected" else s.Wl.check i r);
      }
  in
  let o = tiny ~wrap:broken ~ops:4 ~trace:false Wl.Compile_gen in
  check "injected failures are counted"
    (o.Runner.attempted = 8 && o.Runner.failed = 4 && not o.Runner.correct);
  let drifting (Wl.W s) =
    let k = ref 0 in
    Wl.W { s with Wl.canon = (fun _ -> incr k; string_of_int !k) }
  in
  let o = tiny ~wrap:drifting ~ops:3 ~trace:false Wl.Compile_gen in
  check "output differing from the reference pass fails" (o.Runner.failed = 3);
  let o = Runner.run ~expected_digest:"0" ~scale:Wl.Tiny ~seed:1 ~stop:(Runner.Ops 1) ~trace:false Wl.Timing_sweep in
  check "digest mismatch fails every operation" (o.Runner.failed = o.Runner.attempted);
  (* This process's own set-up takes well under 7 s, so the median of
     the three samples is the middle one given here. *)
  let more_setups () = [ 7_000_000_000; 9_000_000_000 ] in
  let o = Runner.run ~more_setups ~scale:Wl.Tiny ~seed:1 ~stop:(Runner.Ops 1) ~trace:false Wl.Traffic_sweep in
  check "setup_s is the median of every cold set-up"
    (match o.Runner.metrics with
     | (m, v, n) :: _ -> m.Runner.name = "setup_s" && v = 7.0 && n = 3
     | [] -> false);
  if !failures > 0 then exit 1
