let default_jobs () = Domain.recommended_domain_count ()

let resolve_jobs = function
  | None -> default_jobs ()
  | Some 0 -> default_jobs ()
  | Some j when j < 0 -> 1
  | Some j -> j

(* Shared-counter work claiming: workers race on [next] and each index
   is claimed exactly once.  Results (or captured exceptions) land in a
   per-index slot, so collection order is input order regardless of
   completion order.

   When Eprof is recording, each fan-out becomes a region with
   per-spawn, per-join, per-worker-loop and per-task intervals — the
   raw material for Obs.Engine's exact wall × domains decomposition.
   [prof] is latched once per call, so a region's events are all or
   nothing even if the recorder is toggled mid-flight. *)
let run_team ~jobs ~label f (arr : 'a array) : ('b, exn * Printexc.raw_backtrace) result array =
  let n = Array.length arr in
  let slots = Array.make n None in
  let next = Atomic.make 0 in
  let prof = Eprof.enabled () in
  let region = if prof then Eprof.new_region () else 0 in
  if prof then
    Eprof.emit
      (Eprof.Region_begin
         { region; label; jobs; caller = Eprof.self (); t = Eprof.now_rel_ns () });
  let worker () =
    let dom = if prof then Eprof.self () else 0 in
    if prof then Eprof.worker_start ();
    let w0 = if prof then Eprof.now_rel_ns () else 0 in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let t0 = if prof then Eprof.now_rel_ns () else 0 in
        let r =
          match f arr.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        (* Timestamp before the slot write and event emission: the task
           interval is [f arr.(i)] exactly; bookkeeping is dispatch. *)
        if prof then
          Eprof.emit (Eprof.Task { region; dom; index = i; start = t0; stop = Eprof.now_rel_ns () });
        slots.(i) <- Some r;
        loop ()
      end
    in
    loop ();
    if prof then Eprof.emit (Eprof.Worker { region; dom; start = w0; stop = Eprof.now_rel_ns () })
  in
  (* The calling domain is one of the team; spawn the other jobs-1
     (never more than there are elements). *)
  let spawn1 () =
    if not prof then Domain.spawn worker
    else begin
      let t0 = Eprof.now_rel_ns () in
      let d = Domain.spawn worker in
      Eprof.emit
        (Eprof.Spawn
           { region; dom = (Domain.get_id d :> int); start = t0; stop = Eprof.now_rel_ns () });
      d
    end
  in
  let join1 d =
    if not prof then Domain.join d
    else begin
      let t0 = Eprof.now_rel_ns () in
      Domain.join d;
      Eprof.emit
        (Eprof.Join
           { region; dom = (Domain.get_id d :> int); start = t0; stop = Eprof.now_rel_ns () })
    end
  in
  let spawned = List.init (Int.min (jobs - 1) (n - 1)) (fun _ -> spawn1 ()) in
  worker ();
  List.iter join1 spawned;
  if prof then Eprof.emit (Eprof.Region_end { region; t = Eprof.now_rel_ns () });
  Array.map (function Some r -> r | None -> assert false) slots

(* Serial path under profiling: still a region (domains = 1), so the
   speedup table can compare per-region serial and parallel walls on
   equal footing.  Events are balanced even if [f] raises. *)
let serial_map_profiled ~label f xs =
  let region = Eprof.new_region () in
  let dom = Eprof.self () in
  Eprof.emit (Eprof.Region_begin { region; label; jobs = 1; caller = dom; t = Eprof.now_rel_ns () });
  Eprof.worker_start ();
  let w0 = Eprof.now_rel_ns () in
  Fun.protect
    ~finally:(fun () ->
      Eprof.emit (Eprof.Worker { region; dom; start = w0; stop = Eprof.now_rel_ns () });
      Eprof.emit (Eprof.Region_end { region; t = Eprof.now_rel_ns () }))
    (fun () ->
      List.mapi
        (fun i x ->
          let t0 = Eprof.now_rel_ns () in
          let y = f x in
          Eprof.emit (Eprof.Task { region; dom; index = i; start = t0; stop = Eprof.now_rel_ns () });
          y)
        xs)

let parallel_map ?jobs ?(label = "pool") f xs =
  let jobs = resolve_jobs jobs in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs <= 1 ->
    if Eprof.enabled () then serial_map_profiled ~label f xs else List.map f xs
  | _ ->
    let results = run_team ~jobs ~label f (Array.of_list xs) in
    (* Deterministic failure: the smallest failing input index wins,
       whatever the interleaving was. *)
    Array.iter
      (function
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt
        | Ok _ -> ())
      results;
    Array.to_list (Array.map (function Ok v -> v | Error _ -> assert false) results)

let parallel_iter ?jobs ?label f xs = ignore (parallel_map ?jobs ?label f xs : unit list)
