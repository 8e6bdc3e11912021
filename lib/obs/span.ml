type span = { name : string; ts_ns : int64; dur_ns : int64; depth : int; domain : int }

(* Domain-safety: the completed-span list is appended under a mutex;
   nesting depth is domain-local (a worker's spans nest within that
   worker's own stack, starting at depth 0), so spans recorded from a
   parallel fan-out interleave in the list but keep sensible depths. *)

let on = Atomic.make false
let mu = Mutex.create ()

(* Completed-span appends from worker domains all funnel through this
   mutex; profiled so `rfh engine` can price span recording. *)
let spans_lock = Util.Eprof.lock_create "obs.span.spans"
let completed : span list ref = ref []
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let set_enabled b = Atomic.set on b

let enabled () = Atomic.get on

let with_span name f =
  if not (Atomic.get on) then f ()
  else begin
    let ts = Clock.now_ns () in
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    incr depth;
    Fun.protect
      ~finally:(fun () ->
        decr depth;
        let dur = Int64.sub (Clock.now_ns ()) ts in
        let s =
          {
            name;
            ts_ns = ts;
            dur_ns = dur;
            depth = d;
            domain = (Domain.self () :> int);
          }
        in
        Util.Eprof.lock_acquire spans_lock mu;
        completed := s :: !completed;
        Mutex.unlock mu)
      f
  end

let recorded () =
  Mutex.lock mu;
  let l = !completed in
  Mutex.unlock mu;
  l

let spans () = List.sort (fun a b -> Int64.compare a.ts_ns b.ts_ns) (recorded ())

let reset () =
  Mutex.lock mu;
  completed := [];
  Mutex.unlock mu;
  Domain.DLS.get depth_key := 0

let totals () =
  let table = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let calls, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt table s.name) in
      Hashtbl.replace table s.name (calls + 1, total +. Clock.ns_to_ms s.dur_ns))
    (recorded ());
  Hashtbl.fold (fun name agg acc -> (name, agg) :: acc) table []
  |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)

let totals_table ~wall_ms =
  let t =
    Util.Table.create ~title:"Profile: per-phase time (inclusive)"
      ~columns:[ "Phase"; "Calls"; "Total ms"; "% of wall" ]
  in
  List.iter
    (fun (phase, (calls, total_ms)) ->
      Util.Table.add_row t
        [
          phase;
          string_of_int calls;
          Printf.sprintf "%.3f" total_ms;
          Printf.sprintf "%.1f" (Util.Stats.percent total_ms wall_ms);
        ])
    (totals ());
  t
