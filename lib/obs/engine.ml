(* Exact decomposition of parallel wall time.  The arithmetic is
   arranged so the seven categories sum to wall × domains by
   construction (idle is the per-domain remainder); [check] re-verifies
   the sum and, more importantly, that no component went negative —
   which is what would actually catch a broken attribution. *)

type categories = {
  useful_ns : int;
  spawn_ns : int;
  teardown_ns : int;
  lock_wait_ns : int;
  memo_wait_ns : int;
  dispatch_ns : int;
  idle_ns : int;
  gc_ns : int;
      (* NOT an eighth budget category: gc is a sub-split of [useful_ns]
         (collector time inside task intervals, from Gcprof pauses), so
         it is excluded from [cat_total]/[cat_list] and the seven-way
         sum stays exact.  compute = useful - gc by definition. *)
}

let cat_zero =
  {
    useful_ns = 0;
    spawn_ns = 0;
    teardown_ns = 0;
    lock_wait_ns = 0;
    memo_wait_ns = 0;
    dispatch_ns = 0;
    idle_ns = 0;
    gc_ns = 0;
  }

let cat_add a b =
  {
    useful_ns = a.useful_ns + b.useful_ns;
    spawn_ns = a.spawn_ns + b.spawn_ns;
    teardown_ns = a.teardown_ns + b.teardown_ns;
    lock_wait_ns = a.lock_wait_ns + b.lock_wait_ns;
    memo_wait_ns = a.memo_wait_ns + b.memo_wait_ns;
    dispatch_ns = a.dispatch_ns + b.dispatch_ns;
    idle_ns = a.idle_ns + b.idle_ns;
    gc_ns = a.gc_ns + b.gc_ns;
  }

let cat_total c =
  c.useful_ns + c.spawn_ns + c.teardown_ns + c.lock_wait_ns + c.memo_wait_ns + c.dispatch_ns
  + c.idle_ns

let category_names =
  [ "useful"; "spawn"; "teardown"; "lock wait"; "memo wait"; "dispatch"; "idle" ]

let cat_list c =
  [
    ("useful", c.useful_ns);
    ("spawn", c.spawn_ns);
    ("teardown", c.teardown_ns);
    ("lock wait", c.lock_wait_ns);
    ("memo wait", c.memo_wait_ns);
    ("dispatch", c.dispatch_ns);
    ("idle", c.idle_ns);
  ]

type region = {
  id : int;
  label : string;
  req_jobs : int;
  domains : int;
  tasks : int;
  caller : int;
  start_ns : int;
  wall_ns : int;
  cats : categories;
}

type slice = {
  s_name : string;
  s_cat : string;
  s_dom : int;
  s_start_ns : int;
  s_dur_ns : int;
}

type report = {
  label : string;
  jobs : int;
  epoch_ns : int64;
  wall_ns : int;
  regions : region list;
  locks : Util.Eprof.lock_stats list;
  memos : Util.Eprof.memo_stats list;
  slices : slice list;
  gc : Gcprof.capture option;
}

(* ---- analysis ---------------------------------------------------- *)

type racc = {
  mutable a_label : string;
  mutable a_jobs : int;
  mutable a_caller : int;
  mutable a_begin : int;
  mutable a_end : int option;
  mutable a_spawns : (int * int * int) list;  (* dom, start, stop *)
  mutable a_joins : (int * int * int) list;
  mutable a_workers : (int * int * int) list;
  mutable a_tasks : (int * int * int * int) list;  (* dom, index, start, stop *)
}

let overlap a0 a1 b0 b1 = max 0 (min a1 b1 - max a0 b0)

let analyze ~label ~jobs ~epoch_ns ~wall_ns ~locks ~memos ?gc (events : Util.Eprof.event list) =
  let regions : (int, racc) Hashtbl.t = Hashtbl.create 16 in
  let get id =
    match Hashtbl.find_opt regions id with
    | Some r -> r
    | None ->
      let r =
        {
          a_label = "?";
          a_jobs = 0;
          a_caller = 0;
          a_begin = 0;
          a_end = None;
          a_spawns = [];
          a_joins = [];
          a_workers = [];
          a_tasks = [];
        }
      in
      Hashtbl.add regions id r;
      r
  in
  (* kind, name, dom, start, stop *)
  let waits = ref [] in
  List.iter
    (fun (ev : Util.Eprof.event) ->
      match ev with
      | Region_begin { region; label; jobs; caller; t } ->
        let r = get region in
        r.a_label <- label;
        r.a_jobs <- jobs;
        r.a_caller <- caller;
        r.a_begin <- t
      | Region_end { region; t } -> (get region).a_end <- Some t
      | Spawn { region; dom; start; stop } ->
        let r = get region in
        r.a_spawns <- (dom, start, stop) :: r.a_spawns
      | Join { region; dom; start; stop } ->
        let r = get region in
        r.a_joins <- (dom, start, stop) :: r.a_joins
      | Worker { region; dom; start; stop } ->
        let r = get region in
        r.a_workers <- (dom, start, stop) :: r.a_workers
      | Task { region; dom; index; start; stop } ->
        let r = get region in
        r.a_tasks <- (dom, index, start, stop) :: r.a_tasks
      | Lock_wait { name; dom; start; stop } -> waits := (`Lock, name, dom, start, stop) :: !waits
      | Memo_wait { table; dom; start; stop } ->
        waits := (`Memo, table, dom, start, stop) :: !waits)
    events;
  (* Only complete regions are analyzable (an interrupted recording can
     leave a dangling begin). *)
  let complete =
    Hashtbl.fold (fun id r acc -> match r.a_end with Some e -> (id, r, e) :: acc | None -> acc)
      regions []
    |> List.sort (fun (_, a, _) (_, b, _) -> compare a.a_begin b.a_begin)
  in
  (* Attribute each wait to the innermost complete region whose window
     contains it and whose team includes the waiting domain. *)
  let member dom r = dom = r.a_caller || List.exists (fun (d, _, _) -> d = dom) r.a_workers in
  let assigned : (int, (bool * int * int * int) list) Hashtbl.t = Hashtbl.create 16 in
  (* region id -> (is_lock, dom, start, stop) *)
  List.iter
    (fun (kind, _name, dom, start, stop) ->
      let best =
        List.fold_left
          (fun best (id, r, e) ->
            if r.a_begin <= start && stop <= e && member dom r then
              match best with
              | Some (_, _, bw) when bw <= e - r.a_begin -> best
              | _ -> Some (id, r, e - r.a_begin)
            else best)
          None complete
      in
      match best with
      | None -> ()
      | Some (id, _, _) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt assigned id) in
        Hashtbl.replace assigned id ((kind = `Lock, dom, start, stop) :: prev))
    !waits;
  (* GC pauses attributable to a domain: resolved, and of a collecting
     kind (condition waits etc. are not charged). *)
  let gc_pauses =
    match gc with
    | None -> []
    | Some (g : Gcprof.capture) ->
      List.filter_map
        (fun (p : Gcprof.pause) ->
          if p.gp_dom >= 0 && Gcprof.counts_as_gc p.gp_kind then
            Some (p.gp_dom, p.gp_start_ns, p.gp_start_ns + p.gp_dur_ns)
          else None)
        g.c_pauses
  in
  let analyzed =
    List.map
      (fun (id, r, rend) ->
        let wall = rend - r.a_begin in
        let workers = r.a_workers in
        let domains = List.length workers in
        let tasks_of dom = List.filter (fun (d, _, _, _) -> d = dom) r.a_tasks in
        let rwaits = Option.value ~default:[] (Hashtbl.find_opt assigned id) in
        let spawn_total = List.fold_left (fun acc (_, s, e) -> acc + (e - s)) 0 r.a_spawns in
        let worker_exit dom =
          List.fold_left (fun acc (d, _, e) -> if d = dom then max acc e else acc) 0 workers
        in
        let teardown_total =
          List.fold_left
            (fun acc (dom, s, e) -> acc + max 0 (e - max s (worker_exit dom)))
            0 r.a_joins
        in
        let per_domain (dom, w0, w1) =
          let tasks = tasks_of dom in
          let busy = List.fold_left (fun acc (_, _, s, e) -> acc + (e - s)) 0 tasks in
          (* Waits are clipped to this domain's task intervals: a wait
             straddling a task boundary (cannot happen today, but cheap
             to be safe about) only discounts task time it actually
             covers, so [useful] cannot go negative from attribution. *)
          let clipped p =
            List.fold_left
              (fun acc (is_lock, d, s, e) ->
                if d = dom && is_lock = p then
                  acc
                  + List.fold_left (fun a (_, _, ts, te) -> a + overlap s e ts te) 0 tasks
                else acc)
              0 rwaits
          in
          let lockw = clipped true in
          let memow = clipped false in
          let dispatch = w1 - w0 - busy in
          let useful = busy - lockw - memow in
          (* GC inside this domain's task intervals.  Same clipping as
             waits, then clamped to [useful]: a pause can overlap a
             wait interval (the collector runs while we spin on a
             memo), and double-charging would push compute negative. *)
          let gc_raw =
            List.fold_left
              (fun acc (pd, ps, pe) ->
                if pd = dom then
                  acc + List.fold_left (fun a (_, _, ts, te) -> a + overlap ps pe ts te) 0 tasks
                else acc)
              0 gc_pauses
          in
          let gc = max 0 (min gc_raw useful) in
          if dom = r.a_caller then
            {
              useful_ns = useful;
              spawn_ns = spawn_total;
              teardown_ns = teardown_total;
              lock_wait_ns = lockw;
              memo_wait_ns = memow;
              dispatch_ns = dispatch;
              idle_ns = wall - spawn_total - (w1 - w0) - teardown_total;
              gc_ns = gc;
            }
          else
            {
              cat_zero with
              useful_ns = useful;
              lock_wait_ns = lockw;
              memo_wait_ns = memow;
              dispatch_ns = dispatch;
              idle_ns = wall - (w1 - w0);
              gc_ns = gc;
            }
        in
        let cats = List.fold_left (fun acc w -> cat_add acc (per_domain w)) cat_zero workers in
        {
          id;
          label = r.a_label;
          req_jobs = r.a_jobs;
          domains;
          tasks = List.length r.a_tasks;
          caller = r.a_caller;
          start_ns = r.a_begin;
          wall_ns = wall;
          cats;
        })
      complete
  in
  let task_slices =
    Hashtbl.fold
      (fun _ r acc ->
        List.fold_left
          (fun acc (dom, index, s, e) ->
            {
              s_name = Printf.sprintf "%s[%d]" r.a_label index;
              s_cat = "task";
              s_dom = dom;
              s_start_ns = s;
              s_dur_ns = e - s;
            }
            :: acc)
          acc r.a_tasks)
      regions []
  in
  let wait_slices =
    List.map
      (fun (kind, name, dom, start, stop) ->
        {
          s_name = (match kind with `Lock -> "lock:" ^ name | `Memo -> "memo:" ^ name);
          s_cat = (match kind with `Lock -> "lock" | `Memo -> "memo");
          s_dom = dom;
          s_start_ns = start;
          s_dur_ns = stop - start;
        })
      !waits
  in
  let slices =
    List.sort
      (fun a b -> if a.s_start_ns <> b.s_start_ns then compare a.s_start_ns b.s_start_ns else compare a.s_dom b.s_dom)
      (task_slices @ wait_slices)
  in
  { label; jobs; epoch_ns; wall_ns; regions = analyzed; locks; memos; slices; gc }

let diff_lock_stats (later : Util.Eprof.lock_stats list) (earlier : Util.Eprof.lock_stats list) =
  List.map
    (fun (l : Util.Eprof.lock_stats) ->
      match List.find_opt (fun (e : Util.Eprof.lock_stats) -> e.lock = l.lock) earlier with
      | None -> l
      | Some e ->
        {
          l with
          acquisitions = l.acquisitions - e.acquisitions;
          contended = l.contended - e.contended;
          wait_ns = l.wait_ns - e.wait_ns;
        })
    later

let diff_memo_stats (later : Util.Eprof.memo_stats list) (earlier : Util.Eprof.memo_stats list) =
  List.map
    (fun (m : Util.Eprof.memo_stats) ->
      match List.find_opt (fun (e : Util.Eprof.memo_stats) -> e.table = m.table) earlier with
      | None -> m
      | Some e ->
        {
          m with
          lookups = m.lookups - e.lookups;
          hits = m.hits - e.hits;
          misses = m.misses - e.misses;
          waits = m.waits - e.waits;
          wait_ns = m.wait_ns - e.wait_ns;
        })
    later

let profile ?(label = "run") ?(gcprof = true) ~jobs f =
  let locks0 = Util.Eprof.lock_stats () in
  let memos0 = Util.Eprof.memo_stats () in
  (* Eprof first: Gcprof timestamps resolve against its epoch. *)
  Util.Eprof.start ();
  if gcprof then Gcprof.start ();
  match f () with
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    if gcprof then ignore (Gcprof.stop () : Gcprof.capture);
    Util.Eprof.stop ();
    Printexc.raise_with_backtrace e bt
  | v ->
    let wall_ns = Util.Eprof.now_rel_ns () in
    let gc = if gcprof then Some (Gcprof.stop ()) else None in
    Util.Eprof.stop ();
    let epoch_ns = Util.Eprof.epoch_ns () in
    let locks = diff_lock_stats (Util.Eprof.lock_stats ()) locks0 in
    let memos = diff_memo_stats (Util.Eprof.memo_stats ()) memos0 in
    let events = Util.Eprof.events () in
    (v, analyze ~label ~jobs ~epoch_ns ~wall_ns ~locks ~memos ?gc events)

(* ---- invariants -------------------------------------------------- *)

let check r =
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  List.iter
    (fun (reg : region) ->
      let where = Printf.sprintf "region %d (%s, jobs=%d)" reg.id reg.label reg.req_jobs in
      List.iter
        (fun (name, v) -> if v < 0 then fail "%s: category %S is negative (%d ns)" where name v)
        (cat_list reg.cats);
      let budget = reg.wall_ns * reg.domains in
      let total = cat_total reg.cats in
      if total <> budget then
        fail "%s: categories sum to %d ns, budget wall*domains = %d ns" where total budget;
      (* gc is a sub-split of useful, so compute = useful - gc must be
         exact and non-negative: 0 <= gc <= useful. *)
      if reg.cats.gc_ns < 0 then fail "%s: gc is negative (%d ns)" where reg.cats.gc_ns;
      if reg.cats.gc_ns > reg.cats.useful_ns then
        fail "%s: gc %d ns exceeds useful %d ns" where reg.cats.gc_ns reg.cats.useful_ns;
      if reg.domains < 1 then fail "%s: no worker domains recorded" where;
      if reg.req_jobs >= 1 && reg.domains > reg.req_jobs then
        fail "%s: %d domains exceed requested jobs" where reg.domains)
    r.regions;
  (match r.gc with
  | None -> ()
  | Some g ->
    if g.Gcprof.c_lost_events < 0 then fail "gc: negative lost_events";
    if g.Gcprof.c_unmatched < 0 then fail "gc: negative unmatched";
    List.iter
      (fun (p : Gcprof.pause) ->
        if p.gp_dur_ns < 0 then
          fail "gc pause (ring %d, %s): negative duration %d ns" p.gp_ring
            (Gcprof.kind_name p.gp_kind) p.gp_dur_ns)
      g.Gcprof.c_pauses;
    List.iter
      (fun (m : Gcprof.region_mem) ->
        if m.gm_minor_collections < 0 || m.gm_major_collections < 0 then
          fail "gc region %d: negative collection count" m.gm_region)
      g.Gcprof.c_region_mem);
  List.iter
    (fun (m : Util.Eprof.memo_stats) ->
      if m.lookups <> m.hits + m.misses + m.waits then
        fail "memo %s: lookups %d <> hits %d + misses %d + waits %d" m.table m.lookups m.hits
          m.misses m.waits;
      if m.wait_ns < 0 then fail "memo %s: negative wait_ns" m.table)
    r.memos;
  List.iter
    (fun (l : Util.Eprof.lock_stats) ->
      if l.contended > l.acquisitions then
        fail "lock %s: contended %d > acquisitions %d" l.lock l.contended l.acquisitions;
      if l.wait_ns < 0 then fail "lock %s: negative wait_ns" l.lock)
    r.locks;
  List.rev !bad

let region_seconds r =
  List.fold_left (fun acc (reg : region) -> acc +. (float_of_int reg.wall_ns /. 1e9)) 0.0 r.regions

let agg_categories r = List.fold_left (fun acc (reg : region) -> cat_add acc reg.cats) cat_zero r.regions

(* ---- rendering --------------------------------------------------- *)

let ms ns = float_of_int ns /. 1e6

let pct part total = if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let speedup_table reports =
  let t =
    Util.Table.create ~title:"Engine speedup"
      ~columns:[ "Jobs"; "Wall ms"; "Speedup"; "Efficiency"; "Region ms"; "Serial ms"; "Regions"; "Tasks" ]
  in
  let base = match reports with [] -> None | r :: _ -> Some r in
  List.iter
    (fun r ->
      let wall_ms = ms r.wall_ns in
      let speedup =
        match base with Some b when r.wall_ns > 0 -> float_of_int b.wall_ns /. float_of_int r.wall_ns | _ -> 1.0
      in
      let region_ms = region_seconds r *. 1e3 in
      Util.Table.add_row t
        [
          string_of_int r.jobs;
          Printf.sprintf "%.1f" wall_ms;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.0f%%" (100.0 *. speedup /. float_of_int (max 1 r.jobs));
          Printf.sprintf "%.1f" region_ms;
          Printf.sprintf "%.1f" (wall_ms -. region_ms);
          string_of_int (List.length r.regions);
          string_of_int (List.fold_left (fun acc (reg : region) -> acc + reg.tasks) 0 r.regions);
        ])
    reports;
  t

let budget_of r =
  List.fold_left (fun acc (reg : region) -> acc + (reg.wall_ns * reg.domains)) 0 r.regions

(* The GC sub-split is shown as a fraction of useful (not of budget):
   it answers "how much of what looked like work was the collector",
   and the seven budget columns still sum to 100%. *)
let gc_share_str (c : categories) =
  if c.gc_ns = 0 && c.useful_ns = 0 then "-"
  else Printf.sprintf "%.1f%%" (pct c.gc_ns c.useful_ns)

let breakdown_table reports =
  let t =
    Util.Table.create ~title:"Engine overhead breakdown (% of region budget = wall x domains)"
      ~columns:
        ([ "Jobs"; "Budget ms" ]
        @ List.map (fun c -> String.capitalize_ascii c) category_names
        @ [ "Gc/useful" ])
  in
  List.iter
    (fun r ->
      let budget = budget_of r in
      let agg = agg_categories r in
      Util.Table.add_row t
        ([ string_of_int r.jobs; Printf.sprintf "%.1f" (ms budget) ]
        @ List.map (fun (_, v) -> Printf.sprintf "%.1f%%" (pct v budget)) (cat_list agg)
        @ [ gc_share_str agg ]))
    reports;
  t

let region_table r =
  let t =
    Util.Table.create
      ~title:(Printf.sprintf "Parallel regions (jobs=%d)" r.jobs)
      ~columns:
        ([ "Region"; "Doms"; "Tasks"; "Wall ms" ]
        @ List.map (fun c -> String.capitalize_ascii c) category_names
        @ [ "Gc/useful" ])
  in
  List.iter
    (fun (reg : region) ->
      let budget = reg.wall_ns * reg.domains in
      Util.Table.add_row t
        ([
           Printf.sprintf "%s#%d" reg.label reg.id;
           string_of_int reg.domains;
           string_of_int reg.tasks;
           Printf.sprintf "%.2f" (ms reg.wall_ns);
         ]
        @ List.map (fun (_, v) -> Printf.sprintf "%.1f%%" (pct v budget)) (cat_list reg.cats)
        @ [ gc_share_str reg.cats ]))
    r.regions;
  t

let lock_table r =
  let t =
    Util.Table.create
      ~title:(Printf.sprintf "Profiled locks (jobs=%d)" r.jobs)
      ~columns:[ "Lock"; "Acquisitions"; "Contended"; "Contention"; "Wait ms" ]
  in
  List.iter
    (fun (l : Util.Eprof.lock_stats) ->
      Util.Table.add_row t
        [
          l.lock;
          string_of_int l.acquisitions;
          string_of_int l.contended;
          Printf.sprintf "%.2f%%" (pct l.contended l.acquisitions);
          Printf.sprintf "%.3f" (ms l.wait_ns);
        ])
    r.locks;
  t

let memo_rows t (ms_list : Util.Eprof.memo_stats list) =
  List.iter
    (fun (m : Util.Eprof.memo_stats) ->
      Util.Table.add_row t
        [
          m.table;
          string_of_int m.lookups;
          string_of_int m.hits;
          string_of_int m.misses;
          string_of_int m.waits;
          Printf.sprintf "%.1f%%" (pct m.hits m.lookups);
          Printf.sprintf "%.3f" (ms m.wait_ns);
        ])
    ms_list

let memo_columns = [ "Table"; "Lookups"; "Hits"; "Misses"; "Waits"; "Hit rate"; "Wait ms" ]

let memo_table r =
  let t =
    Util.Table.create ~title:(Printf.sprintf "Memo tables (jobs=%d)" r.jobs) ~columns:memo_columns
  in
  memo_rows t r.memos;
  t

let memo_stats_table stats =
  let t = Util.Table.create ~title:"Memo tables (cumulative)" ~columns:memo_columns in
  memo_rows t stats;
  t

(* ---- GC rendering ------------------------------------------------ *)

let gc_share r =
  let agg = agg_categories r in
  if agg.useful_ns = 0 then 0.0 else float_of_int agg.gc_ns /. float_of_int agg.useful_ns

let count_kind k (g : Gcprof.capture) =
  List.length (List.filter (fun (p : Gcprof.pause) -> p.Gcprof.gp_kind = k) g.c_pauses)

(* A private registry: the default registry's snapshot is embedded in
   run manifests, whose bytes must not depend on whether profiling ran. *)
let gc_pause_summary r =
  match r.gc with
  | None -> None
  | Some g ->
    let reg = Metrics.create_registry () in
    let h = Metrics.histogram ~registry:reg "gc.pause_us" in
    List.iter
      (fun (p : Gcprof.pause) ->
        if Gcprof.counts_as_gc p.gp_kind then
          Metrics.observe h (float_of_int p.gp_dur_ns /. 1e3))
      g.c_pauses;
    let snap = Metrics.snapshot ~registry:reg () in
    List.assoc_opt "gc.pause_us" snap.Metrics.histograms

type mem_totals = {
  mt_minor_words : float;
  mt_promoted_words : float;
  mt_major_words : float;
  mt_minor_collections : int;
  mt_major_collections : int;
}

let gc_mem_totals (g : Gcprof.capture) =
  List.fold_left
    (fun acc (m : Gcprof.region_mem) ->
      {
        mt_minor_words = acc.mt_minor_words +. m.gm_minor_words;
        mt_promoted_words = acc.mt_promoted_words +. m.gm_promoted_words;
        mt_major_words = acc.mt_major_words +. m.gm_major_words;
        mt_minor_collections = acc.mt_minor_collections + m.gm_minor_collections;
        mt_major_collections = acc.mt_major_collections + m.gm_major_collections;
      })
    {
      mt_minor_words = 0.0;
      mt_promoted_words = 0.0;
      mt_major_words = 0.0;
      mt_minor_collections = 0;
      mt_major_collections = 0;
    }
    g.c_region_mem

let mwords w = Printf.sprintf "%.2f" (w /. 1e6)

let gc_summary_table reports =
  let t =
    Util.Table.create ~title:"GC pauses (share of useful task time)"
      ~columns:
        [
          "Jobs"; "Useful ms"; "GC ms"; "GC share"; "Minor"; "Major"; "Barrier"; "p50 us";
          "p99 us"; "Lost"; "Unmatched";
        ]
  in
  List.iter
    (fun r ->
      match r.gc with
      | None -> ()
      | Some g ->
        let agg = agg_categories r in
        let hs = gc_pause_summary r in
        let p f = match hs with Some h -> Printf.sprintf "%.1f" (f h) | None -> "-" in
        Util.Table.add_row t
          [
            string_of_int r.jobs;
            Printf.sprintf "%.1f" (ms agg.useful_ns);
            Printf.sprintf "%.2f" (ms agg.gc_ns);
            Printf.sprintf "%.1f%%" (pct agg.gc_ns agg.useful_ns);
            string_of_int (count_kind Gcprof.Minor g);
            string_of_int (count_kind Gcprof.Major g);
            string_of_int (count_kind Gcprof.Barrier g);
            p (fun h -> h.Metrics.p50);
            p (fun h -> h.Metrics.p99);
            string_of_int g.c_lost_events;
            string_of_int g.c_unmatched;
          ])
    reports;
  t

let gc_mem_table reports =
  let t =
    Util.Table.create ~title:"GC memory (Gc.quick_stat deltas over profiled regions)"
      ~columns:
        [
          "Jobs"; "Minor Mw"; "Promoted Mw"; "Major Mw"; "Minor GCs"; "Major GCs"; "Alloc Mw/s";
        ]
  in
  List.iter
    (fun r ->
      match r.gc with
      | None -> ()
      | Some g ->
        let mt = gc_mem_totals g in
        let agg = agg_categories r in
        let useful_s = float_of_int agg.useful_ns /. 1e9 in
        let rate = if useful_s > 0.0 then mt.mt_minor_words /. 1e6 /. useful_s else 0.0 in
        Util.Table.add_row t
          [
            string_of_int r.jobs;
            mwords mt.mt_minor_words;
            mwords mt.mt_promoted_words;
            mwords mt.mt_major_words;
            string_of_int mt.mt_minor_collections;
            string_of_int mt.mt_major_collections;
            Printf.sprintf "%.1f" rate;
          ])
    reports;
  t

let gc_region_table r =
  let t =
    Util.Table.create
      ~title:(Printf.sprintf "Per-region GC (jobs=%d)" r.jobs)
      ~columns:
        [ "Region"; "Doms"; "Useful ms"; "GC ms"; "GC share"; "Minor Mw"; "Promoted Mw"; "Minor GCs" ]
  in
  let mem_of id =
    match r.gc with
    | None -> None
    | Some g -> List.find_opt (fun (m : Gcprof.region_mem) -> m.gm_region = id) g.c_region_mem
  in
  List.iter
    (fun (reg : region) ->
      let m f d = match mem_of reg.id with Some m -> f m | None -> d in
      Util.Table.add_row t
        [
          Printf.sprintf "%s#%d" reg.label reg.id;
          string_of_int reg.domains;
          Printf.sprintf "%.2f" (ms reg.cats.useful_ns);
          Printf.sprintf "%.3f" (ms reg.cats.gc_ns);
          gc_share_str reg.cats;
          m (fun x -> mwords x.gm_minor_words) "-";
          m (fun x -> mwords x.gm_promoted_words) "-";
          m (fun x -> string_of_int x.gm_minor_collections) "-";
        ])
    r.regions;
  t

(* The order [rfh engine] prints them in; its --report-out page renders
   the same list. *)
let tables reports =
  let widest = match List.rev reports with [] -> [] | w :: _ -> [ memo_table w; lock_table w ] in
  [ speedup_table reports; breakdown_table reports ]
  @ List.map region_table reports
  @ widest
  @ [ gc_summary_table reports; gc_mem_table reports ]
  @ List.map gc_region_table reports

(* ---- interchange ------------------------------------------------- *)

let json_of_cats c =
  [
    ("useful_ns", Json.int c.useful_ns);
    ("spawn_ns", Json.int c.spawn_ns);
    ("teardown_ns", Json.int c.teardown_ns);
    ("lock_wait_ns", Json.int c.lock_wait_ns);
    ("memo_wait_ns", Json.int c.memo_wait_ns);
    ("dispatch_ns", Json.int c.dispatch_ns);
    ("idle_ns", Json.int c.idle_ns);
    ("gc_ns", Json.int c.gc_ns);
  ]

let json_of_capture (g : Gcprof.capture) =
  Json.Obj
    [
      ( "pauses",
        Json.Arr
          (List.map
             (fun (p : Gcprof.pause) ->
               Json.Obj
                 [
                   ("ring", Json.int p.gp_ring);
                   ("dom", Json.int p.gp_dom);
                   ("kind", Json.Str (Gcprof.kind_name p.gp_kind));
                   ("start_ns", Json.int p.gp_start_ns);
                   ("dur_ns", Json.int p.gp_dur_ns);
                 ])
             g.c_pauses) );
      ( "region_mem",
        Json.Arr
          (List.map
             (fun (m : Gcprof.region_mem) ->
               Json.Obj
                 [
                   ("region", Json.int m.gm_region);
                   ("minor_words", Json.Num m.gm_minor_words);
                   ("promoted_words", Json.Num m.gm_promoted_words);
                   ("major_words", Json.Num m.gm_major_words);
                   ("minor_collections", Json.int m.gm_minor_collections);
                   ("major_collections", Json.int m.gm_major_collections);
                 ])
             g.c_region_mem) );
      ("lost_events", Json.int g.c_lost_events);
      ("unmatched", Json.int g.c_unmatched);
    ]

let to_json r =
  Json.Obj
    ([
      ("label", Json.Str r.label);
      ("jobs", Json.int r.jobs);
      (* As a string: monotonic nanosecond epochs can exceed exact
         double range, and the JSON layer stores numbers as floats. *)
      ("epoch_ns", Json.Str (Int64.to_string r.epoch_ns));
      ("wall_ns", Json.int r.wall_ns);
      ( "regions",
        Json.Arr
          (List.map
             (fun (reg : region) ->
               Json.Obj
                 ([
                    ("id", Json.int reg.id);
                    ("label", Json.Str reg.label);
                    ("req_jobs", Json.int reg.req_jobs);
                    ("domains", Json.int reg.domains);
                    ("tasks", Json.int reg.tasks);
                    ("caller", Json.int reg.caller);
                    ("start_ns", Json.int reg.start_ns);
                    ("wall_ns", Json.int reg.wall_ns);
                  ]
                 @ json_of_cats reg.cats))
             r.regions) );
      ( "locks",
        Json.Arr
          (List.map
             (fun (l : Util.Eprof.lock_stats) ->
               Json.Obj
                 [
                   ("lock", Json.Str l.lock);
                   ("acquisitions", Json.int l.acquisitions);
                   ("contended", Json.int l.contended);
                   ("wait_ns", Json.int l.wait_ns);
                 ])
             r.locks) );
      ( "memos",
        Json.Arr
          (List.map
             (fun (m : Util.Eprof.memo_stats) ->
               Json.Obj
                 [
                   ("table", Json.Str m.table);
                   ("lookups", Json.int m.lookups);
                   ("hits", Json.int m.hits);
                   ("misses", Json.int m.misses);
                   ("waits", Json.int m.waits);
                   ("wait_ns", Json.int m.wait_ns);
                 ])
             r.memos) );
      ( "slices",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.s_name);
                   ("cat", Json.Str s.s_cat);
                   ("dom", Json.int s.s_dom);
                   ("start_ns", Json.int s.s_start_ns);
                   ("dur_ns", Json.int s.s_dur_ns);
                 ])
             r.slices) );
    ]
    @ match r.gc with None -> [] | Some g -> [ ("gc", json_of_capture g) ])

(* ---- trace export ------------------------------------------------ *)

let trace_pid = Trace_export.engine_pid

let trace_events ~base_ns r =
  let rel ns = Clock.ns_to_us (Int64.sub (Int64.add r.epoch_ns (Int64.of_int ns)) base_ns) in
  let domains =
    List.sort_uniq compare
      (List.map (fun s -> s.s_dom) r.slices
      @ List.map (fun (reg : region) -> reg.caller) r.regions)
  in
  let region_events =
    List.map
      (fun (reg : region) ->
        Json.Obj
          [
            ("name", Json.Str (Printf.sprintf "region:%s jobs=%d" reg.label reg.req_jobs));
            ("cat", Json.Str "engine");
            ("ph", Json.Str "X");
            ("ts", Json.Num (rel reg.start_ns));
            ("dur", Json.Num (Clock.ns_to_us (Int64.of_int reg.wall_ns)));
            ("pid", Json.int trace_pid);
            ("tid", Json.int reg.caller);
            ( "args",
              Json.Obj [ ("domains", Json.int reg.domains); ("tasks", Json.int reg.tasks) ] );
          ])
      r.regions
  in
  let slice_events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.Str s.s_name);
            ("cat", Json.Str ("engine." ^ s.s_cat));
            ("ph", Json.Str "X");
            ("ts", Json.Num (rel s.s_start_ns));
            ("dur", Json.Num (Clock.ns_to_us (Int64.of_int s.s_dur_ns)));
            ("pid", Json.int trace_pid);
            ("tid", Json.int s.s_dom);
          ])
      r.slices
  in
  Trace_export.process_rows ~pid:trace_pid ~name:"rfh engine (wall clock)" domains
  @ region_events @ slice_events

(* An unresolved pause (ring never handshook) still renders, on a
   sentinel row, so nothing silently disappears from the trace. *)
let gc_unresolved_tid = 9999

let gc_trace_events ~base_ns r =
  match r.gc with
  | None -> []
  | Some g ->
    let pid = Trace_export.gc_pid in
    let rel ns = Clock.ns_to_us (Int64.sub (Int64.add r.epoch_ns (Int64.of_int ns)) base_ns) in
    let tid_of dom = if dom >= 0 then dom else gc_unresolved_tid in
    let tids =
      List.sort_uniq compare (List.map (fun (p : Gcprof.pause) -> tid_of p.gp_dom) g.c_pauses)
    in
    let pause_events =
      List.map
        (fun (p : Gcprof.pause) ->
          Json.Obj
            [
              ("name", Json.Str ("gc:" ^ Gcprof.kind_name p.gp_kind));
              ("cat", Json.Str ("gc." ^ Gcprof.kind_name p.gp_kind));
              ("ph", Json.Str "X");
              ("ts", Json.Num (rel p.gp_start_ns));
              ("dur", Json.Num (Clock.ns_to_us (Int64.of_int p.gp_dur_ns)));
              ("pid", Json.int pid);
              ("tid", Json.int (tid_of p.gp_dom));
              ("args", Json.Obj [ ("ring", Json.int p.gp_ring) ]);
            ])
        g.c_pauses
    in
    Trace_export.process_rows ~pid ~name:"rfh engine gc (wall clock)"
      ~thread:(fun tid ->
        if tid = gc_unresolved_tid then "unresolved" else Trace_export.domain_name tid)
      tids
    @ pause_events
