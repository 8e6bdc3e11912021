(* The sets reset at every strand start, so they hold only registers
   written since, a handful however large the kernel: each block's entry
   set is kept as an ascending run of register ids,
   [entries.(entry_start.(b) .. entry_start.(b + 1) - 1)], and nothing
   else is stored. *)
type t = {
  kernel : Ir.Kernel.t;
  partition : Partition.t;
  entry_start : int array;
  entries : int array;
}

(* Where [r] goes in the ascending run [a.(0 .. j - 1)]. *)
let rec slot a j (r : int) = if j > 0 && a.(j - 1) > r then slot a (j - 1) r else j

(* Inserts [r] into the ascending run of the first [n] ints of [!cur],
   growing the array when full; returns the new length. *)
let insert cur n r =
  let j = slot !cur n r in
  if j > 0 && !cur.(j - 1) = r then n
  else begin
    if n = Array.length !cur then begin
      let bigger = Array.make (2 * n) 0 in
      Array.blit !cur 0 bigger 0 n;
      cur := bigger
    end;
    let a = !cur in
    Array.blit a j a (j + 1) (n - j);
    a.(j) <- r;
    n + 1
  end

(* Is [r] in the ascending run [get lo .. get (hi - 1)]?  A binary
   search. *)
let rec mem_run get lo hi (r : int) =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  let x = get mid in
  x = r || if x < r then mem_run get (mid + 1) hi r else mem_run get lo mid r

let compute (k : Ir.Kernel.t) (cfg : Analysis.Cfg.t) (partition : Partition.t) =
  let nb = Ir.Kernel.block_count k in
  let starts i = Partition.starts_strand partition i.Ir.Instr.id in
  (* Every block's entry set as an ascending run, pushed in block order;
     the block being computed works in the first [n] ints of [!cur]. *)
  let entry_start = Array.make (nb + 1) 0 and entries = Util.Intbuf.create 64 in
  let cur = ref (Array.make 16 0) in
  let n = ref 0 in
  (* A computed block's exit set is not stored: it is what the block
     writes after its last strand start, plus, if it starts no strand,
     its entry set.  [load_exit p] puts it in [cur]; [in_exit p r]
     scans p back from its end, where a write of [r] answers yes and a
     strand start no. *)
  let load_exit p =
    let instrs = k.Ir.Kernel.blocks.(p).Ir.Block.instrs in
    let rec last_start j = if j < 0 || starts instrs.(j) then j else last_start (j - 1) in
    let s = last_start (Array.length instrs - 1) in
    if s < 0 then
      for j = entry_start.(p) to entry_start.(p + 1) - 1 do
        n := insert cur !n (Util.Intbuf.get entries j)
      done;
    for j = Int.max s 0 to Array.length instrs - 1 do
      match instrs.(j).Ir.Instr.dst with Some r -> n := insert cur !n r | None -> ()
    done
  in
  let in_exit p r =
    let instrs = k.Ir.Kernel.blocks.(p).Ir.Block.instrs in
    let rec back j =
      if j < 0 then mem_run (Util.Intbuf.get entries) entry_start.(p) entry_start.(p + 1) r
      else
        match instrs.(j).Ir.Instr.dst with
        | Some x when x = r -> true
        | Some _ | None -> (not (starts instrs.(j))) && back (j - 1)
    in
    back (Array.length instrs - 1)
  in
  (* Keeps the members of [cur] that block [p]'s exit set holds. *)
  let inter p =
    let a = !cur and kept = ref 0 in
    for i = 0 to !n - 1 do
      if in_exit p a.(i) then begin
        a.(!kept) <- a.(i);
        incr kept
      end
    done;
    n := !kept
  in
  for l = 0 to nb - 1 do
    let b = k.Ir.Kernel.blocks.(l) in
    n := 0;
    (* Strand context entering block l: does its first instruction start
       a strand?  Empty blocks inherit the incoming context.  A
       predecessor not yet computed (a back edge) contributes the empty
       set. *)
    let boundary_at_start =
      match Ir.Block.first_id b with
      | Some id -> Partition.starts_strand partition id
      | None -> false
    in
    if l > 0 && not boundary_at_start then begin
      let preds = List.filter (fun p -> cfg.Analysis.Cfg.rpo_index.(p) >= 0) cfg.Analysis.Cfg.preds.(l) in
      match preds with
      | [] -> ()
      | first :: rest ->
        if List.for_all (fun p -> p < l) preds then begin
          load_exit first;
          List.iter inter rest
        end
    end;
    for i = 0 to !n - 1 do
      Util.Intbuf.push entries !cur.(i)
    done;
    entry_start.(l + 1) <- Util.Intbuf.length entries
  done;
  { kernel = k; partition; entry_start; entries = Util.Intbuf.to_array entries }

(* Is [r] in block [b]'s entry run? *)
let at_entry t b r = mem_run (Array.get t.entries) t.entry_start.(b) t.entry_start.(b + 1) r

(* Walk back from [id] to the last strand start or write of [r] in
   [block]; the block's entry set answers if neither comes first.  A
   write at a strand's first instruction follows the reset. *)
let rec back t block r id =
  let k = t.kernel in
  if Partition.starts_strand t.partition id then false
  else if id = 0 || Ir.Kernel.block_of k (id - 1) <> block then at_entry t block r
  else
    match (Ir.Kernel.instr k (id - 1)).Ir.Instr.dst with
    | Some x when x = r -> true
    | Some _ | None -> back t block r (id - 1)

let must_defined_before t ~instr_id r =
  back t (Ir.Kernel.block_of t.kernel instr_id) r instr_id
