(* Flat int tables, indexed by instruction id.  A read is coded as its
   operand index [read_instr * num_slots + slot].  The reads of def d are
   [reads.(read_start.(d) .. read_start.(d + 1) - 1)] and the members of
   group g are [members.(member_start.(g) .. member_start.(g + 1) - 1)],
   both in layout order. *)
type t = {
  group_of : int array;  (* group id of a def, -1 for an instruction with no result *)
  read_start : int array;
  reads : int array;
  member_start : int array;
  members : int array;
}

let operand ~instr_id ~slot = (instr_id * Ir.Instr.num_slots) + slot

(* Turns per-index counts in [start.(i + 1)] into offsets: afterwards
   index i's range begins at [start.(i)]. *)
let prefix_sum start =
  for i = 1 to Array.length start - 1 do
    start.(i) <- start.(i) + start.(i - 1)
  done

(* Fills a counted CSR in one more pass: [start.(i)] serves as index i's
   cursor, which leaves it at index i + 1's offset, so the offsets are
   shifted back once the pass is done. *)
let fill_csr start data visit =
  visit (fun i x ->
      data.(start.(i)) <- x;
      start.(i) <- start.(i) + 1);
  Array.blit start 0 start 1 (Array.length start - 1);
  start.(0) <- 0

let compute (k : Ir.Kernel.t) (reaching : Reaching.t) =
  let ni = Ir.Kernel.instr_count k in
  (* Union-find over definition ids, in [group_of] until every def's
     root is known; the first operand of a union keeps its root, so
     group ids are the same whatever the path compression. *)
  let group_of = Array.init ni Fun.id in
  let parent = group_of in
  let rec find x =
    let p = parent.(x) in
    if p = x then x
    else begin
      let root = find p in
      parent.(x) <- root;
      root
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(rb) <- ra
  in
  (* Every (def, read) pair in layout order of the reads. *)
  let each_read f =
    Array.iter
      (fun (i : Ir.Instr.t) ->
        let id = i.Ir.Instr.id in
        for slot = 0 to List.length i.Ir.Instr.srcs - 1 do
          for n = 0 to Reaching.num_reaching reaching ~instr_id:id ~slot - 1 do
            f (Reaching.nth_reaching reaching ~instr_id:id ~slot n) (operand ~instr_id:id ~slot)
          done
        done)
      k.Ir.Kernel.instrs
  in
  (* Count each def's reads; a read reached by several defs unions them. *)
  let read_start = Array.make (ni + 1) 0 in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      let id = i.Ir.Instr.id in
      for slot = 0 to List.length i.Ir.Instr.srcs - 1 do
        let n = Reaching.num_reaching reaching ~instr_id:id ~slot in
        for j = 0 to n - 1 do
          let d' = Reaching.nth_reaching reaching ~instr_id:id ~slot j in
          if n > 1 then union (Reaching.nth_reaching reaching ~instr_id:id ~slot 0) d';
          read_start.(d' + 1) <- read_start.(d' + 1) + 1
        done
      done)
    k.Ir.Kernel.instrs;
  prefix_sum read_start;
  let reads = Array.make read_start.(ni) 0 in
  fill_csr read_start reads each_read;
  (* Groups: every def's root (no find passes an instruction with no
     result, which is marked -1), then the members of each, in layout
     order. *)
  let member_start = Array.make (ni + 1) 0 in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      let id = i.Ir.Instr.id in
      if Option.is_some i.Ir.Instr.dst then begin
        let g = find id in
        group_of.(id) <- g;
        member_start.(g + 1) <- member_start.(g + 1) + 1
      end
      else group_of.(id) <- -1)
    k.Ir.Kernel.instrs;
  prefix_sum member_start;
  let members = Array.make member_start.(ni) 0 in
  fill_csr member_start members (fun f ->
      for d = 0 to ni - 1 do
        if group_of.(d) >= 0 then f group_of.(d) d
      done);
  { group_of; read_start; reads; member_start; members }

let in_range t i = i >= 0 && i < Array.length t.group_of
let is_def t d = in_range t d && t.group_of.(d) >= 0
let group_of t d = t.group_of.(d)
let num_reads t d = t.read_start.(d + 1) - t.read_start.(d)
let read_operand t d n = t.reads.(t.read_start.(d) + n)
let group_size t g = t.member_start.(g + 1) - t.member_start.(g)
let group_member t g n = t.members.(t.member_start.(g) + n)
