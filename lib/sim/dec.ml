(* One pass over the kernel turns every per-issue record chase of the
   cycle loops into an int-array index: operand lists, op properties
   and the compiler's strand-start bit are all resolved here, once, so
   [Perf]/[Traffic] steady state never touches an [Ir.Instr.t] or calls
   back into [Strand.Partition].  Source operands are stored in two
   forms: positional (placement lookups are by operand slot) and
   deduplicated (bank-conflict counting is over distinct registers). *)

let max_srcs = Ir.Instr.num_slots

type t = {
  kernel : Ir.Kernel.t;
  num_instrs : int;
  num_regs : int;
  unit_of : int array;        (* Ir.Op.unit_class as 0..3 (Alu first) *)
  latency : int array;
  issue_cycles : int array;
  dst : int array;            (* destination register, -1 = none *)
  is_ll : bool array;         (* long-latency op producing a result *)
  shared_dp : bool array;     (* Ir.Op.is_shared_datapath *)
  starts_strand : bool array; (* Strand.Partition.starts_strand *)
  nsrcs : int array;
  srcs : int array;           (* [id * max_srcs + pos], -1 padded *)
  nuniq : int array;
  uniq : int array;           (* distinct sources, same layout *)
}

let unit_index op =
  match Ir.Op.unit_class op with Ir.Op.Alu -> 0 | Ir.Op.Sfu -> 1 | Ir.Op.Mem -> 2 | Ir.Op.Tex -> 3

let of_context (ctx : Alloc.Context.t) =
  let k = ctx.Alloc.Context.kernel and partition = ctx.Alloc.Context.partition in
  let ni = Ir.Kernel.instr_count k in
  let t =
    {
      kernel = k;
      num_instrs = ni;
      num_regs = k.Ir.Kernel.num_regs;
      unit_of = Array.make ni 0;
      latency = Array.make ni 0;
      issue_cycles = Array.make ni 0;
      dst = Array.make ni (-1);
      is_ll = Array.make ni false;
      shared_dp = Array.make ni false;
      starts_strand = Array.make ni false;
      nsrcs = Array.make ni 0;
      srcs = Array.make (ni * max_srcs) (-1);
      nuniq = Array.make ni 0;
      uniq = Array.make (ni * max_srcs) (-1);
    }
  in
  Array.iteri
    (fun id (i : Ir.Instr.t) ->
      let op = i.Ir.Instr.op in
      t.unit_of.(id) <- unit_index op;
      t.latency.(id) <- Ir.Op.latency op;
      t.issue_cycles.(id) <- Ir.Op.issue_cycles op;
      t.shared_dp.(id) <- Ir.Op.is_shared_datapath op;
      (match i.Ir.Instr.dst with
       | Some d ->
         t.dst.(id) <- d;
         t.is_ll.(id) <- Ir.Op.is_long_latency op
       | None -> ());
      t.starts_strand.(id) <- Strand.Partition.starts_strand partition id;
      List.iteri
        (fun pos r ->
          t.srcs.((id * max_srcs) + pos) <- r;
          t.nsrcs.(id) <- t.nsrcs.(id) + 1)
        i.Ir.Instr.srcs;
      (* Distinct sources, preserving nothing but the multiset — the
         conflict count only cares how many land in each bank. *)
      for pos = 0 to t.nsrcs.(id) - 1 do
        let r = t.srcs.((id * max_srcs) + pos) in
        let dup = ref false in
        for q = 0 to t.nuniq.(id) - 1 do
          if t.uniq.((id * max_srcs) + q) = r then dup := true
        done;
        if not !dup then begin
          t.uniq.((id * max_srcs) + t.nuniq.(id)) <- r;
          t.nuniq.(id) <- t.nuniq.(id) + 1
        end
      done)
    k.Ir.Kernel.instrs;
  t

(* Same-bank distinct sources serialize their extra operand fetches;
   re-reads of one register broadcast.  [bank_counts] is a caller-owned
   scratch array of at least [banks] zeros; it is left zeroed again. *)
let conflict_extra t ~banks ~bank_counts id =
  let base = id * max_srcs in
  let m = ref 0 in
  for q = 0 to t.nuniq.(id) - 1 do
    let bank = t.uniq.(base + q) mod banks in
    let n = bank_counts.(bank) + 1 in
    bank_counts.(bank) <- n;
    if n > !m then m := n
  done;
  for q = 0 to t.nuniq.(id) - 1 do
    bank_counts.(t.uniq.(base + q) mod banks) <- 0
  done;
  if !m > 1 then !m - 1 else 0
