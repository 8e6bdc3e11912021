type read = { read_instr : int; slot : int }

type instance = {
  def : int;
  reg : Ir.Reg.t;
  reads : read list;
  group : int;
}

type t = {
  instance_list : instance list;
  by_def : instance option array;       (* by instr id *)
  by_group : instance list array;       (* by group id (a def's instr id) *)
  inputs : (Ir.Reg.t * read list) list;
  multi_read_defs : bool array;         (* by instr id: def with a shared read *)
}

let compute (k : Ir.Kernel.t) (reaching : Reaching.t) =
  let ni = Ir.Kernel.instr_count k in
  let reads_of_def = Array.make ni [] in
  let input_reads = Array.make k.Ir.Kernel.num_regs [] in
  let multi = Array.make ni false in
  (* Union-find over definition ids; the first operand of a union keeps
     its root, so group ids are the same whatever the path compression. *)
  let parent = Array.init ni Fun.id in
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
  Ir.Kernel.iter_instrs k (fun _ i ->
      let id = i.Ir.Instr.id in
      List.iteri
        (fun slot r ->
          let read = { read_instr = id; slot } in
          match Reaching.reaching_operand reaching ~instr_id:id ~slot with
          | [] -> input_reads.(r) <- read :: input_reads.(r)
          | [ d ] -> reads_of_def.(d) <- read :: reads_of_def.(d)
          | d :: _ as ds ->
            List.iter
              (fun d' ->
                union d d';
                multi.(d') <- true;
                reads_of_def.(d') <- read :: reads_of_def.(d'))
              ds)
        i.Ir.Instr.srcs);
  (* Walk the definitions backwards so every list comes out in layout
     order. *)
  let by_def = Array.make ni None in
  let by_group = Array.make ni [] in
  let instance_list = ref [] in
  for def = ni - 1 downto 0 do
    match (Ir.Kernel.instr k def).Ir.Instr.dst with
    | None -> ()
    | Some reg ->
      let group = find def in
      let inst = { def; reg; reads = List.rev reads_of_def.(def); group } in
      by_def.(def) <- Some inst;
      by_group.(group) <- inst :: by_group.(group);
      instance_list := inst :: !instance_list
  done;
  let inputs = ref [] in
  for r = Array.length input_reads - 1 downto 0 do
    if input_reads.(r) <> [] then inputs := (r, List.rev input_reads.(r)) :: !inputs
  done;
  {
    instance_list = !instance_list;
    by_def;
    by_group;
    inputs = !inputs;
    multi_read_defs = multi;
  }

let in_range a i = i >= 0 && i < Array.length a
let instances t = t.instance_list
let instance_of_def t d = if in_range t.by_def d then t.by_def.(d) else None
let group_members t g = if in_range t.by_group g then t.by_group.(g) else []
let input_reads t = t.inputs
let reads_of_instance_multi t inst = t.multi_read_defs.(inst.def)
