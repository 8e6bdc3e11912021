(* Assembly front-end tests: parsing, error reporting, and printer
   round-trips. *)

let check = Alcotest.check

let saxpy_src =
  {|
.kernel saxpy
// kernel parameters: %a %base (never written)
entry:
  mov        %i
loop:
  shl.b32    %off, %i
  add.s32    %addr, %base, %off
  ld.global  %x, %addr
  fma.f32    %acc, %a, %x, %acc   # accumulate
  st.global  %addr, %acc
  setp       %p, %i
  br %p, loop, loop=8
exit:
  ret
|}

let test_parse_saxpy () =
  match Ir.Asm.parse ~name:"t" saxpy_src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok k ->
    check Alcotest.string "name from directive" "saxpy" k.Ir.Kernel.name;
    check Alcotest.int "3 blocks" 3 (Ir.Kernel.block_count k);
    check Alcotest.int "8 instructions" 8 (Ir.Kernel.instr_count k);
    (* The loop branch resolves backwards to block 1. *)
    (match k.Ir.Kernel.blocks.(1).Ir.Block.term with
     | Ir.Terminator.Branch { target = 1; behavior = Ir.Terminator.Loop 8 } -> ()
     | _ -> Alcotest.fail "loop terminator mismatch")

let test_parse_pipeline () =
  (* The parsed kernel flows through the whole pipeline. *)
  let k = Ir.Asm.parse_exn ~name:"t" saxpy_src in
  let ctx = Alloc.Context.create k in
  let config = Alloc.Config.make () in
  let placement = Alloc.Allocator.place config ctx in
  (match Alloc.Verify.check config ctx placement with
   | Ok () -> ()
   | Error e -> Alcotest.failf "verify: %s" (String.concat "; " e));
  let r = Sim.Traffic.run ~warps:2 ctx (Sim.Traffic.Sw { config; placement }) in
  check Alcotest.bool "executes" true (r.Sim.Traffic.dynamic_instrs > 0)

let test_parse_wide () =
  let k =
    Ir.Asm.parse_exn ~name:"t"
      {|
  ld.global.wide64 %v, %addr
  st.global %addr, %v
|}
  in
  check Alcotest.bool "wide width" true
    ((Ir.Kernel.instr k 0).Ir.Instr.width = Ir.Width.W64)

let test_parse_errors () =
  let is_error src =
    match Ir.Asm.parse ~name:"t" src with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "unknown mnemonic" true (is_error "frobnicate %a, %b");
  check Alcotest.bool "missing dst" true (is_error "add.s32");
  check Alcotest.bool "bad operand" true (is_error "add.s32 r1, r2, r3");
  check Alcotest.bool "bad store arity" true (is_error "st.global %a");
  check Alcotest.bool "code after ret" true (is_error "ret\nmov %x");
  check Alcotest.bool "unplaced label" true (is_error "mov %p\nbr %p, nowhere, always\nend:\nret");
  check Alcotest.bool "bad branch attr" true (is_error "mov %p\nbr %p, end, sometimes\nend:\nret");
  check Alcotest.bool "forward loop branch" true
    (is_error "mov %p\nbr %p, end, loop=4\nend:\nret")

let test_parse_line_numbers () =
  match Ir.Asm.parse ~name:"t" "mov %x\nmov %y\nbogus %z" with
  | Ok _ -> Alcotest.fail "accepted bogus"
  | Error msg ->
    check Alcotest.bool "line 3 reported" true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 3:")

let test_roundtrip_idempotent () =
  (* Parsing renumbers registers by first appearance, so one
     parse/print pass normalizes; after that the representation is a
     fixpoint, and structure is always preserved. *)
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let k = Lazy.force e.Workloads.Registry.kernel in
      let src = Ir.Asm.to_source k in
      match Ir.Asm.parse ~name:k.Ir.Kernel.name src with
      | Error msg -> Alcotest.failf "%s: reparse failed: %s" e.Workloads.Registry.name msg
      | Ok k2 ->
        check Alcotest.int
          (e.Workloads.Registry.name ^ " instr count")
          (Ir.Kernel.instr_count k) (Ir.Kernel.instr_count k2);
        check Alcotest.int
          (e.Workloads.Registry.name ^ " block count")
          (Ir.Kernel.block_count k) (Ir.Kernel.block_count k2);
        let normalized = Ir.Asm.to_source k2 in
        let k3 = Ir.Asm.parse_exn ~name:k.Ir.Kernel.name normalized in
        check Alcotest.string
          (e.Workloads.Registry.name ^ " fixpoint")
          normalized (Ir.Asm.to_source k3))
    (Workloads.Registry.all ())

let prop_roundtrip_random =
  QCheck.Test.make ~count:80 ~name:"asm round-trip on random kernels"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 50_000))
    (fun seed ->
      let k = Workloads.Generator.kernel ~size:8 ~seed () in
      let src = Ir.Asm.to_source k in
      match Ir.Asm.parse ~name:k.Ir.Kernel.name src with
      | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg
      | Ok k2 ->
        let normalized = Ir.Asm.to_source k2 in
        let k3 = Ir.Asm.parse_exn ~name:k.Ir.Kernel.name normalized in
        Ir.Kernel.instr_count k = Ir.Kernel.instr_count k2
        && Ir.Kernel.block_count k = Ir.Kernel.block_count k2
        && Ir.Asm.to_source k3 = normalized)

(* Mutated sources: the printed text of every registry kernel and of
   small generated ones, with one truncation, one flipped byte, or one
   dropped or duplicated line.  The parser must return rather than
   raise; a kernel that parses (unreachable or empty blocks, reads of
   registers never written, dangling labels and all) must go through
   the analyses, the allocator under two configs and the verifier
   without raising.  A rejected placement is a verdict, not a failure. *)
let mutation_sources =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (e : Workloads.Registry.entry) ->
            List.map Ir.Asm.to_source (Lazy.force e.Workloads.Registry.kernels))
          (Workloads.Registry.all ())
       @ List.init 40 (fun seed ->
             Ir.Asm.to_source (Workloads.Generator.kernel ~size:6 ~seed ()))))

type mutation = Truncate | Flip of int | Drop_line | Dup_line

let mutate src m pos =
  let lines () = String.split_on_char '\n' src in
  let edit_line f =
    let ls = lines () in
    let at = pos mod List.length ls in
    String.concat "\n" (List.concat (List.mapi (fun i l -> if i = at then f l else [ l ]) ls))
  in
  match m with
  | Truncate -> String.sub src 0 (pos mod (String.length src + 1))
  | Flip x ->
    let b = Bytes.of_string src in
    let at = pos mod Bytes.length b in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor x));
    Bytes.to_string b
  | Drop_line -> edit_line (fun _ -> [])
  | Dup_line -> edit_line (fun l -> [ l; l ])

let show_mutation = function
  | Truncate -> "truncate"
  | Flip x -> Printf.sprintf "flip 0x%02x" x
  | Drop_line -> "drop line"
  | Dup_line -> "duplicate line"

let prop_mutated_asm_never_raises =
  let gen =
    QCheck.Gen.(
      triple (int_bound 100_000)
        (oneof
           [
             return Truncate;
             map (fun x -> Flip x) (int_range 1 255);
             return Drop_line;
             return Dup_line;
           ])
        (int_bound 1_000_000))
  in
  QCheck.Test.make ~count:2000 ~name:"mutated asm parses or errors, and compiles without raising"
    (QCheck.make
       ~print:(fun (src, m, pos) -> Printf.sprintf "source %d, %s at %d" src (show_mutation m) pos)
       gen)
    (fun (src, m, pos) ->
      let sources = Lazy.force mutation_sources in
      match Ir.Asm.parse ~name:"mutant" (mutate sources.(src mod Array.length sources) m pos) with
      | Error _ -> true
      | Ok k ->
        let ctx = Alloc.Context.create k in
        List.iter
          (fun config ->
            ignore (Alloc.Verify.check config ctx (fst (Alloc.Allocator.run config ctx))))
          [ Alloc.Config.make (); Alloc.Config.make ~orf_entries:1 ~lrf:Alloc.Config.No_lrf () ];
        true)

let suite =
  [
    Alcotest.test_case "parse saxpy" `Quick test_parse_saxpy;
    Alcotest.test_case "parsed kernel compiles" `Quick test_parse_pipeline;
    Alcotest.test_case "wide loads" `Quick test_parse_wide;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "line numbers" `Quick test_parse_line_numbers;
    Alcotest.test_case "round-trip benchmarks" `Quick test_roundtrip_idempotent;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2 |]) prop_mutated_asm_never_raises;
  ]
