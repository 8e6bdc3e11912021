(* The rfh exit-code contract for bad inputs, end-to-end through the
   built binary: an unknown benchmark or artefact target, or a numeric
   flag out of range, prints one clean message naming it and exits 2 —
   never an uncaught exception. *)

let check = Alcotest.check
let rfh_exe = "../bin/rfh.exe"

let contains haystack needle =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Run the built binary; its exit code and combined output. *)
let run_rfh args =
  let out = Filename.temp_file "rfh_cli" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" rfh_exe args out) in
      (code, In_channel.with_open_text out In_channel.input_all))

let exits_2 (args, bad) () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let code, text = run_rfh args in
    check Alcotest.int "exit 2" 2 code;
    check Alcotest.bool "no uncaught exception" false (contains text "uncaught exception");
    check Alcotest.bool ("names the bad input: " ^ bad) true (contains text bad)
  end

(* [rfh compile] on a temporary assembly file holding [source]. *)
let compile_asm ~source ~code ~expect () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let asm = Filename.temp_file "rfh_cli" ".asm" in
    Fun.protect
      ~finally:(fun () -> Sys.remove asm)
      (fun () ->
        Out_channel.with_open_text asm (fun oc -> output_string oc source);
        let got, text = run_rfh ("compile " ^ Filename.quote asm) in
        check Alcotest.int "exit code" code got;
        check Alcotest.bool "no uncaught exception" false (contains text "uncaught exception");
        check Alcotest.bool ("prints: " ^ expect) true (contains text expect))
  end

(* [rfh selfcheck]: every benchmark kernel under all 24 hierarchy
   configurations (ORF sizes 1-8 x the three LRF modes) verifies. *)
let selfcheck () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let code, text = run_rfh "selfcheck" in
    check Alcotest.int "exit 0" 0 code;
    check Alcotest.string "summary" "selfcheck: 1464 placements verified, 0 failures\n" text
  end

(* Each case is the arguments and the text the message must contain. *)
let suite =
  List.map
    (fun (args, bad) -> Alcotest.test_case ("rfh " ^ args) `Quick (exits_2 (args, bad)))
    [
      ("fig2 -b nope", "nope");
      ("kernels nope", "nope");
      ("explain nope", "nope");
      ("engine nope", "nope");
      ("allocate mm --entries 0", "--entries 0");
      ("allocate mm --entries 99", "--entries 99");
      ("explain mm --entries 9", "--entries 9");
      ("profile -b mm --entries 0", "--entries 0");
      ("fig13 -b mm --warps 0", "--warps 0");
      ("baseline check --warps=-1", "--warps -1");
    ]
  @ [
      (* A parse error is bad input: exit 2, naming the line. *)
      Alcotest.test_case "rfh compile bad.asm" `Quick
        (compile_asm ~source:"entry:\n  mov %i\n  bogus.op %x, %i\n" ~code:2
           ~expect:"line 3: unknown mnemonic");
      (* No register traffic: nothing to save, not 100% saved. *)
      Alcotest.test_case "rfh compile empty.asm" `Quick
        (compile_asm ~source:"" ~code:0 ~expect:"energy: 1.000 (0.0% saved)");
      Alcotest.test_case "rfh selfcheck" `Quick selfcheck;
    ]
