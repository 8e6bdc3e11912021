(* The rfh exit-code contract for bad names, end-to-end through the
   built binary: an unknown benchmark or artefact target is a missing
   input, so it prints one clean message and exits 2 — never an
   uncaught exception. *)

let check = Alcotest.check
let rfh_exe = "../bin/rfh.exe"

let contains haystack needle =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let exits_2 args () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ()
  else begin
    let out = Filename.temp_file "rfh_cli" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" rfh_exe args out) in
        let text = In_channel.with_open_text out In_channel.input_all in
        check Alcotest.int "exit 2" 2 code;
        check Alcotest.bool "no uncaught exception" false (contains text "uncaught exception");
        check Alcotest.bool "names the bad input" true (contains text "nope"))
  end

let suite =
  List.map
    (fun args -> Alcotest.test_case ("rfh " ^ args) `Quick (exits_2 args))
    [ "fig2 -b nope"; "kernels nope"; "explain nope"; "engine nope" ]
