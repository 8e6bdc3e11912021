type t = {
  cores : int;
  os : string;
  ocaml : string;
  git_rev : string;
  git_dirty : bool;
}

(* ------------------------------------------------------------------ *)
(* Git state.  The revision comes from reading .git directly (HEAD,
   loose refs, packed-refs) so no subprocess is needed for it; the
   dirty flag does need `git diff` and degrades to false when the
   binary is unavailable.  Everything is best-effort: a run outside a
   checkout fingerprints as "unknown"/clean.                           *)

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> None

let rec find_repo_root dir =
  if Sys.file_exists (Filename.concat dir ".git") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_repo_root parent

let resolve_ref git_dir ref_name =
  match read_file (Filename.concat git_dir ref_name) with
  | Some s -> Some (String.trim s)
  | None -> (
    (* Loose ref absent: look in packed-refs ("<hex> <ref>" lines). *)
    match read_file (Filename.concat git_dir "packed-refs") with
    | None -> None
    | Some packed ->
      String.split_on_char '\n' packed
      |> List.find_map (fun line ->
             match String.index_opt line ' ' with
             | Some i when String.sub line (i + 1) (String.length line - i - 1) = ref_name ->
               Some (String.sub line 0 i)
             | _ -> None))

let git_rev_of root =
  let git_dir = Filename.concat root ".git" in
  match read_file (Filename.concat git_dir "HEAD") with
  | None -> None
  | Some head -> (
    let head = String.trim head in
    let prefix = "ref: " in
    if String.length head > String.length prefix
       && String.sub head 0 (String.length prefix) = prefix
    then resolve_ref git_dir (String.sub head 5 (String.length head - 5))
    else if head <> "" then Some head
    else None)

let short_rev rev = if String.length rev > 10 then String.sub rev 0 10 else rev

let git_dirty_of root =
  (* `git diff --quiet HEAD` exits 1 when tracked files changed; any
     other status (127 = no git, 128 = not a repo) reads as clean. *)
  Sys.command
    (Printf.sprintf "git -C %s diff --quiet HEAD >/dev/null 2>&1" (Filename.quote root))
  = 1

let collect () =
  let git_rev, git_dirty =
    match find_repo_root (Sys.getcwd ()) with
    | None -> ("unknown", false)
    | Some root ->
      ( (match git_rev_of root with Some rev -> rev | None -> "unknown"),
        git_dirty_of root )
  in
  {
    cores = Domain.recommended_domain_count ();
    os = Sys.os_type;
    ocaml = Sys.ocaml_version;
    git_rev;
    git_dirty;
  }

let cached = lazy (collect ())
let fingerprint () = Lazy.force cached

let utc_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* ------------------------------------------------------------------ *)
(* Codec.                                                              *)

let codec =
  Json.(
    obj (fun cores os ocaml git_rev git_dirty -> { cores; os; ocaml; git_rev; git_dirty })
    |> req "cores" integer (fun h -> h.cores)
    |> req "os" str (fun h -> h.os)
    |> req "ocaml" str (fun h -> h.ocaml)
    |> req "git_rev" str (fun h -> h.git_rev)
    |> req "git_dirty" bool (fun h -> h.git_dirty)
    |> seal)
