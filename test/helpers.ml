(* Substring helpers shared by the suites that inspect rendered text
   and HTML pages. *)

(* Offset of the first occurrence of [needle] in [s] at or after [from]. *)
let find_sub ?(from = 0) s needle =
  let n = String.length needle and len = String.length s in
  let rec go i = if i + n > len then None else if String.sub s i n = needle then Some i else go (i + 1) in
  go from

(* Number of (possibly overlapping) occurrences of [needle] in [s]. *)
let count_sub s needle =
  let rec go from acc =
    match find_sub ~from s needle with None -> acc | Some i -> go (i + 1) (acc + 1)
  in
  go 0 0
