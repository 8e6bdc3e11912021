type violation = { path : string; kind : string; expected : string; actual : string }

type report = { violations : violation list; compared : int }

let ok r = r.violations = []

(* ------------------------------------------------------------------ *)
(* Path policy.                                                        *)

(* [options.jobs] is how the run was parallelised, not what it
   computed; a check at --jobs 4 must pass against a --jobs 1
   baseline.  The manifest [meta] section (schema v3) is the host
   fingerprint — provenance, not results: a baseline recorded on one
   machine must check cleanly on another, so the whole subtree is
   skipped, including keys present on only one side. *)
let ignored_path path =
  path = "options.jobs" || path = "meta"
  || (String.length path >= 5 && String.sub path 0 5 = "meta.")

let is_timing_path path =
  let suffix = ".total_ms" in
  let n = String.length path and k = String.length suffix in
  path = "total_ms" || (n >= k && String.sub path (n - k) k = suffix)

(* Array elements are addressed by their "name"/"phase" member when
   present ("benches[VectorAdd]") so a reordering reads as the moves it
   is, not as a wall of value mismatches at shifted indices. *)
let elem_label v =
  let str name = Option.bind (Json.member name v) Json.to_str in
  match str "name" with Some s -> Some s | None -> str "phase"

let join path seg = if path = "" then seg else path ^ "." ^ seg

let join_index path i v =
  let seg = match elem_label v with Some s -> s | None -> string_of_int i in
  Printf.sprintf "%s[%s]" path seg

(* ------------------------------------------------------------------ *)
(* Value rendering for the violations table.                           *)

let render = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Num _ as v -> Json.to_string v
  | Json.Str s -> s
  | Json.Arr l -> Printf.sprintf "<array of %d>" (List.length l)
  | Json.Obj l -> Printf.sprintf "<object of %d>" (List.length l)

let type_name = function
  | Json.Null -> "null"
  | Json.Bool _ -> "bool"
  | Json.Num _ -> "number"
  | Json.Str _ -> "string"
  | Json.Arr _ -> "array"
  | Json.Obj _ -> "object"

(* ------------------------------------------------------------------ *)
(* Diff.                                                               *)

let is_integral f = Float.is_integer f && Float.abs f < 1e15

let rel_delta a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  if scale = 0.0 then 0.0 else Float.abs (a -. b) /. scale

let diff_json ?(float_tol = 1e-9) ?timing_tol ~baseline ~current () =
  let violations = ref [] and compared = ref 0 in
  let violate path kind expected actual =
    violations := { path; kind; expected; actual } :: !violations
  in
  let rec go path a b =
    if not (ignored_path path) then
      match (a, b) with
      | Json.Num x, Json.Num y when is_timing_path path -> (
        match timing_tol with
        | None -> ()
        | Some tol ->
          incr compared;
          if rel_delta x y > tol then
            violate path
              (Printf.sprintf "timing drift > %g" tol)
              (render a) (render b))
      | Json.Num x, Json.Num y ->
        incr compared;
        if is_integral x && is_integral y then begin
          if x <> y then violate path "count mismatch" (render a) (render b)
        end
        else if rel_delta x y > float_tol then
          violate path
            (Printf.sprintf "value drift > %g" float_tol)
            (render a) (render b)
      | Json.Str x, Json.Str y ->
        incr compared;
        if x <> y then violate path "string mismatch" x y
      | Json.Bool x, Json.Bool y ->
        incr compared;
        if x <> y then violate path "bool mismatch" (render a) (render b)
      | Json.Null, Json.Null -> incr compared
      | Json.Arr xs, Json.Arr ys ->
        let nx = List.length xs and ny = List.length ys in
        if nx <> ny then
          violate path "array length mismatch" (string_of_int nx) (string_of_int ny)
        else
          List.iteri (fun i (x, y) -> go (join_index path i x) x y)
            (List.combine xs ys)
      | Json.Obj xs, Json.Obj ys ->
        List.iter
          (fun (k, x) ->
            match List.assoc_opt k ys with
            | Some y -> go (join path k) x y
            | None ->
              if not (ignored_path (join path k)) then
                violate (join path k) "missing in current" (render x) "-")
          xs;
        List.iter
          (fun (k, y) ->
            if (not (List.mem_assoc k xs)) && not (ignored_path (join path k)) then
              violate (join path k) "extra in current" "-" (render y))
          ys
      | _ ->
        violate path "type mismatch" (type_name a) (type_name b)
  in
  go "" baseline current;
  { violations = List.rev !violations; compared = !compared }

(* A manifest file stores floats as [Json] prints them, to 12
   significant digits.  Both sides go through one encode/decode round
   trip, so a fresh run is compared at the precision its baseline file
   holds, and a tolerance of 0 passes on an unchanged tree. *)
let as_stored m =
  match Json.parse (Json.to_string (Manifest.to_json m)) with
  | Ok j -> j
  | Error msg -> invalid_arg ("Regress.diff: manifest JSON does not re-parse: " ^ msg)

let diff ?float_tol ?timing_tol ~baseline ~current () =
  diff_json ?float_tol ?timing_tol ~baseline:(as_stored baseline) ~current:(as_stored current) ()

let to_table r =
  let title =
    if ok r then Printf.sprintf "Regression check: OK (%d values compared)" r.compared
    else
      Printf.sprintf "Regression check: %d violation%s (%d values compared)"
        (List.length r.violations)
        (if List.length r.violations = 1 then "" else "s")
        r.compared
  in
  let table = Util.Table.create ~title ~columns:[ "path"; "kind"; "baseline"; "current" ] in
  List.iter (fun v -> Util.Table.add_row table [ v.path; v.kind; v.expected; v.actual ])
    r.violations;
  table

let to_json r =
  Json.Obj
    [
      ("ok", Json.Bool (ok r));
      ("compared", Json.int r.compared);
      ( "violations",
        Json.Arr
          (List.map
             (fun v ->
               Json.Obj
                 [
                   ("path", Json.Str v.path);
                   ("kind", Json.Str v.kind);
                   ("expected", Json.Str v.expected);
                   ("actual", Json.Str v.actual);
                 ])
             r.violations) );
    ]
