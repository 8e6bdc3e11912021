let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let logs = List.map log xs in
    exp (mean logs)

let percent part whole = if whole = 0.0 then 0.0 else 100.0 *. part /. whole

let ratio a b = if b = 0.0 then 0.0 else a /. b

let clamp ~lo ~hi (x : float) = if x < lo then lo else if x > hi then hi else x

let round_to d x =
  let m = 10.0 ** float_of_int d in
  Float.round (x *. m) /. m

type histogram = (int, int ref) Hashtbl.t

let histogram () : histogram = Hashtbl.create 16

let hincr h ?(by = 1) key =
  match Hashtbl.find_opt h key with
  | Some r -> r := !r + by
  | None -> Hashtbl.add h key (ref by)

let hcount h key = match Hashtbl.find_opt h key with Some r -> !r | None -> 0

let htotal h = Hashtbl.fold (fun _ r acc -> acc + !r) h 0

let hbins h =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) h [])

let hfraction h pred =
  let total = htotal h in
  if total = 0 then 0.0
  else begin
    let matching = Hashtbl.fold (fun k r acc -> if pred k then acc + !r else acc) h 0 in
    float_of_int matching /. float_of_int total
  end
