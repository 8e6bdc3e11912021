type t = {
  num_entries : int;
  reservations : (int * int) list array;  (* per entry, unordered disjoint intervals *)
}

let create ~entries =
  if entries < 0 then invalid_arg "Occupancy.create";
  { num_entries = entries; reservations = Array.make (max entries 1) [] }

let entries t = t.num_entries

(* Half-open interval overlap. *)
let overlaps ((a1 : int), (a2 : int)) (b1, b2) = a1 < b2 && b1 < a2

let available t ~entry ~first ~last =
  entry >= 0 && entry < t.num_entries && first < last
  && List.for_all (fun iv -> not (overlaps (first, last) iv)) t.reservations.(entry)

let reserve t ~entry ~first ~last =
  if not (available t ~entry ~first ~last) then
    invalid_arg
      (Printf.sprintf "Occupancy.reserve: entry %d interval [%d, %d] unavailable" entry first last);
  t.reservations.(entry) <- (first, last) :: t.reservations.(entry)

let find_free t ~width ~first ~last =
  if width < 1 then invalid_arg "Occupancy.find_free: width < 1";
  let fits e =
    let rec all w = w = width || (available t ~entry:(e + w) ~first ~last && all (w + 1)) in
    all 0
  in
  let rec search e = if e + width > t.num_entries then None else if fits e then Some e else search (e + 1) in
  search 0

let reserve_range t ~entry ~width ~first ~last =
  for w = 0 to width - 1 do
    reserve t ~entry:(entry + w) ~first ~last
  done
