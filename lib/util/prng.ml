type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* Inlined so its callers keep their int64s unboxed: a call boxes its
   argument and its result, which would cost [hash2] six words, and
   [Sim.Cf] twelve per probabilistic branch it resolves. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = next_int64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the conversion to OCaml's 63-bit int stays
     non-negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 significant bits, as in the standard doubles-from-int64 recipe. *)
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let weighted_pick t choices =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 choices in
  if total <= 0.0 then invalid_arg "Prng.weighted_pick: no positive weight";
  let x = float t total in
  let rec go acc = function
    | [] -> invalid_arg "Prng.weighted_pick: empty list"
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if x < acc +. w then v else go (acc +. w) rest
  in
  go 0.0 choices

let hash2 a b =
  let h = mix64 (Int64.add (Int64.of_int a) (Int64.mul (Int64.of_int b) golden_gamma)) in
  Int64.to_int (Int64.shift_right_logical h 2)
