(* Bit [i] is bit [i mod word_bits] of [words.(i / word_bits)]: every
   bit of an OCaml int, so a word holds 63 of them.  Bits at or past
   [capacity] in the last word are always zero, which lets [equal],
   [is_empty] and [count] work a word at a time. *)
type t = { words : int array; capacity : int }

let word_bits = 63

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((capacity + word_bits - 1) / word_bits) 0; capacity }

let capacity t = t.capacity

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let check t i =
  if i < 0 || i >= t.capacity then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0, %d)" i t.capacity)

let set t i =
  check t i;
  let w = i / word_bits in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl (i mod word_bits)))

let clear t i =
  check t i;
  let w = i / word_bits in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w land lnot (1 lsl (i mod word_bits)))

let mem t i =
  check t i;
  Array.unsafe_get t.words (i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let check_same a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

(* One loop for the three in-place operators: the operator is a
   constant constructor matched per word, not a closure call. *)
type op = Or | And | Andnot

let combine_into op ~dst src =
  check_same dst src;
  let d = dst.words and s = src.words in
  let changed = ref false in
  for w = 0 to Array.length d - 1 do
    let x = Array.unsafe_get d w and y = Array.unsafe_get s w in
    let r = match op with Or -> x lor y | And -> x land y | Andnot -> x land lnot y in
    if r <> x then begin
      changed := true;
      Array.unsafe_set d w r
    end
  done;
  !changed

let union_into ~dst src = combine_into Or ~dst src
let inter_into ~dst src = combine_into And ~dst src
let diff_into ~dst src = combine_into Andnot ~dst src

let equal a b =
  a.capacity = b.capacity
  &&
  let rec from w =
    w < 0 || (Array.unsafe_get a.words w = Array.unsafe_get b.words w && from (w - 1))
  in
  from (Array.length a.words - 1)

let is_empty t =
  let rec from w = w < 0 || (Array.unsafe_get t.words w = 0 && from (w - 1)) in
  from (Array.length t.words - 1)

let fill_all t =
  let n = Array.length t.words in
  Array.fill t.words 0 n (-1);
  (* Zero the bits past capacity so equal/is_empty/count stay exact. *)
  let tail = t.capacity mod word_bits in
  if tail <> 0 then t.words.(n - 1) <- (1 lsl tail) - 1

let clear_all t = Array.fill t.words 0 (Array.length t.words) 0

(* Ascending order; zero words are skipped whole. *)
let iter t f =
  for w = 0 to Array.length t.words - 1 do
    let x = ref (Array.unsafe_get t.words w) and i = ref (w * word_bits) in
    while !x <> 0 do
      if !x land 1 <> 0 then f !i;
      x := !x lsr 1;
      incr i
    done
  done

let elements t =
  let acc = ref [] in
  iter t (fun i -> acc := i :: !acc);
  List.rev !acc

(* SWAR popcount of one 63-bit word: pairs, nibbles and bytes are
   summed in place, then one multiply gathers the byte sums into the
   top byte.  Bit 62 (the sign bit) falls in the top pair, whose upper
   half is absent, so the 64-bit masks trimmed to 63 bits stay exact. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let count t =
  let n = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    n := !n + popcount (Array.unsafe_get t.words w)
  done;
  !n
