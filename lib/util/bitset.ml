(* Bit [i] is bit [i mod word_bits] of [words.(i / word_bits)]: every
   bit of an OCaml int, so a word holds 63 of them.  Bits at or past
   [capacity] in the last word are always zero, which lets [equal] and
   [count] work a word at a time. *)
type t = { words : int array; capacity : int }

let word_bits = 63

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((capacity + word_bits - 1) / word_bits) 0; capacity }

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

(* One loop for every in-place operator, over [n] words of [d] from
   [doff] and of [s] from [soff] (a set is a row at offset 0): the
   operator is a constant constructor matched per word, not a closure
   call. *)
type op = Or | And | Andnot | Copy

let combine op d doff s soff n =
  let changed = ref false in
  for w = 0 to n - 1 do
    let x = Array.unsafe_get d (doff + w) and y = Array.unsafe_get s (soff + w) in
    let r = match op with Or -> x lor y | And -> x land y | Andnot -> x land lnot y | Copy -> y in
    if r <> x then begin
      changed := true;
      Array.unsafe_set d (doff + w) r
    end
  done;
  !changed

let union_into ~dst src =
  check_same dst src;
  combine Or dst.words 0 src.words 0 (Array.length dst.words)

let equal a b =
  a.capacity = b.capacity
  &&
  let rec from w =
    w < 0 || (Array.unsafe_get a.words w = Array.unsafe_get b.words w && from (w - 1))
  in
  from (Array.length a.words - 1)

let fill_all t =
  let n = Array.length t.words in
  Array.fill t.words 0 n (-1);
  (* Zero the bits past capacity so equal/count stay exact. *)
  let tail = t.capacity mod word_bits in
  if tail <> 0 then t.words.(n - 1) <- (1 lsl tail) - 1

let clear_all t = Array.fill t.words 0 (Array.length t.words) 0

(* Members in ascending order; zero words are skipped whole. *)
let iter t f =
  for w = 0 to Array.length t.words - 1 do
    let x = ref (Array.unsafe_get t.words w) and i = ref (w * word_bits) in
    while !x <> 0 do
      if !x land 1 <> 0 then f !i;
      x := !x lsr 1;
      incr i
    done
  done

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

(* A matrix is [rows] rows of [cols] bits, each row [stride] words at
   [r * stride] of one array: the same layout as a set, so a row and a
   set of the same capacity combine word for word. *)
type matrix = { cells : int array; rows : int; cols : int; stride : int }

let matrix ~rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Bitset.matrix";
  let stride = (cols + word_bits - 1) / word_bits in
  { cells = Array.make (rows * stride) 0; rows; cols; stride }

let cols m = m.cols

let check_cell m r i =
  if r < 0 || r >= m.rows || i < 0 || i >= m.cols then
    invalid_arg (Printf.sprintf "Bitset: cell (%d, %d) out of %d x %d" r i m.rows m.cols)

let row_mem m r i =
  check_cell m r i;
  Array.unsafe_get m.cells ((r * m.stride) + (i / word_bits)) land (1 lsl (i mod word_bits)) <> 0

let row_set m r i =
  check_cell m r i;
  let w = (r * m.stride) + (i / word_bits) in
  Array.unsafe_set m.cells w (Array.unsafe_get m.cells w lor (1 lsl (i mod word_bits)))

let row_clear m r i =
  check_cell m r i;
  let w = (r * m.stride) + (i / word_bits) in
  Array.unsafe_set m.cells w (Array.unsafe_get m.cells w land lnot (1 lsl (i mod word_bits)))

let check_row m r =
  if r < 0 || r >= m.rows then
    invalid_arg (Printf.sprintf "Bitset: row %d out of [0, %d)" r m.rows)

(* A set against row [r]: same capacity, row in range. *)
let check_set_row t m r =
  check_row m r;
  if t.capacity <> m.cols then invalid_arg "Bitset: capacity mismatch"

let row_op op ~dst m r =
  check_set_row dst m r;
  combine op dst.words 0 m.cells (r * m.stride) m.stride

let load_row ~dst m r = ignore (row_op Copy ~dst m r)
let union_row_into ~dst m r = row_op Or ~dst m r
let inter_row_into ~dst m r = row_op And ~dst m r

let check_same_cols a b =
  if a.cols <> b.cols then invalid_arg "Bitset: capacity mismatch"

let union_rows ~dst r src s =
  check_same_cols dst src;
  check_row dst r;
  check_row src s;
  combine Or dst.cells (r * dst.stride) src.cells (s * src.stride) dst.stride

let diff_row_into ~dst m r = row_op Andnot ~dst m r

let into_row op m r src =
  check_set_row src m r;
  combine op m.cells (r * m.stride) src.words 0 m.stride

let store_row m r src = ignore (into_row Copy m r src)
let union_into_row m r src = into_row Or m r src
let inter_into_row m r src = into_row And m r src
