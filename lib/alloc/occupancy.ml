(* Each entry is a row of bits over the positions [0, slots): bit i is
   set iff a reservation on the entry covers position i.  Reservations
   on one entry never overlap, so the bits are exactly their union.
   Rows are [stride] words of one int array, grown (doubling) when a
   reservation reaches past [slots]; positions past it are free. *)
type t = {
  num_entries : int;
  mutable slots : int;
  mutable stride : int;
  mutable bits : int array;
}

let word_bits = 63

let create ~entries =
  if entries < 0 then invalid_arg "Occupancy.create";
  { num_entries = entries; slots = 0; stride = 0; bits = [||] }

let entries t = t.num_entries

let grow t last =
  if last > t.slots then begin
    let slots = Int.max last (2 * t.slots) in
    let stride = (slots + word_bits - 1) / word_bits in
    let bits = Array.make (t.num_entries * stride) 0 in
    for e = 0 to t.num_entries - 1 do
      Array.blit t.bits (e * t.stride) bits (e * stride) t.stride
    done;
    t.slots <- slots;
    t.stride <- stride;
    t.bits <- bits
  end

(* The word of the row at [base] holding position [i], and the mask of
   positions [i, upto) in it, where [upto] is the word's end or [last]. *)
let word base i = base + (i / word_bits)
let upto i last = Int.min last (((i / word_bits) + 1) * word_bits)

let mask i last =
  let n = upto i last - i in
  if n = word_bits then -1 else ((1 lsl n) - 1) lsl (i mod word_bits)

let rec free bits base first last =
  first >= last
  || (bits.(word base first) land mask first last = 0 && free bits base (upto first last) last)

let rec fill bits base first last =
  if first < last then begin
    let w = word base first in
    bits.(w) <- bits.(w) lor mask first last;
    fill bits base (upto first last) last
  end

let available t ~entry ~first ~last =
  if first < 0 then invalid_arg "Occupancy: negative position";
  entry >= 0 && entry < t.num_entries && first < last
  && free t.bits (entry * t.stride) first (Int.min last t.slots)

let reserve t ~entry ~first ~last =
  if not (available t ~entry ~first ~last) then
    invalid_arg
      (Printf.sprintf "Occupancy.reserve: entry %d interval [%d, %d] unavailable" entry first last);
  grow t last;
  fill t.bits (entry * t.stride) first last

let rec fits t ~width ~first ~last e w =
  w = width || (available t ~entry:(e + w) ~first ~last && fits t ~width ~first ~last e (w + 1))

(* Top-level recursion: a search allocates no closure. *)
let rec search t ~width ~first ~last e =
  if width < 1 then invalid_arg "Occupancy.find_free: width < 1";
  if e + width > t.num_entries then None
  else if fits t ~width ~first ~last e 0 then Some e
  else search t ~width ~first ~last (e + 1)

let find_free t ~width ~first ~last = search t ~width ~first ~last 0

let reserve_range t ~entry ~width ~first ~last =
  for w = 0 to width - 1 do
    reserve t ~entry:(entry + w) ~first ~last
  done
