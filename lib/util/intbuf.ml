type t = { mutable data : int array; mutable len : int }

let create n = { data = Array.make (Int.max n 1) 0; len = 0 }
let length t = t.len

let push t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Intbuf.get";
  t.data.(i)

let to_array t = Array.sub t.data 0 t.len
