type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_tol = 1e-9

(* Below 2^53 every integer is a float, so "%.0f" prints it exactly
   and parsing gives it back. *)
let is_integral x = Float.is_integer x && Float.abs x < 0x1p53

let add_num buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if is_integral x then Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else Buffer.add_string buf (Printf.sprintf "%.12g" x)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_num buf x
  | Str s -> escape buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        add buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  add buf j;
  Buffer.contents buf

let to_channel oc j = output_string oc (to_string j)

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the string.                          *)

exception Fail of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let cp = try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape" in
           (* Encode the code point as UTF-8 (surrogates unsupported). *)
           if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
           else if cp < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
           end
         | c -> fail (Printf.sprintf "bad escape \\%c" c));
        go ()
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (items [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_num = function Num x -> Some x | _ -> None

(* [int_of_float] of a float outside OCaml's [-2^62, 2^62) is
   unspecified (1e300 reads as 0 on x86-64), so those are not ints. *)
let to_int = function
  | Num x when Float.is_integer x && x >= Float.of_int min_int && x < -.Float.of_int min_int ->
    Some (int_of_float x)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None
let to_obj = function Obj fields -> Some fields | _ -> None

(* ------------------------------------------------------------------ *)
(* Codecs.                                                             *)

type 'a codec = { enc : 'a -> t; dec : t -> ('a, string) result }

(* A decoding error starts with the path to the value it is about, as
   in "benches[3].sched.entries: missing"; [at] prefixes one step of
   it (".name" or "[i]"), and [decode] drops the leading dot. *)
let at step e =
  if e <> "" && (e.[0] = '.' || e.[0] = '[') then step ^ e else step ^ ": " ^ e

let encode c v = c.enc v

let decode c j =
  match c.dec j with
  | Error e when e <> "" && e.[0] = '.' -> Error (String.sub e 1 (String.length e - 1))
  | r -> r

let decode_string c s = Result.bind (parse s) (decode c)

(* Decode a value of one JSON shape with [f], and reject any other. *)
let expect what conv f j = match conv j with Some x -> f x | None -> Error ("expected " ^ what)

let integer = { enc = int; dec = expect "an integer" to_int Result.ok }
let num = { enc = (fun x -> Num x); dec = expect "a number" to_num Result.ok }
let str = { enc = (fun s -> Str s); dec = expect "a string" to_str Result.ok }
let bool = { enc = (fun b -> Bool b); dec = expect "a boolean" to_bool Result.ok }
let raw = { enc = Fun.id; dec = Result.ok }

(* Decode every item in order, or name the first that fails. *)
let decode_all step dec items =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match dec x with Ok y -> go (i + 1) (y :: acc) rest | Error e -> Error (at (step i x) e))
  in
  go 0 [] items

let list c =
  {
    enc = (fun xs -> Arr (List.map c.enc xs));
    dec = expect "an array" to_list (decode_all (fun i _ -> Printf.sprintf "[%d]" i) c.dec);
  }

let assoc c =
  {
    enc = (fun kvs -> Obj (List.map (fun (k, v) -> (k, c.enc v)) kvs));
    dec =
      expect "an object" to_obj
        (decode_all (fun _ (k, _) -> "." ^ k) (fun (k, j) -> Result.map (fun v -> (k, v)) (c.dec j)));
  }

let pair a b =
  {
    enc = (fun (x, y) -> Arr [ a.enc x; b.enc y ]);
    dec =
      (function
      | Arr [ x; y ] -> Result.bind (a.dec x) (fun x -> Result.map (fun y -> (x, y)) (b.dec y))
      | _ -> Error "expected a two-element array");
  }

let enum name values =
  {
    enc = (fun v -> Str (name v));
    dec =
      expect "a string" to_str (fun s ->
          match List.find_opt (fun v -> String.equal (name v) s) values with
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "unknown value %S" s));
  }

let map dec enc c = { enc = (fun x -> c.enc (enc x)); dec = (fun j -> Result.bind (c.dec j) dec) }

let version n =
  map
    (fun v -> if v = n then Ok () else Error (Printf.sprintf "unsupported version %d (expected %d)" v n))
    (fun () -> n) integer

(* An object under construction: [fields] prepends the declared fields'
   encodings to an accumulator (so it holds them in reverse), [build]
   reads them into ['k], the constructor applied to the fields so far. *)
type ('o, 'k) obj = {
  fields : 'o -> (string * t) list -> (string * t) list;
  build : (string * t) list -> ('k, string) result;
}

let obj make = { fields = (fun _ acc -> acc); build = (fun _ -> Ok make) }

let field write read o =
  {
    fields = (fun v acc -> write v (o.fields v acc));
    build = (fun kvs -> Result.bind (o.build kvs) (fun k -> Result.map k (read kvs)));
  }

(* Decode the member [name] of an object's [kvs], or [absent] without it. *)
let read_member name dec kvs ~absent =
  match List.assoc_opt name kvs with
  | Some j -> Result.map_error (at ("." ^ name)) (dec j)
  | None -> absent

let req ?default name c get =
  field
    (fun v acc -> (name, c.enc (get v)) :: acc)
    (fun kvs ->
      read_member name c.dec kvs
        ~absent:(Option.to_result ~none:(at ("." ^ name) "missing") default))

let opt name c get =
  field
    (fun v acc -> match get v with Some x -> (name, c.enc x) :: acc | None -> acc)
    (fun kvs -> read_member name (fun j -> Result.map Option.some (c.dec j)) kvs ~absent:(Ok None))

let const name j o = { o with fields = (fun v acc -> (name, j) :: o.fields v acc) }
let inline inner get = field (fun v acc -> inner.fields (get v) acc) inner.build
let seal o = { enc = (fun v -> Obj (List.rev (o.fields v []))); dec = expect "an object" to_obj o.build }

type 'a case = {
  tag : string;
  write : 'a -> (string * t) list -> (string * t) list option;
  read : (string * t) list -> ('a, string) result;
}

let case tag o inj proj =
  {
    tag;
    write = (fun v acc -> Option.map (fun b -> o.fields b acc) (proj v));
    read = (fun kvs -> Result.map inj (o.build kvs));
  }

let tagged key cases =
  {
    fields =
      (fun v acc ->
        match List.find_map (fun c -> c.write v ((key, Str c.tag) :: acc)) cases with
        | Some fields -> fields
        | None -> invalid_arg ("Json.tagged: a value with no " ^ key ^ " case"));
    build =
      (fun kvs ->
        Result.bind
          (read_member key str.dec kvs ~absent:(Error (at ("." ^ key) "missing")))
          (fun tag ->
            match List.find_opt (fun c -> String.equal c.tag tag) cases with
            | Some c -> c.read kvs
            | None -> Error (at ("." ^ key) (Printf.sprintf "unknown kind %S" tag))));
  }

let load_jsonl ~path c =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
    let lines = List.filter (( <> ) "") (List.map String.trim (String.split_on_char '\n' text)) in
    let decoded = List.filter_map (fun l -> Result.to_option (decode_string c l)) lines in
    Ok (decoded, List.length lines - List.length decoded)
