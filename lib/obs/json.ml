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

let add_num buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
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

let field what j name conv =
  match Option.bind (member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed field %S" what name)

let to_num = function Num x -> Some x | _ -> None

let to_int = function
  | Num x when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None
let to_obj = function Obj fields -> Some fields | _ -> None
