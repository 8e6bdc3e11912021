type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* reverse order *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row > List.length t.columns then
    invalid_arg "Table.add_row: row longer than header";
  t.rows <- row :: t.rows

let add_float_row t label ?(decimals = 3) xs =
  add_row t (label :: List.map (fun x -> Printf.sprintf "%.*f" decimals x) xs)

let rows_in_order t = List.rev t.rows

let pad s width = s ^ String.make (Int.max 0 (width - String.length s)) ' '

let render t =
  let ncols = List.length t.columns in
  let cell row i = match List.nth_opt row i with Some c -> c | None -> "" in
  let width i =
    let rows = t.columns :: rows_in_order t in
    List.fold_left (fun acc row -> Int.max acc (String.length (cell row i))) 0 rows
  in
  let widths = List.init ncols width in
  let render_row row =
    List.mapi (fun i w -> pad (cell row i) w) widths |> String.concat "  "
  in
  let rtrim s =
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do decr n done;
    String.sub s 0 !n
  in
  let header = rtrim (render_row t.columns) in
  let sep = String.make (String.length header) '-' in
  let body = List.map (fun r -> rtrim (render_row r)) (rows_in_order t) in
  String.concat "\n" ((t.title :: header :: sep :: body) @ [])

let print t =
  print_string (render t);
  print_newline ();
  print_newline ()

let escape_csv s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv t =
  let line row = String.concat "," (List.map escape_csv row) in
  String.concat "\n" (line t.columns :: List.map line (rows_in_order t))

let escape_html s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&#39;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let html t =
  let ncols = List.length t.columns in
  let buf = Buffer.create 1024 in
  let row tag cells =
    Buffer.add_string buf "<tr>";
    List.iteri
      (fun i c ->
        Printf.bprintf buf "<%s%s>%s</%s>" tag
          (if i = 0 then " class=l" else "")
          (escape_html c) tag)
      (cells @ List.init (ncols - List.length cells) (fun _ -> ""));
    Buffer.add_string buf "</tr>\n"
  in
  Printf.bprintf buf "<table>\n<caption>%s</caption>\n" (escape_html t.title);
  row "th" t.columns;
  List.iter (row "td") (rows_in_order t);
  Buffer.add_string buf "</table>\n";
  Buffer.contents buf
