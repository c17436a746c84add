type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\x00' in
  let advance () = pos := !pos + 1 in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %C" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | '"' -> Buffer.add_char b '"'; advance ()
            | '\\' -> Buffer.add_char b '\\'; advance ()
            | '/' -> Buffer.add_char b '/'; advance ()
            | 'n' -> Buffer.add_char b '\n'; advance ()
            | 'r' -> Buffer.add_char b '\r'; advance ()
            | 't' -> Buffer.add_char b '\t'; advance ()
            | 'b' -> Buffer.add_char b '\b'; advance ()
            | 'f' -> Buffer.add_char b '\012'; advance ()
            | 'u' ->
                advance ();
                (* Exactly four hex digits, nothing else. *)
                let code = ref 0 in
                for _ = 1 to 4 do
                  let digit =
                    match peek () with
                    | '0' .. '9' as c -> Char.code c - Char.code '0'
                    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                    | _ -> fail "\\u escape needs four hex digits"
                  in
                  code := (!code * 16) + digit;
                  advance ()
                done;
                let code = !code in
                if code < 256 then Buffer.add_char b (Char.chr code)
                else Buffer.add_char b '?'
            | _ -> fail "bad escape");
            go ()
        | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((k, v) :: acc)
            | '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); Arr [])
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | '"' -> Str (parse_string ())
    | 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then (pos := !pos + 4; Bool true)
        else fail "bad literal"
    | 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then (pos := !pos + 5; Bool false)
        else fail "bad literal"
    | 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then (pos := !pos + 4; Null)
        else fail "bad literal"
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_result s = match parse s with v -> Ok v | exception Parse msg -> Error msg

let member name = function Obj kvs -> List.assoc_opt name kvs | _ -> None

let buf_add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The primitive [Printf]'s [%.15g], [%.16g] and [%.17g] reach
   (through [CamlinternalFormat.convert_float]), called with the same
   format strings: the same bytes, without building a format closure
   per call. *)
external format_float : string -> float -> string = "caml_format_float"

let shortest_float f =
  (* An integer under 1e15 has at most 15 digits, so [%.15g] prints it
     in fixed notation with no fraction: exactly its decimal.  −0
     keeps its sign there, so it takes the general path. *)
  if Float.abs f < 1e15 && Float.of_int (Float.to_int f) = f && not (Float.sign_bit f && f = 0.)
  then string_of_int (Float.to_int f)
  else
    let s = format_float "%.15g" f in
    if float_of_string s = f then s
    else
      let s = format_float "%.16g" f in
      if float_of_string s = f then s else format_float "%.17g" f

let scalar = function Arr _ | Obj _ -> false | _ -> true

let to_string v =
  let b = Buffer.create 4096 in
  let rec value indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f when Float.is_nan f -> buf_add_string b "nan"
    | Num f when f = Float.infinity -> buf_add_string b "inf"
    | Num f when f = Float.neg_infinity -> buf_add_string b "-inf"
    | Num f -> Buffer.add_string b (shortest_float f)
    | Str s -> buf_add_string b s
    | Arr items -> container indent '[' ']' (List.map (fun v -> (None, v)) items)
    | Obj kvs -> container indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)
  and container indent op cl items =
    let flat = List.for_all (fun (_, v) -> scalar v) items in
    Buffer.add_char b op;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_char b ',';
        if not flat then begin
          Buffer.add_char b '\n';
          Buffer.add_string b (String.make (indent + 2) ' ')
        end
        else if i > 0 then Buffer.add_char b ' ';
        Option.iter (fun k -> buf_add_string b k; Buffer.add_string b ": ") key;
        value (indent + 2) v)
      items;
    if not flat then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ')
    end;
    Buffer.add_char b cl
  in
  value 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b
