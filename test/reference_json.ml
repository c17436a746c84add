(* A frozen copy of [Fatnet_obs.Json.parse] as it stood before the
   reader became closure-free: the reference the byte-mutation
   property in test_obs compares the live parser against, tree for
   tree and error for error.  Do not edit. *)

open Fatnet_obs.Json

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
  (* [depth] counts the containers open around this value; one more
     than [max_depth] is refused at its bracket, so a line of [[[[...
     costs a bounded stack. *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | '{' | '[' when depth >= max_depth ->
        fail (Printf.sprintf "nesting deeper than %d" max_depth)
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
            let v = parse_value (depth + 1) in
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
            let v = parse_value (depth + 1) in
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
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v
