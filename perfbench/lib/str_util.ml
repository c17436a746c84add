let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let replace_all s ~sub ~by =
  let m = String.length sub in
  if m = 0 then s
  else
    let b = Buffer.create (String.length s) in
    let rec go i =
      if i > String.length s - m then Buffer.add_substring b s i (String.length s - i)
      else if String.sub s i m = sub then (
        Buffer.add_string b by;
        go (i + m))
      else (
        Buffer.add_char b s.[i];
        go (i + 1))
    in
    go 0;
    Buffer.contents b
