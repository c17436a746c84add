type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse of string

let max_depth = 512

(* The reader: a cursor over the document and top-level functions, so
   a parse allocates the cursor and the tree, no closures.  A string
   without an escape is one [String.sub] of the document; a number is
   the one substring [float_of_string] reads. *)
type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Parse (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.s then String.unsafe_get c.s c.pos else '\x00'

let rec skip_ws c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
      c.pos <- c.pos + 1;
      skip_ws c
  | _ -> ()

let expect c ch = if peek c = ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected %C" ch)

let unescaped c b ch =
  Buffer.add_char b ch;
  c.pos <- c.pos + 1

(* The rest of a string from its first backslash, decoding escapes
   into [b]. *)
let rec string_escaped c b =
  let n = String.length c.s in
  if c.pos >= n then fail c "unterminated string"
  else
    match c.s.[c.pos] with
    | '"' -> c.pos <- c.pos + 1
    | '\\' ->
        c.pos <- c.pos + 1;
        (match peek c with
        | '"' -> unescaped c b '"'
        | '\\' -> unescaped c b '\\'
        | '/' -> unescaped c b '/'
        | 'n' -> unescaped c b '\n'
        | 'r' -> unescaped c b '\r'
        | 't' -> unescaped c b '\t'
        | 'b' -> unescaped c b '\b'
        | 'f' -> unescaped c b '\012'
        | 'u' ->
            c.pos <- c.pos + 1;
            (* Exactly four hex digits, nothing else. *)
            let code = ref 0 in
            for _ = 1 to 4 do
              let digit =
                match peek c with
                | '0' .. '9' as ch -> Char.code ch - Char.code '0'
                | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
                | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
                | _ -> fail c "\\u escape needs four hex digits"
              in
              code := (!code * 16) + digit;
              c.pos <- c.pos + 1
            done;
            Buffer.add_char b (if !code < 256 then Char.chr !code else '?')
        | _ -> fail c "bad escape");
        string_escaped c b
    | ch ->
        Buffer.add_char b ch;
        c.pos <- c.pos + 1;
        string_escaped c b

let parse_string c =
  expect c '"';
  let s = c.s and start = c.pos in
  let n = String.length s in
  let i = ref start in
  while !i < n && String.unsafe_get s !i <> '"' && String.unsafe_get s !i <> '\\' do incr i done;
  if !i >= n then begin
    c.pos <- n;
    fail c "unterminated string"
  end
  else if String.unsafe_get s !i = '"' then begin
    c.pos <- !i + 1;
    String.sub s start (!i - start)
  end
  else begin
    let b = Buffer.create (!i - start + 16) in
    Buffer.add_substring b s start (!i - start);
    c.pos <- !i;
    string_escaped c b;
    Buffer.contents b
  end

let parse_number c =
  let s = c.s and start = c.pos in
  let n = String.length s in
  while
    c.pos < n
    && match String.unsafe_get s c.pos with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
       | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c "expected a number";
  match float_of_string_opt (String.sub s start (c.pos - start)) with
  | Some f -> f
  | None -> fail c "malformed number"

let rec same s at word i =
  i = String.length word
  || (String.unsafe_get s (at + i) = String.unsafe_get word i && same s at word (i + 1))

let literal c word v =
  if c.pos + String.length word <= String.length c.s && same c.s c.pos word 0 then begin
    c.pos <- c.pos + String.length word;
    v
  end
  else fail c "bad literal"

(* [depth] counts the containers open around this value; one more than
   [max_depth] is refused at its bracket, so a line of [[[[... costs a
   bounded stack. *)
let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | ('{' | '[') when depth >= max_depth ->
      fail c (Printf.sprintf "nesting deeper than %d" max_depth)
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (members c depth [])
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else Arr (elements c depth [])
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | _ -> Num (parse_number c)

and members c depth acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c (depth + 1) in
  skip_ws c;
  match peek c with
  | ',' ->
      c.pos <- c.pos + 1;
      members c depth ((k, v) :: acc)
  | '}' ->
      c.pos <- c.pos + 1;
      List.rev ((k, v) :: acc)
  | _ -> fail c "expected ',' or '}'"

and elements c depth acc =
  let v = parse_value c (depth + 1) in
  skip_ws c;
  match peek c with
  | ',' ->
      c.pos <- c.pos + 1;
      elements c depth (v :: acc)
  | ']' ->
      c.pos <- c.pos + 1;
      List.rev (v :: acc)
  | _ -> fail c "expected ',' or ']'"

let parse s =
  let c = { s; pos = 0 } in
  let v = parse_value c 0 in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v

let parse_result s = match parse s with v -> Ok v | exception Parse msg -> Error msg

let member name = function Obj kvs -> List.assoc_opt name kvs | _ -> None

(* Runs of plain bytes go in with one [Buffer.add_substring]. *)
let buf_add_string b s =
  Buffer.add_char b '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring b s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c)));
      start := i + 1
    end
  done;
  Buffer.add_substring b s !start (String.length s - !start);
  Buffer.add_char b '"'

(* ------------------------------------------------------------------ *)
(* Shortest round-trip digits.

   [shortest_float f] prints what "the first of [%.15g], [%.16g] and
   [%.17g] that reads back as [f]" prints, without formatting or
   reading a float.  For p = 15, 16, 17 it rounds the exact value of
   [f] to p significant digits, half to even as printf does, and keeps
   the first rounding that lies in [f]'s rounding interval: the reals
   strtod maps to [f], endpoints included when [f]'s significand is
   even.  Seventeen digits always lie there.  The kept digits are then
   laid out as [%.pg] lays them out.

   Fast path: X = |f| 10^s with s = 16 - floor (log10 |f|), so that
   10^16 <= X < 10^17, is [f]'s significand times the 120-bit table
   entry for 10^s ([Pow10]), held as a 60-bit integer part [xi] and a
   60-bit fraction [xf] that together fall short of X by less than 2
   units of 2^-60; the half-width of the rounding interval, h, is held
   the same way.  Every decision is taken on those with [margin] units
   to spare.  One closer to its boundary than that (an exact tie, a
   decimal on an interval endpoint, or one within 2^-57 of either) is
   taken again by [exact_digits], on exact naturals. *)

let mask30 = (1 lsl 30) - 1
let one60 = 1 lsl 60
let mask60 = one60 - 1
let margin = 8
let e16 = 10_000_000_000_000_000
let e17 = 100_000_000_000_000_000

let rec pow10_int n = if n = 0 then 1 else 10 * pow10_int (n - 1)

(* floor (log2 10^s) over the table's range (checked by gen_pow10). *)
let log2_pow10 s = (s * 14267572528) asr 32

(* Bits [r, r + 60) of hi 2^60 + lo, for 0 <= r <= 60. *)
let shr60 hi lo r = ((hi lsl (60 - r)) lor (lo lsr r)) land mask60

(* Naturals for [exact_digits]: little-endian arrays of 30-bit limbs. *)
module Nat = struct
  let of_int n = [| n land mask30; (n lsr 30) land mask30; n lsr 60 |]

  (* k < 2^31 *)
  let mul_small a k =
    let n = Array.length a in
    let r = Array.make (n + 2) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let v = (a.(i) * k) + !carry in
      r.(i) <- v land mask30;
      carry := v lsr 30
    done;
    r.(n) <- !carry land mask30;
    r.(n + 1) <- !carry lsr 30;
    r

  let shl a n =
    let w = n / 30 and b = n mod 30 in
    let len = Array.length a in
    let r = Array.make (len + w + 1) 0 in
    for i = 0 to len - 1 do
      let v = a.(i) lsl b in
      r.(i + w) <- r.(i + w) lor (v land mask30);
      r.(i + w + 1) <- v lsr 30
    done;
    r

  let rec mul_pow5 a n =
    if n >= 13 then mul_pow5 (mul_small a 1220703125) (n - 13)
    else mul_small a (pow10_int n / (1 lsl n))

  let limb a i = if i < Array.length a then a.(i) else 0

  let add a b =
    let n = max (Array.length a) (Array.length b) in
    let r = Array.make (n + 1) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let v = limb a i + limb b i + !carry in
      r.(i) <- v land mask30;
      carry := v lsr 30
    done;
    r.(n) <- !carry;
    r

  (* k < 2^61 *)
  let mul_int a k = add (mul_small a (k land mask30)) (shl (mul_small a (k lsr 30)) 30)

  let compare a b =
    let rec go i =
      if i < 0 then 0
      else
        let x = limb a i and y = limb b i in
        if x <> y then compare x y else go (i - 1)
    in
    go (max (Array.length a) (Array.length b) - 1)
end

(* Lay out the k digits of [d] at [at], with a '.' after the first
   [point] of them when point < k. *)
let put_digits b at d k point =
  let d = ref d in
  for i = k - 1 downto 0 do
    Bytes.unsafe_set b (at + i + if i >= point then 1 else 0)
      (Char.unsafe_chr (48 + (!d mod 10)));
    d := !d / 10
  done;
  if point < k then Bytes.unsafe_set b (at + point) '.'

(* The p-digit decimal d 10^(e10 - p + 1), 10^(p-1) <= d < 10^p, as
   [%.pg] prints it: trailing zeros dropped, exponent form below 1e-4
   or from 10^p. *)
let layout_digits neg p d e10 =
  let k = ref p and d = ref d in
  while !d mod 10 = 0 do
    d := !d / 10;
    decr k
  done;
  let k = !k and d = !d in
  let sign = if neg then 1 else 0 in
  let b =
    if e10 < -4 || e10 >= p then begin
      let ae = abs e10 in
      let ne = if ae >= 100 then 3 else 2 in
      let at = sign + k + if k > 1 then 1 else 0 in
      let b = Bytes.create (at + 2 + ne) in
      put_digits b sign d k 1;
      Bytes.unsafe_set b at 'e';
      Bytes.unsafe_set b (at + 1) (if e10 < 0 then '-' else '+');
      put_digits b (at + 2) ae ne ne;
      b
    end
    else if e10 >= 0 && k <= e10 + 1 then begin
      let b = Bytes.make (sign + e10 + 1) '0' in
      put_digits b sign d k k;
      b
    end
    else if e10 >= 0 then begin
      let b = Bytes.create (sign + k + 1) in
      put_digits b sign d k (e10 + 1);
      b
    end
    else begin
      let zeros = -e10 - 1 in
      let b = Bytes.make (sign + 2 + zeros + k) '0' in
      Bytes.unsafe_set b (sign + 1) '.';
      put_digits b (sign + 2 + zeros) d k k;
      b
    end
  in
  if neg then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_to_string b

(* [d] may be 10^p, a rounding that carried into the next decade. *)
let layout neg p d e10 =
  if d = pow10_int p then layout_digits neg p (d / 10) (e10 + 1) else layout_digits neg p d e10

(* The same choice on exact naturals: X = A / B, and the interval's
   half-widths scaled by 4B are G above and [g_lo] below.  [hint], when
   not negative, is the fast path's integer part of X at this [e10],
   within one of floor X. *)
let exact_digits neg m e lower_half e10 hint =
  let even = m land 1 = 0 in
  let rec at_e10 e10 hint =
    let s = 16 - e10 in
    let p2 = max e 0 + max s 0 and p5 = max s 0 in
    let a = Nat.shl (Nat.mul_pow5 (Nat.of_int m) p5) p2 in
    let b = Nat.shl (Nat.mul_pow5 (Nat.of_int 1) (max (-s) 0)) (max (-e) 0 + max (-s) 0) in
    if Nat.compare a (Nat.mul_int b e16) < 0 then at_e10 (e10 - 1) (-1)
    else if Nat.compare a (Nat.mul_int b e17) >= 0 then at_e10 (e10 + 1) (-1)
    else begin
      let g = Nat.shl (Nat.mul_pow5 (Nat.of_int 1) p5) (p2 + 1) in
      let g_lo = if lower_half then Nat.shl (Nat.mul_pow5 (Nat.of_int 1) p5) p2 else g in
      let a2 = Nat.shl a 1 and a4 = Nat.shl a 2 in
      let rec at p =
        let u = pow10_int (17 - p) in
        (* q = floor (X / u), by bisection. *)
        let lo = ref (pow10_int (p - 1)) and hi = ref (pow10_int p) in
        if hint >= 0 then begin
          lo := max !lo (hint / u);
          hi := min !hi ((hint + 1) / u + 1)
        end;
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if Nat.compare (Nat.mul_int b (mid * u)) a <= 0 then lo := mid else hi := mid
        done;
        let q = !lo in
        let c = Nat.compare a2 (Nat.mul_int b (((2 * q) + 1) * u)) in
        let d = if c > 0 || (c = 0 && q land 1 = 1) then q + 1 else q in
        if p = 17 then layout neg p d e10
        else begin
          let cb4 = Nat.mul_int b (4 * d * u) in
          let side = Nat.compare cb4 a4 in
          let within x y = let c = Nat.compare x y in c < 0 || (c = 0 && even) in
          if side = 0 || (side > 0 && within cb4 (Nat.add a4 g))
             || (side < 0 && within a4 (Nat.add cb4 g_lo))
          then layout neg p d e10
          else at (p + 1)
        end
      in
      at 15
    end
  in
  at_e10 e10 hint

(* Compare a = ai + af 2^-60 with b = bi + bf 2^-60: 1 when a < b by
   more than [margin] units, 0 when a > b by more, -1 when too close
   to tell. *)
let below ai af bi bf =
  let di = ai - bi in
  if di >= 2 then 0
  else if di <= -2 then 1
  else
    let d = (di * one60) + af - bf in
    if d < -margin then 1 else if d > margin then 0 else -1

(* Does the decimal [c] (in units of X) lie within h of X, on the side
   it lies on?  1 yes, 0 no, -1 too close to tell.  Below X the
   half-width is h / 2 when [lower_half] (f a power of two, whose
   lower neighbour is nearer). *)
let inside c xi xf hi hf lower_half =
  if c > xi then below (c - xi - 1) (one60 - xf) hi hf
  else if lower_half then below (xi - c) xf (hi lsr 1) ((hf lsr 1) lor ((hi land 1) lsl 59))
  else below (xi - c) xf hi hf

let rec fast_digits neg m e lower_half e10 =
  let s = 16 - e10 in
  if s < Pow10.s_min || s > Pow10.s_max then exact_digits neg m e lower_half e10 (-1)
  else begin
    let i = 16 * (s - Pow10.s_min) in
    let tlo = Int64.to_int (String.get_int64_le Pow10.table i)
    and thi = Int64.to_int (String.get_int64_le Pow10.table (i + 8)) in
    (* P = m T, in 30-bit limbs c0..c4 (each carrying into the next),
       then as 60-bit words w2 w1 w0. *)
    let m0 = m land mask30 and m1 = m lsr 30 in
    let t0 = tlo land mask30 and t1 = tlo lsr 30 and t2 = thi land mask30 and t3 = thi lsr 30 in
    let c0 = m0 * t0 in
    let c1 = (m0 * t1) + (m1 * t0) + (c0 lsr 30) in
    let c2 = (m0 * t2) + (m1 * t1) + (c1 lsr 30) in
    let c3 = (m0 * t3) + (m1 * t2) + (c2 lsr 30) in
    let w2 = (m1 * t3) + (c3 lsr 30) in
    let w1 = (c2 land mask30) lor ((c3 land mask30) lsl 30) in
    let w0 = (c0 land mask30) lor ((c1 land mask30) lsl 30) in
    (* X = P / 2^sh *)
    let sh = 119 - e - log2_pow10 s in
    let r = sh - 60 in
    if r < 0 || r > 120 then exact_digits neg m e lower_half e10 (-1)
    else begin
      let xi = if r <= 60 then shr60 w2 w1 r else w2 lsr (r - 60) in
      let xf = if r <= 60 then shr60 w1 w0 r else shr60 w2 w1 (r - 60) in
      if xi >= e17 then fast_digits neg m e lower_half (e10 + 1)
      else if xi < e16 - 1 || (xi = e16 - 1 && xf <= one60 - margin) then
        fast_digits neg m e lower_half (e10 - 1)
      else if xi = e16 - 1 || (xi = e17 - 1 && xf > one60 - margin) then
        exact_digits neg m e lower_half e10 (-1)
      else begin
        (* h = 2^(e-1) 10^s = T / 2^(sh+1) *)
        let rh = sh + 1 - 60 in
        let hi = if rh <= 60 then thi lsr rh else 0 in
        let hf = if rh <= 60 then shr60 thi tlo rh else thi lsr (rh - 60) in
        choose neg m e lower_half e10 xi xf hi hf 15
      end
    end
  end

(* Round X to p digits (u = 10^(17-p) units of X) and keep the result
   if it lies in the interval, else try p + 1. *)
and choose neg m e lower_half e10 xi xf hi hf p =
  let u = if p = 15 then 100 else if p = 16 then 10 else 1 in
  let q = xi / u and r = xi mod u in
  (* X / u lies in [q + (r + xf 2^-60) / u, that + 2^-59 / u). *)
  let d =
    if u = 1 then
      if xf < (one60 / 2) - margin then q else if xf > (one60 / 2) + margin then q + 1 else -1
    else
      let half = u / 2 in
      if r < half - 1 then q
      else if r > half then q + 1
      else if r = half then if xf > margin then q + 1 else -1
      else if xf < one60 - margin then q
      else -1
  in
  if d < 0 then exact_digits neg m e lower_half e10 xi
  else if p = 17 then layout neg 17 d e10
  else
    match inside (d * u) xi xf hi hf lower_half with
    | 1 -> layout neg p d e10
    | 0 -> choose neg m e lower_half e10 xi xf hi hf (p + 1)
    | _ -> exact_digits neg m e lower_half e10 xi

let shortest_float f =
  (* An integer under 1e15 has at most 15 digits, so [%.15g] prints it
     in fixed notation with no fraction: exactly its decimal.  −0
     keeps its sign there, so it takes the general path. *)
  if Float.abs f < 1e15 && Float.of_int (Float.to_int f) = f && not (Float.sign_bit f && f = 0.)
  then string_of_int (Float.to_int f)
  else if f = 0. then "-0"
  else if Float.is_nan f then "nan"
  else if not (Float.is_finite f) then if f > 0. then "inf" else "-inf"
  else begin
    let bits = Int64.bits_of_float f in
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
    let frac = Int64.to_int bits land ((1 lsl 52) - 1) in
    let m = if biased = 0 then frac else frac lor (1 lsl 52) in
    let e = (if biased = 0 then 1 else biased) - 1075 in
    fast_digits (f < 0.) m e (frac = 0 && biased > 1)
      (Float.to_int (Float.floor (Float.log10 (Float.abs f))))
  end

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
