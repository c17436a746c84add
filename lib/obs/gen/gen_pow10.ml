(* Writes [pow10.ml] to stdout: the power-of-ten table behind
   [Json.shortest_float].

   Entry s (from [s_min] to [s_max]) holds T = floor (10^s / 2^k), the
   first 120 bits of 10^s, where k = L - 119 and L = floor (log2 10^s),
   so that 2^119 <= T < 2^120.  T is stored as two little-endian int64
   words of 60 bits each, low word first, at byte 16 (s - s_min).  The
   runtime computes L as [(s * 14267572528) asr 32]; this program
   checks that formula against the exact L for every entry and fails
   if it ever disagrees.

   Exact arithmetic on naturals: little-endian arrays of 30-bit limbs. *)

let s_min = -293
let s_max = 341
let mask = (1 lsl 30) - 1

let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  Array.sub a 0 !n

let mul_small a k =
  let n = Array.length a in
  let r = Array.make (n + 2) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let v = (a.(i) * k) + !carry in
    r.(i) <- v land mask;
    carry := v lsr 30
  done;
  r.(n) <- !carry land mask;
  r.(n + 1) <- !carry lsr 30;
  trim r

let bitlen a =
  let a = trim a in
  let n = Array.length a in
  if n = 0 then 0
  else
    let top = a.(n - 1) and b = ref 0 in
    while top lsr !b > 0 do incr b done;
    (30 * (n - 1)) + !b

let bit a i = if i / 30 < Array.length a then (a.(i / 30) lsr (i mod 30)) land 1 else 0

let compare_nat a b =
  let a = trim a and b = trim b in
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let sub a b =
  let r = Array.copy a in
  let borrow = ref 0 in
  for i = 0 to Array.length r - 1 do
    let v = r.(i) - (if i < Array.length b then b.(i) else 0) - !borrow in
    if v < 0 then (r.(i) <- v + (1 lsl 30); borrow := 1) else (r.(i) <- v; borrow := 0)
  done;
  assert (!borrow = 0);
  trim r

let double a = mul_small a 2
let pow10 n = let r = ref [| 1 |] in for _ = 1 to n do r := mul_small !r 10 done; !r

(* The top 120 bits of 10^s as (L, hi, lo). *)
let entry s =
  if s >= 0 then begin
    let p = pow10 s in
    let l = bitlen p - 1 in
    (* T = floor (p / 2^(l - 119)) or p * 2^(119 - l) *)
    let t = Array.init 120 (fun i -> let j = i + l - 119 in if j >= 0 then bit p j else 0) in
    (l, t)
  end
  else begin
    let d = pow10 (-s) in
    let l = -bitlen d in
    (* T = floor (2^(119 - l) / d), by restoring division bit by bit. *)
    let k = 119 - l in
    let r = ref [| 1 |] and q = Array.make (k + 1) 0 in
    (* The dividend's bits from the top: a one, then k zeros. *)
    if compare_nat !r d >= 0 then (q.(k) <- 1; r := sub !r d);
    for i = k - 1 downto 0 do
      r := double !r;
      if compare_nat !r d >= 0 then (q.(i) <- 1; r := sub !r d)
    done;
    (l, Array.sub q 0 120)
  end

let () =
  let b = Buffer.create (16 * (s_max - s_min + 1)) in
  for s = s_min to s_max do
    let l, t = entry s in
    if (s * 14267572528) asr 32 <> l then begin
      Printf.eprintf "gen_pow10: floor (log2 10^%d) is %d, the formula gives %d\n" s l
        ((s * 14267572528) asr 32);
      exit 1
    end;
    if t.(119) <> 1 then (Printf.eprintf "gen_pow10: entry %d is not normalized\n" s; exit 1);
    let word off = let w = ref 0 in for i = 59 downto 0 do w := (!w lsl 1) lor t.(off + i) done; !w in
    Buffer.add_int64_le b (Int64.of_int (word 0));
    Buffer.add_int64_le b (Int64.of_int (word 60))
  done;
  print_string "(* Generated by gen/gen_pow10.exe; see that file. *)\n\n";
  Printf.printf "let s_min = %d\nlet s_max = %d\n\nlet table =\n  \"" s_min s_max;
  String.iteri
    (fun i c ->
      if i > 0 && i mod 16 = 0 then print_string "\\\n   ";
      Printf.printf "\\x%02x" (Char.code c))
    (Buffer.contents b);
  print_string "\"\n"
