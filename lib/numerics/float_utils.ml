let approx_equal ?(rel = 1e-9) ?(abs = 1e-12) a b =
  let diff = Float.abs (a -. b) in
  diff <= abs || diff <= rel *. Float.max (Float.abs a) (Float.abs b)

let relative_error ~expected ~actual =
  let diff = Float.abs (actual -. expected) in
  if expected = 0. then diff else diff /. Float.abs expected

let safe_div num den =
  if den = 0. then if num = 0. then 0. else if num > 0. then infinity else neg_infinity
  else num /. den

let clamp ~lo ~hi x =
  if lo > hi then invalid_arg "Float_utils.clamp: lo > hi";
  Float.max lo (Float.min hi x)

let is_finite x = Float.is_finite x

let square x = x *. x

let sum_array xs = Array.fold_left ( +. ) 0. xs

let mean_of_array xs =
  let n = Array.length xs in
  if n = 0 then 0. else sum_array xs /. float_of_int n
