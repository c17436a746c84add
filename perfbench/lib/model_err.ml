(* Model-versus-simulation error: the mean over the load points of
   |model - sim| / sim, for the mean latency and for the p99.  Rows
   come from the CSV `experiments sweep` writes, with the columns
   "x", "sim", "sim p99", "model" and "model p99". *)

type row = { x : float; sim : float; sim_p99 : float; model : float; model_p99 : float }

type t = { mean_err : float; p99_err : float; points : int }

let rows_of_csv text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l -> String.split_on_char ',' (String.trim l))
  in
  match lines with
  | [] -> Error "empty CSV"
  | header :: body -> (
      let col name =
        let rec find i = function
          | [] -> Error (Printf.sprintf "CSV has no %S column" name)
          | h :: _ when h = name -> Ok i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 header
      in
      let ( let* ) = Result.bind in
      let* cx = col "x" in
      let* cs = col "sim" in
      let* csp = col "sim p99" in
      let* cm = col "model" in
      let* cmp = col "model p99" in
      let row cells =
        let num i = Option.bind (List.nth_opt cells i) float_of_string_opt in
        match (num cx, num cs, num csp, num cm, num cmp) with
        | Some x, Some sim, Some sim_p99, Some model, Some model_p99 ->
            Ok { x; sim; sim_p99; model; model_p99 }
        | _ -> Error ("unreadable CSV row: " ^ String.concat "," cells)
      in
      List.fold_right
        (fun cells acc ->
          let* acc = acc in
          let* r = row cells in
          Ok (r :: acc))
        body (Ok []))

let of_rows rows =
  let n = List.length rows in
  if n = 0 then Error "no load points"
  else if List.exists (fun r -> not (r.sim > 0. && r.sim_p99 > 0.)) rows then
    Error "a simulated value is not positive"
  else
    let avg f = List.fold_left (fun a r -> a +. f r) 0. rows /. float_of_int n in
    Ok
      {
        mean_err = avg (fun r -> Float.abs (r.model -. r.sim) /. r.sim);
        p99_err = avg (fun r -> Float.abs (r.model_p99 -. r.sim_p99) /. r.sim_p99);
        points = n;
      }

let of_csv text = Result.bind (rows_of_csv text) of_rows
