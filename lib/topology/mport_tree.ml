type endpoint = Node of int | Switch of int

type channel_kind = Injection | Ejection | Up | Down

type t = {
  m : int;
  n : int;
  half : int;                   (* m / 2 *)
  half_pow : int array;         (* half_pow.(i) = half^i, i in [0, n] *)
  node_count : int;
  switch_count : int;
  per_level : int;              (* switches per non-root level: 2*half^(n-1) *)
  root_offset : int;            (* first root switch id *)
  chan_src : int array;         (* encoded endpoint, see [encode] *)
  chan_dst : int array;
  chan_kind : channel_kind array;
  chan_table : (int, int) Hashtbl.t; (* (src, dst) encoded pair -> channel id *)
  degrees : int array;          (* outgoing channels per switch *)
}

let m t = t.m
let n t = t.n
let node_count t = t.node_count
let switch_count t = t.switch_count
let channel_count t = Array.length t.chan_src

(* Endpoints are encoded as a single int so channel lookup is one
   hashtable probe: nodes map to their id, switches follow. *)
let encode t = function Node x -> x | Switch s -> t.node_count + s

let pair_key t a b = (a * (t.node_count + t.switch_count)) + b

(* Switch id layout: levels 1..n-1 occupy [0, (n-1)*per_level) in level
   order, each level indexed by group * parallel-count + parallel; root
   switches occupy [root_offset, root_offset + half^(n-1)). *)
let switch_id t ~level ~group ~parallel =
  assert (level >= 1 && level < t.n);
  ((level - 1) * t.per_level) + (group * t.half_pow.(level - 1)) + parallel

let root_id t r = t.root_offset + r

let switch_level t s =
  if s < 0 || s >= t.switch_count then invalid_arg "Mport_tree.switch_level: id";
  if s >= t.root_offset then t.n else (s / t.per_level) + 1

let switches_at_level t level =
  if level < 1 || level > t.n then invalid_arg "Mport_tree.switches_at_level: level";
  let first, count =
    if level = t.n then (t.root_offset, t.half_pow.(t.n - 1))
    else ((level - 1) * t.per_level, t.per_level)
  in
  List.init count (fun i -> first + i)

let group_of_node t x level = x / t.half_pow.(level)

let leaf_switch t x =
  if t.n = 1 then root_id t 0 else switch_id t ~level:1 ~group:(group_of_node t x 1) ~parallel:0

let leaf_switch_of_node t x =
  if x < 0 || x >= t.node_count then invalid_arg "Mport_tree.leaf_switch_of_node: id";
  leaf_switch t x

let create ~m ~n =
  if m < 2 || m mod 2 <> 0 then invalid_arg "Mport_tree.create: m must be even and >= 2";
  if n < 1 then invalid_arg "Mport_tree.create: n must be >= 1";
  let half = m / 2 in
  let half_pow = Array.make (n + 1) 1 in
  for i = 1 to n do
    half_pow.(i) <- half_pow.(i - 1) * half
  done;
  let node_count = 2 * half_pow.(n) in
  let per_level = 2 * half_pow.(n - 1) in
  let root_count = half_pow.(n - 1) in
  let switch_count = ((n - 1) * per_level) + root_count in
  let root_offset = (n - 1) * per_level in
  let t =
    {
      m;
      n;
      half;
      half_pow;
      node_count;
      switch_count;
      per_level;
      root_offset;
      chan_src = [||];
      chan_dst = [||];
      chan_kind = [||];
      chan_table = Hashtbl.create 16;
      degrees = Array.make switch_count 0;
    }
  in
  let chans = ref [] and count = ref 0 in
  let add_link a b kind_ab kind_ba =
    chans := (encode t a, encode t b, kind_ab) :: (encode t b, encode t a, kind_ba) :: !chans;
    count := !count + 2
  in
  (* Node <-> leaf-switch links. *)
  for x = 0 to node_count - 1 do
    add_link (Node x) (Switch (leaf_switch t x)) Injection Ejection
  done;
  (* Switch-to-switch links between level l and l+1 (butterfly wiring). *)
  for level = 1 to n - 2 do
    let groups = 2 * half_pow.(n - level) in
    let par = half_pow.(level - 1) in
    for g = 0 to groups - 1 do
      for r = 0 to par - 1 do
        let lower = switch_id t ~level ~group:g ~parallel:r in
        for j = 0 to half - 1 do
          let upper =
            switch_id t ~level:(level + 1) ~group:(g / half) ~parallel:(r + (j * par))
          in
          add_link (Switch lower) (Switch upper) Up Down
        done
      done
    done
  done;
  (* Level n-1 <-> root links: each root reaches every level-(n-1) group. *)
  if n >= 2 then begin
    let groups = 2 * half in
    let par = half_pow.(n - 2) in
    for g = 0 to groups - 1 do
      for r = 0 to par - 1 do
        let lower = switch_id t ~level:(n - 1) ~group:g ~parallel:r in
        for j = 0 to half - 1 do
          add_link (Switch lower) (Switch (root_id t (r + (j * par)))) Up Down
        done
      done
    done
  end;
  let chan_src = Array.make !count 0 in
  let chan_dst = Array.make !count 0 in
  let chan_kind = Array.make !count Injection in
  let table = Hashtbl.create (2 * !count) in
  List.iteri
    (fun i (a, b, kind) ->
      chan_src.(i) <- a;
      chan_dst.(i) <- b;
      chan_kind.(i) <- kind;
      Hashtbl.replace table (pair_key t a b) i)
    !chans;
  let degrees = Array.make switch_count 0 in
  Array.iteri
    (fun i src ->
      ignore i;
      if src >= node_count then
        degrees.(src - node_count) <- degrees.(src - node_count) + 1)
    chan_src;
  { t with chan_src; chan_dst; chan_kind; chan_table = table; degrees }

let channel_kind t c =
  if c < 0 || c >= channel_count t then invalid_arg "Mport_tree.channel_kind: id";
  t.chan_kind.(c)

let decode t e = if e < t.node_count then Node e else Switch (e - t.node_count)

let channel_endpoints t c =
  if c < 0 || c >= channel_count t then invalid_arg "Mport_tree.channel_endpoints: id";
  (decode t t.chan_src.(c), decode t t.chan_dst.(c))

let channel_id t ~src ~dst =
  match Hashtbl.find_opt t.chan_table (pair_key t (encode t src) (encode t dst)) with
  | Some c -> c
  | None -> raise Not_found

let nca_level t ~src ~dst =
  if src = dst then invalid_arg "Mport_tree.nca_level: src = dst";
  if src < 0 || src >= t.node_count || dst < 0 || dst >= t.node_count then
    invalid_arg "Mport_tree.nca_level: node id";
  let rec find l =
    if l > t.n - 1 then t.n
    else if group_of_node t src l = group_of_node t dst l then l
    else find (l + 1)
  in
  find 1

let ascent_choices t = t.half_pow.(t.n - 1)

(* The deterministic D-mod-k ascent target: the destination's low
   base-(m/2) digits.  Low digits are uniform even conditioned on the
   destination lying outside the source's subtree (high digits), so
   all-pairs uniform traffic loads the up-channels of each level
   evenly — the balance Eq. (10) assumes.  (Packing the high digits
   instead skews the load towards the opposite subtree.) *)
let default_choice t dst = dst mod t.half_pow.(t.n - 1)

(* The endpoint sequence of [route], from [Node src] to [Node dst]. *)
let route_endpoints ?choice t ~src ~dst =
  let h = nca_level t ~src ~dst in
  let choice =
    match choice with
    | None -> default_choice t dst
    | Some c ->
        if c < 0 then invalid_arg "Mport_tree.route_endpoints: negative choice";
        c mod ascent_choices t
  in
  (* Ascend towards the NCA-level switch selected by [choice]: the
     parallel index at level l is choice mod (m/2)^(l-1). *)
  let ascend = ref [] in
  let parallel = ref 0 in
  for l = 1 to h - 1 do
    let next_parallel = choice mod t.half_pow.(l) in
    parallel := next_parallel;
    let sw =
      if l + 1 = t.n then root_id t next_parallel
      else switch_id t ~level:(l + 1) ~group:(group_of_node t src (l + 1)) ~parallel:next_parallel
    in
    ascend := Switch sw :: !ascend
  done;
  (* Descend: parallel index at level l is the one above reduced
     modulo half^(l-1); groups follow the destination. *)
  let descend = ref [] in
  let down_parallel = ref !parallel in
  for l = h - 1 downto 1 do
    let p = !down_parallel mod t.half_pow.(l - 1) in
    down_parallel := p;
    let sw = switch_id t ~level:l ~group:(group_of_node t dst l) ~parallel:p in
    descend := Switch sw :: !descend
  done;
  (Node src :: Switch (leaf_switch t src) :: List.rev !ascend)
  @ List.rev (Node dst :: !descend)

let route ?choice t ~src ~dst =
  let eps = route_endpoints ?choice t ~src ~dst in
  let rec channels = function
    | a :: (b :: _ as rest) -> channel_id t ~src:a ~dst:b :: channels rest
    | [ _ ] | [] -> []
  in
  Array.of_list (channels eps)

let degree t s =
  if s < 0 || s >= t.switch_count then invalid_arg "Mport_tree.degree: id";
  t.degrees.(s)
