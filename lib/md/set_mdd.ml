module Dynarray = Mdl_util.Dynarray
module Hashx = Mdl_util.Hashx

type t = int

(* id 0 = Zero (empty set), id 1 = One (the terminal below the bottom
   level); ids >= 2 are proper nodes. *)
let zero = 0

let one = 1

type node_data = {
  level : int;
  arcs : (int * int) array; (* (local state, child id), sorted, child <> Zero *)
}

module Key = struct
  type t = node_data

  let equal a b = a.level = b.level && a.arcs = b.arcs

  let hash n =
    Array.fold_left
      (fun h (s, c) -> Hashx.combine (Hashx.combine h s) c)
      n.level n.arcs
end

module Cons = Hashtbl.Make (Key)

type man = {
  nlevels : int;
  nodes : node_data Dynarray.t; (* data for id i at index i-2 *)
  cons : int Cons.t;
  union_cache : (int * int, int) Hashtbl.t;
  image_cache : (int * int, int) Hashtbl.t;
  count_cache : (int, int) Hashtbl.t;
}

let manager ~levels =
  if levels < 1 then invalid_arg "Set_mdd.manager: levels must be >= 1";
  {
    nlevels = levels;
    nodes = Dynarray.create ();
    cons = Cons.create 1024;
    union_cache = Hashtbl.create 1024;
    image_cache = Hashtbl.create 1024;
    count_cache = Hashtbl.create 1024;
  }

let empty _m = zero

let is_empty t = t = zero

let equal (a : t) b = a = b

let data m id = Dynarray.get m.nodes (id - 2)

let mk m level arcs =
  if Array.length arcs = 0 then zero
  else begin
    let candidate = { level; arcs } in
    match Cons.find_opt m.cons candidate with
    | Some id -> id
    | None ->
        let id = Dynarray.length m.nodes + 2 in
        Dynarray.push m.nodes candidate;
        Cons.add m.cons candidate id;
        id
  end

let singleton m tuple =
  if Array.length tuple <> m.nlevels then
    invalid_arg "Set_mdd.singleton: tuple length mismatch";
  Array.iter
    (fun s -> if s < 0 then invalid_arg "Set_mdd.singleton: negative substate")
    tuple;
  let rec build level =
    if level > m.nlevels then one
    else mk m level [| (tuple.(level - 1), build (level + 1)) |]
  in
  build 1

let rec union m a b =
  if a = b then a
  else if a = zero then b
  else if b = zero then a
  else if a = one || b = one then one (* both at the terminal level *)
  else begin
    let key = if a < b then (a, b) else (b, a) in
    match Hashtbl.find_opt m.union_cache key with
    | Some r -> r
    | None ->
        let da = data m a and db = data m b in
        assert (da.level = db.level);
        let r =
          build m da.level (fun add ->
              Array.iter (fun (v, c) -> add v c) da.arcs;
              Array.iter (fun (v, c) -> add v c) db.arcs)
        in
        Hashtbl.add m.union_cache key r;
        r
  end

(* Hash-cons the level-[level] node whose arcs [fill] emits: [fill add]
   calls [add v c] once per (local state, child) pair; children sharing a
   local state are unioned, empty children dropped, and the arcs sorted
   by local state. *)
and build m level fill =
  let pairs = ref [] in
  fill (fun v c -> if c <> zero then pairs := (v, c) :: !pairs);
  let merged =
    List.fold_left
      (fun acc (v, c) ->
        match acc with
        | (v', c') :: rest when v' = v -> (v, union m c' c) :: rest
        | _ -> (v, c) :: acc)
      []
      (List.stable_sort (fun ((a : int), _) (b, _) -> Int.compare a b) !pairs)
  in
  mk m level (Array.of_list (List.rev merged))

let mem m t tuple =
  if Array.length tuple <> m.nlevels then invalid_arg "Set_mdd.mem: tuple length mismatch";
  let rec walk id level =
    if id = zero then false
    else if level > m.nlevels then true
    else begin
      let arcs = (data m id).arcs in
      let rec find lo hi =
        if lo > hi then false
        else
          let mid = (lo + hi) / 2 in
          let s, c = arcs.(mid) in
          if s = tuple.(level - 1) then walk c (level + 1)
          else if s < tuple.(level - 1) then find (mid + 1) hi
          else find lo (mid - 1)
      in
      find 0 (Array.length arcs - 1)
    end
  in
  walk t 1

let rec count m t =
  if t = zero then 0
  else if t = one then 1
  else
    match Hashtbl.find_opt m.count_cache t with
    | Some n -> n
    | None ->
        let n =
          Array.fold_left (fun acc (_, c) -> acc + count m c) 0 (data m t).arcs
        in
        Hashtbl.add m.count_cache t n;
        n

let num_nodes m = Dynarray.length m.nodes

(* Emit the arcs of one event's image of node [d]: every arc whose local
   state [rel] enables maps its child through [sub] and fans out to the
   successor local states.  [rel] is consulted only for local states
   present in the set, and successors are materialised only when the
   deeper levels produced a non-empty image — the Kronecker product
   semantics in the mli. *)
let step rel d sub add =
  Array.iter
    (fun (s, child) ->
      match rel d.level s with
      | [] -> ()
      | targets ->
          let child' = sub child in
          if child' <> zero then List.iter (fun v -> add v child') targets)
    d.arcs

let image m rel t =
  let rec walk id =
    if id = zero || id = one then id
    else
      let d = data m id in
      build m d.level (step rel d walk)
  in
  walk t

let image_cached m ~key rel t =
  (* One flat cache for all events; per-(event, node) entries.  Note the
     cache is only sound if [rel] is deterministic per key. *)
  let rec walk id =
    if id = zero || id = one then id
    else
      match Hashtbl.find_opt m.image_cache (key, id) with
      | Some r -> r
      | None ->
          let d = data m id in
          let r = build m d.level (step rel d walk) in
          Hashtbl.add m.image_cache (key, id) r;
          r
  in
  walk t

let saturation m ~rels ~tops s =
  let nevents = Array.length rels in
  if Array.length tops <> nevents then
    invalid_arg "Set_mdd.saturation: rels/tops length mismatch";
  Array.iter
    (fun top ->
      if top < 1 || top > m.nlevels then
        invalid_arg "Set_mdd.saturation: top level out of range")
    tops;
  (* events indexed by top level *)
  let by_top = Array.make (m.nlevels + 1) [] in
  Array.iteri (fun e top -> by_top.(top) <- e :: by_top.(top)) tops;
  let sat_cache : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let img_cache : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  (* Saturate [id]: saturate children bottom-up, then fire the events
     whose top is this node's level until a local fixpoint.  The firing
     handles the top-level transition itself and recurses only into
     strictly deeper levels (img_below), so the recursion is
     level-decreasing and self-loop events cannot re-enter the node
     under saturation. *)
  let rec saturate id =
    if id = zero || id = one then id
    else
      match Hashtbl.find_opt sat_cache id with
      | Some r -> r
      | None ->
          let d = data m id in
          let base =
            mk m d.level (Array.map (fun (v, c) -> (v, saturate c)) d.arcs)
          in
          let rec fire n =
            if n = zero then zero
            else begin
              let dn = data m n in
              let fired =
                build m dn.level (fun add ->
                    List.iter (fun e -> step rels.(e) dn (img_below e) add) by_top.(dn.level))
              in
              let n' = union m n fired in
              if n' = n then n else fire n'
            end
          in
          let r = fire base in
          Hashtbl.add sat_cache id r;
          Hashtbl.replace sat_cache r r;
          r
  (* Saturated image of event [e] applied to [id] (a saturated node one
     level below the firing level) and everything deeper. *)
  and img_below e id =
    if id = zero || id = one then id
    else
      match Hashtbl.find_opt img_cache (e, id) with
      | Some r -> r
      | None ->
          let d = data m id in
          (* saturate the image: new substates may enable events rooted
             at this level or below *)
          let r = saturate (build m d.level (step rels.(e) d (img_below e))) in
          Hashtbl.add img_cache (e, id) r;
          r
  in
  saturate s

let to_statespace m t =
  if t = zero then invalid_arg "Set_mdd.to_statespace: empty set";
  Statespace.of_diagram ~levels:m.nlevels ~root:t ~arcs:(fun id -> (data m id).arcs)

let relabel ss f =
  let levels = Statespace.levels ss in
  let m = manager ~levels in
  let memo = Hashtbl.create 64 in
  let rec conv level n =
    if level > levels then one
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
          let r =
            build m level (fun add ->
                Statespace.iter_arcs ss n (fun s _ child -> add (f level s) (conv (level + 1) child)))
          in
          Hashtbl.add memo n r;
          r
  in
  to_statespace m (conv 1 (Statespace.root ss))
