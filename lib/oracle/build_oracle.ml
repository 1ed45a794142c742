module Csr = Mdl_sparse.Csr
module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Kronecker = Mdl_kron.Kronecker

(* Combine duplicate positions in a [(row, col)]-keyed table, in list
   order, then sort each row by column. *)
let add_node md ~level entries =
  if level < 1 || level > Md.levels md then invalid_arg "Md.add_node: level out of range";
  let n = Md.size md level in
  let by_pos = Hashtbl.create (List.length entries) in
  List.iter
    (fun (r, c, s) ->
      if r < 0 || r >= n || c < 0 || c >= n then
        invalid_arg
          (Printf.sprintf "Md.add_node: entry (%d,%d) out of range for level %d (size %d)"
             r c level n);
      List.iter
        (fun child ->
          let cl = Md.node_level md child in
          if cl <> level + 1 then
            invalid_arg
              (Printf.sprintf
                 "Md.add_node: child %d has level %d, expected %d" child cl (level + 1)))
        (Formal_sum.children s);
      let prev = Option.value ~default:Formal_sum.empty (Hashtbl.find_opt by_pos (r, c)) in
      Hashtbl.replace by_pos (r, c) (Formal_sum.add prev s))
    entries;
  let rows = Array.make n [] in
  Hashtbl.iter
    (fun (r, c) s -> if not (Formal_sum.is_empty s) then rows.(r) <- (c, s) :: rows.(r))
    by_pos;
  let rows =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort (fun (c1, _) (c2, _) -> compare c1 c2) a;
        a)
      rows
  in
  Md.add_node_sorted_rows md ~level rows

let to_md k =
  let sizes = Kronecker.sizes k in
  let md = Md.create ~sizes in
  let nlevels = Array.length sizes in
  let suffix_of (e : Kronecker.event) =
    let rec build level =
      if level > nlevels then Md.terminal md
      else
        let child = build (level + 1) in
        let entries = ref [] in
        Csr.iter
          (fun r c v -> entries := (r, c, Formal_sum.singleton child v) :: !entries)
          e.locals.(level - 1);
        add_node md ~level !entries
    in
    build 2
  in
  let root_entries = ref [] in
  List.iter
    (fun (e : Kronecker.event) ->
      let child = suffix_of e in
      Csr.iter
        (fun r c v ->
          root_entries := (r, c, Formal_sum.singleton child (e.rate *. v)) :: !root_entries)
        e.locals.(0))
    (Kronecker.events k);
  let root = add_node md ~level:1 !root_entries in
  Md.set_root md root;
  md

module Sum_table = Hashtbl.Make (struct
  type t = int * Formal_sum.t

  let equal (l1, s1) (l2, s2) = l1 = l2 && Formal_sum.equal s1 s2

  let hash (l, s) = Mdl_util.Hashx.combine l (Formal_sum.hash s)
end)

let merge_terms md =
  let out = Md.create ~sizes:(Md.sizes md) in
  let nlevels = Md.levels md in
  let node_memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let merge_memo : int Sum_table.t = Sum_table.create 64 in
  let rec convert_sum level sum =
    if level > nlevels then sum
    else
      match Formal_sum.terms sum with
      | [] -> Formal_sum.empty
      | [ (n, c) ] -> Formal_sum.singleton (convert_node n) c
      | terms -> Formal_sum.singleton (convert_merged level terms) 1.0
  and convert_node n =
    match Hashtbl.find_opt node_memo n with
    | Some id -> id
    | None ->
        let level = Md.node_level md n in
        let entries = ref [] in
        Md.iter_node_entries md n (fun r c s ->
            entries := (r, c, convert_sum (level + 1) s) :: !entries);
        let id = add_node out ~level !entries in
        Hashtbl.add node_memo n id;
        id
  and convert_merged level terms =
    let key = (level, Formal_sum.of_list terms) in
    match Sum_table.find_opt merge_memo key with
    | Some id -> id
    | None ->
        let combined : (int * int, Formal_sum.t) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun (n, c) ->
            Md.iter_node_entries md n (fun r cc s ->
                let prev =
                  Option.value ~default:Formal_sum.empty
                    (Hashtbl.find_opt combined (r, cc))
                in
                Hashtbl.replace combined (r, cc) (Formal_sum.add prev (Formal_sum.scale c s))))
          terms;
        let entries =
          Hashtbl.fold
            (fun (r, cc) s acc -> (r, cc, convert_sum (level + 1) s) :: acc)
            combined []
        in
        let id = add_node out ~level entries in
        Sum_table.add merge_memo key id;
        id
  in
  let root = convert_node (Md.root md) in
  Md.set_root out root;
  out

let normalize md =
  let out = Md.create ~sizes:(Md.sizes md) in
  let memo : (int, int * float) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.add memo (Md.terminal md) (Md.terminal out, 1.0);
  let rec convert n =
    match Hashtbl.find_opt memo n with
    | Some r -> r
    | None ->
        let level = Md.node_level md n in
        let entries = ref [] in
        Md.iter_node_entries md n (fun r c s ->
            let s' =
              Formal_sum.of_list
                (List.map
                   (fun (child, w) ->
                     let child', scale = convert child in
                     (child', w *. scale))
                   (Formal_sum.terms s))
            in
            if not (Formal_sum.is_empty s') then entries := (r, c, s') :: !entries);
        let ordered =
          List.sort
            (fun (r1, c1, _) (r2, c2, _) -> compare (r1, c1) (r2, c2))
            !entries
        in
        let gamma =
          match ordered with
          | [] -> 1.0
          | (_, _, s) :: _ -> (
              match Formal_sum.terms s with
              | (_, w) :: _ -> w
              | [] -> 1.0)
        in
        let scaled =
          if gamma = 1.0 then ordered
          else
            List.map (fun (r, c, s) -> (r, c, Formal_sum.scale (1.0 /. gamma) s)) ordered
        in
        let id = add_node out ~level scaled in
        let result = (id, gamma) in
        Hashtbl.add memo n result;
        result
  in
  let root, root_scale = convert (Md.root md) in
  if root_scale = 1.0 then begin
    Md.set_root out root;
    out
  end
  else begin
    let entries = ref [] in
    Md.iter_node_entries out root (fun r c s ->
        entries := (r, c, Formal_sum.scale root_scale s) :: !entries);
    let root' = add_node out ~level:1 !entries in
    Md.set_root out root';
    out
  end

let md_of k = normalize (merge_terms (to_md k))

let check md ~reference =
  let fail detail = [ { Invariants.check = "build"; detail } ] in
  if not (Md.equal md reference) then fail "diagram differs from the reference builder"
  else if Md.live_nodes md <> Md.live_nodes reference then
    fail "live-node ids differ from the reference builder"
  else []

let num_entries md = Array.fold_left ( + ) 0 (snd (Md.stats md))

(* Copy the rooted diagram into a fresh store with the lowest bit of the
   [k]-th coefficient flipped (terms counted in first-visit order). *)
let flip_bit md k =
  let out = Md.create ~sizes:(Md.sizes md) in
  let memo = Hashtbl.create 64 in
  Hashtbl.add memo (Md.terminal md) (Md.terminal out);
  let seen = ref 0 in
  let flip w =
    let hit = !seen = k in
    incr seen;
    if hit then Int64.float_of_bits (Int64.logxor (Int64.bits_of_float w) 1L) else w
  in
  let rec copy n =
    match Hashtbl.find_opt memo n with
    | Some id -> id
    | None ->
        let entries = ref [] in
        Md.iter_node_entries md n (fun r c s ->
            let terms =
              List.map
                (fun (child, w) ->
                  let w = flip w in
                  (copy child, w))
                (Formal_sum.terms s)
            in
            entries := (r, c, Formal_sum.of_list terms) :: !entries);
        let id = Md.add_node out ~level:(Md.node_level md n) !entries in
        Hashtbl.add memo n id;
        id
  in
  Md.set_root out (copy (Md.root md));
  out
