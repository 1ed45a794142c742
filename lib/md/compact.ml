module Sum_table = Hashtbl.Make (struct
  type t = int * Formal_sum.t (* level of the referenced children, sum *)

  let equal (l1, s1) (l2, s2) = l1 = l2 && Formal_sum.equal s1 s2

  let hash (l, s) = Mdl_util.Hashx.combine l (Formal_sum.hash s)
end)

(* [f] over a row's sums in column order; entries whose image is empty
   are dropped. *)
let map_row f row =
  let out = Array.map (fun (c, s) -> (c, f s)) row in
  let keep (_, s) = not (Formal_sum.is_empty s) in
  if Array.for_all keep out then out else Array.of_list (List.filter keep (Array.to_list out))

(* The weighted sum of rows [(c, row)], in term order.  A lone
   nonempty row is already sorted with one sum per column. *)
let sum_rows parts =
  match List.filter (fun (_, row) -> Array.length row > 0) parts with
  | [] -> [||]
  | [ (c, row) ] -> map_row (Formal_sum.scale c) row
  | parts ->
      Md.fold_row
        (Array.concat
           (List.map
              (fun (c, row) -> Array.map (fun (cc, s) -> (cc, Formal_sum.scale c s)) row)
              parts))

let merge_terms md =
  let out = Md.create ~sizes:(Md.sizes md) in
  let nlevels = Md.levels md in
  let node_memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let merge_memo : int Sum_table.t = Sum_table.create 64 in
  (* Convert a formal sum whose terms reference OLD nodes at [level]
     into a sum over NEW nodes with at most one term. *)
  let rec convert_sum level sum =
    if level > nlevels then sum (* terminal references: plain scalars *)
    else
      match Formal_sum.terms sum with
      | [] -> Formal_sum.empty
      | [ (n, c) ] -> Formal_sum.singleton (convert_node n) c
      | terms -> Formal_sum.singleton (convert_merged level terms) 1.0
  (* Emit rows over OLD children as a NEW node, converting the sums in
     row-major order. *)
  and emit level rows =
    Md.add_node_sorted_rows out ~level (Array.map (map_row (convert_sum (level + 1))) rows)
  (* Convert one old node as-is (entries converted recursively). *)
  and convert_node n =
    match Hashtbl.find_opt node_memo n with
    | Some id -> id
    | None ->
        let id = emit (Md.node_level md n) (Md.node_rows md n) in
        Hashtbl.add node_memo n id;
        id
  (* Build the node representing the weighted sum of several old nodes
     at [level]: row by row, the scaled rows in term order, folded per
     column. *)
  and convert_merged level terms =
    let key = (level, Formal_sum.of_list terms) in
    match Sum_table.find_opt merge_memo key with
    | Some id -> id
    | None ->
        let parts = List.map (fun (n, c) -> (c, Md.node_rows md n)) terms in
        let rows =
          Array.init (Md.size md level) (fun r ->
              sum_rows (List.map (fun (c, rows) -> (c, rows.(r))) parts))
        in
        let id = emit level rows in
        Sum_table.add merge_memo key id;
        id
  in
  let root = convert_node (Md.root md) in
  Md.set_root out root;
  out

let normalize md =
  let out = Md.create ~sizes:(Md.sizes md) in
  (* memo: old node id -> (new node id, extracted scale factor);
     references to an old node n with coefficient c become references to
     the normalised node with coefficient c * scale(n). *)
  let memo : (int, int * float) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.add memo (Md.terminal md) (Md.terminal out, 1.0);
  let rec convert n =
    match Hashtbl.find_opt memo n with
    | Some r -> r
    | None ->
        (* Convert entries first (children normalised bottom-up), in
           row-major order. *)
        let rows =
          Array.map
            (map_row (fun s ->
                 match Formal_sum.terms s with
                 | [ (child, w) ] ->
                     let child', scale = convert child in
                     Formal_sum.singleton child' (w *. scale)
                 | terms ->
                     Formal_sum.of_list
                       (List.map
                          (fun (child, w) ->
                            let child', scale = convert child in
                            (child', w *. scale))
                          terms)))
            (Md.node_rows md n)
        in
        (* Canonical factor: the first nonzero coefficient in row-major,
           column-major, child-id order. *)
        let gamma =
          match Array.find_opt (fun row -> Array.length row > 0) rows with
          | None -> 1.0
          | Some row -> (
              match Formal_sum.terms (snd row.(0)) with (_, w) :: _ -> w | [] -> 1.0)
        in
        if gamma <> 1.0 then
          Array.iteri
            (fun r row -> rows.(r) <- map_row (Formal_sum.scale (1.0 /. gamma)) row)
            rows;
        let result = (Md.add_node_sorted_rows out ~level:(Md.node_level md n) rows, gamma) in
        Hashtbl.add memo n result;
        result
  in
  let root, root_scale = convert (Md.root md) in
  if root_scale = 1.0 then begin
    Md.set_root out root;
    out
  end
  else begin
    (* Reapply the extracted root factor so the represented matrix is
       unchanged: scale every root entry back. *)
    let rows = Array.map (map_row (Formal_sum.scale root_scale)) (Md.node_rows out root) in
    Md.set_root out (Md.add_node_sorted_rows out ~level:1 rows);
    out
  end
