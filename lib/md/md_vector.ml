let check_size ss x fn =
  if Array.length x <> Statespace.size ss then
    invalid_arg (Printf.sprintf "Md_vector.%s: vector size mismatch" fn)

(* Co-walk the diagram with row/column cursors in the state space's
   counted MDD, accumulating path offsets; [emit] is called once per
   terminal path with the final (row index, column index, rate), in the
   order of [Md.iter_entries]. *)
let co_walk fn md ss emit =
  let nlevels = Md.levels md in
  if Statespace.levels ss <> nlevels then
    invalid_arg (Printf.sprintf "Md_vector.%s: level count mismatch" fn);
  let rec walk id row_node col_node row_off col_off coeff =
    if Md.node_level md id > nlevels then emit row_off col_off coeff
    else
      Md.iter_node_entries md id (fun r c sum ->
          match Statespace.arc ss row_node r with
          | None -> ()
          | Some (ro, row_child) -> (
              match Statespace.arc ss col_node c with
              | None -> ()
              | Some (co, col_child) ->
                  List.iter
                    (fun (child, w) ->
                      walk child row_child col_child (row_off + ro) (col_off + co)
                        (coeff *. w))
                    (Formal_sum.terms sum)))
  in
  walk (Md.root md) (Statespace.root ss) (Statespace.root ss) 0 0 1.0

let vec_mul md ss x =
  check_size ss x "vec_mul";
  let y = Array.make (Statespace.size ss) 0.0 in
  co_walk "vec_mul" md ss (fun i j v -> if x.(i) <> 0.0 then y.(j) <- y.(j) +. (x.(i) *. v));
  y

let vec_mul_mdd = vec_mul

let mul_vec md ss x =
  check_size ss x "mul_vec";
  let y = Array.make (Statespace.size ss) 0.0 in
  co_walk "mul_vec" md ss (fun i j v -> if x.(j) <> 0.0 then y.(i) <- y.(i) +. (v *. x.(j)));
  y

let row_sums md ss =
  let sums = Array.make (Statespace.size ss) 0.0 in
  co_walk "row_sums" md ss (fun i _ v -> sums.(i) <- sums.(i) +. v);
  sums

let diag md ss =
  let d = Array.make (Statespace.size ss) 0.0 in
  co_walk "diag" md ss (fun i j v -> if i = j then d.(i) <- d.(i) +. v);
  d

let to_csr md ss =
  let n = Statespace.size ss in
  (* CSR-native: entries stream into the two-pass count-then-fill
     constructor straight off the co-walk, no triplet buffer. *)
  Mdl_sparse.Csr.of_entry_iter ~rows:n ~cols:n (co_walk "to_csr" md ss)
