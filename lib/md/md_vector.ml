module Vec = Mdl_sparse.Vec
module Csr = Mdl_sparse.Csr
module Dynarray = Mdl_util.Dynarray

module Plan = struct
  type t = {
    size : int;
    depth : int;
    root : int;
    start : int array;
    row_off : int array;
    col_off : int array;
    coeff : float array;
    child : int array;
  }

  let compile_as fn md ss =
    let nlevels = Md.levels md in
    if Statespace.levels ss <> nlevels then
      invalid_arg (Printf.sprintf "Md_vector.%s: level count mismatch" fn);
    (* One memoised pass over the (MD node, row node, column node)
       triples reachable from the roots.  A block's entries follow the
       co-walk exactly: node entries row-major, then each formal sum's
       terms in order; a child triple whose block has no entries is
       dropped (it emits nothing), so every kept block is non-empty.
       Children are compiled first, so blocks come out in post-order. *)
    let memo = Hashtbl.create 64 in
    let blocks = Dynarray.create () in
    let rec block id (row_node : Statespace.node) (col_node : Statespace.node) =
      let key = (id, (row_node :> int), (col_node :> int)) in
      match Hashtbl.find_opt memo key with
      | Some bh -> bh
      | None ->
          let entries = ref [] and height = ref 1 in
          Md.iter_node_entries md id (fun r c sum ->
              match Statespace.arc ss row_node r with
              | None -> ()
              | Some (ro, row_child) -> (
                  match Statespace.arc ss col_node c with
                  | None -> ()
                  | Some (co, col_child) ->
                      List.iter
                        (fun (child, w) ->
                          if Md.node_level md child > nlevels then
                            entries := (ro, co, w, -1) :: !entries
                          else
                            let b, h = block child row_child col_child in
                            if b >= 0 then begin
                              entries := (ro, co, w, b) :: !entries;
                              height := max !height (h + 1)
                            end)
                        (Formal_sum.terms sum)));
          let bh =
            if !entries = [] then (-1, 0)
            else begin
              Dynarray.push blocks (Array.of_list (List.rev !entries));
              (Dynarray.length blocks - 1, !height)
            end
          in
          Hashtbl.add memo key bh;
          bh
    in
    let root, depth = block (Md.root md) (Statespace.root ss) (Statespace.root ss) in
    let blocks = Dynarray.to_array blocks in
    let start = Array.make (Array.length blocks + 1) 0 in
    Array.iteri (fun b es -> start.(b + 1) <- start.(b) + Array.length es) blocks;
    let es = Array.concat (Array.to_list blocks) in
    {
      size = Statespace.size ss;
      depth;
      root;
      start;
      row_off = Array.map (fun (ro, _, _, _) -> ro) es;
      col_off = Array.map (fun (_, co, _, _) -> co) es;
      coeff = Array.map (fun (_, _, w, _) -> w) es;
      child = Array.map (fun (_, _, _, b) -> b) es;
    }

  let compile md ss = compile_as "Plan.compile" md ss

  (* What the walker does with each terminal path (row index, column
     index, rate). *)
  type kernel =
    | Vec_mul of Vec.t * Vec.t
    | Mul_vec of Vec.t * Vec.t
    | Row_sums of Vec.t
    | Diag of Vec.t
    | Emit of (int -> int -> float -> unit)

  (* The one walker: depth-first over the plan from the root block,
     accumulating offsets and multiplying coefficients top-down
     ([acc.(d)] holds the path coefficient at depth [d], so no float is
     boxed per step).  Paths come out in the co-walk's order, so every
     accumulation below is bit-identical to it. *)
  let run p k =
    if p.root >= 0 then begin
      let acc = Array.make p.depth 1.0 in
      let rec walk b d row col =
        let a = acc.(d) in
        for e = p.start.(b) to p.start.(b + 1) - 1 do
          let i = row + p.row_off.(e) and j = col + p.col_off.(e) in
          let v = a *. p.coeff.(e) in
          let c = p.child.(e) in
          if c >= 0 then begin
            acc.(d + 1) <- v;
            walk c (d + 1) i j
          end
          else
            match k with
            | Vec_mul (x, y) -> if x.(i) <> 0.0 then y.(j) <- y.(j) +. (x.(i) *. v)
            | Mul_vec (x, y) -> if x.(j) <> 0.0 then y.(i) <- y.(i) +. (v *. x.(j))
            | Row_sums s -> s.(i) <- s.(i) +. v
            | Diag dg -> if i = j then dg.(i) <- dg.(i) +. v
            | Emit f -> f i j v
        done
      in
      walk p.root 0 0 0
    end

  let check_size p x fn =
    if Array.length x <> p.size then
      invalid_arg (Printf.sprintf "Md_vector.%s: vector size mismatch" fn)

  let vec_mul p x =
    check_size p x "Plan.vec_mul";
    let y = Array.make p.size 0.0 in
    run p (Vec_mul (x, y));
    y

  let mul_vec p x =
    check_size p x "Plan.mul_vec";
    let y = Array.make p.size 0.0 in
    run p (Mul_vec (x, y));
    y

  let row_sums p =
    let s = Array.make p.size 0.0 in
    run p (Row_sums s);
    s

  let diag p =
    let d = Array.make p.size 0.0 in
    run p (Diag d);
    d

  (* CSR-native: entries stream into the two-pass count-then-fill
     constructor straight off the plan, no triplet buffer. *)
  let to_csr p = Csr.of_entry_iter ~rows:p.size ~cols:p.size (fun f -> run p (Emit f))
end

let check_size ss x fn =
  if Array.length x <> Statespace.size ss then
    invalid_arg (Printf.sprintf "Md_vector.%s: vector size mismatch" fn)

let vec_mul md ss x =
  check_size ss x "vec_mul";
  Plan.vec_mul (Plan.compile_as "vec_mul" md ss) x

let vec_mul_mdd = vec_mul

let mul_vec md ss x =
  check_size ss x "mul_vec";
  Plan.mul_vec (Plan.compile_as "mul_vec" md ss) x

let row_sums md ss = Plan.row_sums (Plan.compile_as "row_sums" md ss)

let diag md ss = Plan.diag (Plan.compile_as "diag" md ss)

let to_csr md ss = Plan.to_csr (Plan.compile_as "to_csr" md ss)
