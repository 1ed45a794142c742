module Prng = Mdl_util.Prng
module Csr = Mdl_sparse.Csr
module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Statespace = Mdl_md.Statespace
module Plan = Mdl_md.Md_vector.Plan
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional

(* Co-walk the diagram with row/column cursors in the state space's
   counted MDD, accumulating path offsets; [emit] is called once per
   terminal path with the final (row index, column index, rate), in the
   order of [Md.iter_entries]. *)
let co_walk md ss emit =
  let nlevels = Md.levels md in
  if Statespace.levels ss <> nlevels then
    invalid_arg "Product_oracle.co_walk: level count mismatch";
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
  let y = Array.make (Statespace.size ss) 0.0 in
  co_walk md ss (fun i j v -> if x.(i) <> 0.0 then y.(j) <- y.(j) +. (x.(i) *. v));
  y

let mul_vec md ss x =
  let y = Array.make (Statespace.size ss) 0.0 in
  co_walk md ss (fun i j v -> if x.(j) <> 0.0 then y.(i) <- y.(i) +. (v *. x.(j)));
  y

let row_sums md ss =
  let sums = Array.make (Statespace.size ss) 0.0 in
  co_walk md ss (fun i _ v -> sums.(i) <- sums.(i) +. v);
  sums

let diag md ss =
  let d = Array.make (Statespace.size ss) 0.0 in
  co_walk md ss (fun i j v -> if i = j then d.(i) <- d.(i) +. v);
  d

let to_csr md ss =
  let n = Statespace.size ss in
  Csr.of_entry_iter ~rows:n ~cols:n (co_walk md ss)

let random_subset prng md =
  let sizes = Md.sizes md in
  let tuples = ref [] in
  let rec enum level acc =
    if level < 0 then begin
      if Prng.int prng 4 > 0 then tuples := Array.of_list acc :: !tuples
    end
    else
      for s = sizes.(level) - 1 downto 0 do
        enum (level - 1) (s :: acc)
      done
  in
  enum (Array.length sizes - 1) [];
  let tuples = if !tuples = [] then [ Array.make (Array.length sizes) 0 ] else !tuples in
  Statespace.of_tuples ~levels:(Array.length sizes) tuples

type fault = Shift_col

(* Shift one column offset of a fresh plan: down by one where an offset
   is positive (the column stays in range, in an earlier arc's block),
   else up by one. *)
let shift_col (p : Plan.t) =
  let off = p.Plan.col_off in
  let n = Array.length off in
  let rec positive k = if k = n || off.(k) > 0 then k else positive (k + 1) in
  match positive 0 with
  | _ when n = 0 -> false
  | k when k < n ->
      off.(k) <- off.(k) - 1;
      true
  | _ ->
      off.(0) <- 1;
      true

let check ?fault ~what prng md ss =
  let violations = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun detail ->
        violations := { Invariants.check = "product"; detail = what ^ ": " ^ detail } :: !violations)
      fmt
  in
  let plan = Plan.compile md ss in
  let injected = match fault with Some Shift_col -> shift_col plan | None -> false in
  let n = Statespace.size ss in
  (* Some exact zeros, so the [x.(i) <> 0.] skip is exercised. *)
  let x = Array.init n (fun _ -> if Prng.int prng 4 = 0 then 0.0 else Prng.float prng 1.0) in
  let same name got expected =
    match got () with
    | v -> if v <> expected then fail "%s differs from the reference co-walk" name
    | exception Invalid_argument msg -> fail "%s raised %s" name msg
  in
  same "vec_mul" (fun () -> Plan.vec_mul plan x) (vec_mul md ss x);
  same "mul_vec" (fun () -> Plan.mul_vec plan x) (mul_vec md ss x);
  same "row_sums" (fun () -> Plan.row_sums plan) (row_sums md ss);
  same "diag" (fun () -> Plan.diag plan) (diag md ss);
  (match Plan.to_csr plan with
  | m -> if not (Csr.equal m (to_csr md ss)) then fail "to_csr differs from the reference co-walk"
  | exception Invalid_argument msg -> fail "to_csr raised %s" msg);
  (List.rev !violations, injected)

type outcome = {
  model : string;
  states : int;
  lumped_states : int;
  violations : Invariants.violation list;
  injected : bool;
}

let check_spec ?fault prng spec =
  let md = Gen_md.of_spec spec in
  let ss = random_subset (Prng.fork prng 0) md in
  let sizes = Md.sizes md in
  let r =
    Compositional.lump Ordinary md ~rewards:[] ~initial:(Decomposed.constant ~sizes 1.0)
  in
  let lumped_ss = Compositional.lump_statespace r ss in
  let v1, i1 = check ?fault ~what:"diagram" (Prng.fork prng 1) md ss in
  let v2, i2 =
    check ?fault ~what:"lumped" (Prng.fork prng 2) r.Compositional.lumped lumped_ss
  in
  {
    model = Spec.to_string spec;
    states = Statespace.size ss;
    lumped_states = Statespace.size lumped_ss;
    violations = v1 @ v2;
    injected = i1 || i2;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%s: %d states (%d lumped), plan vs co-walk products" o.model
    o.states o.lumped_states;
  List.iter
    (fun v -> Format.fprintf ppf "@,  VIOLATION %a" Invariants.pp_violation v)
    o.violations;
  Format.fprintf ppf "@]"
