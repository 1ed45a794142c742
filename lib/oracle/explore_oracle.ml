module Prng = Mdl_util.Prng
module Csr = Mdl_sparse.Csr
module Partition = Mdl_partition.Partition
module Statespace = Mdl_md.Statespace
module Md_vector = Mdl_md.Md_vector
module Model = Mdl_san.Model
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional

let random_model seed =
  let rng = Prng.create (Int64.of_int seed) in
  let ncomp = 1 + Prng.int rng 3 in
  let caps = Array.init ncomp (fun _ -> 1 + Prng.int rng 3) in
  let components =
    Array.init ncomp (fun k -> { Model.name = Printf.sprintf "c%d" k; initial = [| 0 |] })
  in
  let effect_of_kind cap kind =
    match kind with
    | 0 -> Model.identity_effect
    | 1 -> fun s -> if s.(0) < cap then [ ([| s.(0) + 1 |], 1.0) ] else []
    | 2 -> fun s -> if s.(0) > 0 then [ ([| s.(0) - 1 |], 1.0) ] else []
    | 3 -> fun s -> if s.(0) > 0 then [ ([| 0 |], 1.0) ] else []
    | 4 ->
        (* probabilistic branch: up or reset *)
        fun s ->
          if s.(0) > 0 && s.(0) < cap then [ ([| s.(0) + 1 |], 0.5); ([| 0 |], 0.5) ] else []
    | _ -> fun s -> if s.(0) <= 1 then [ ([| 1 - s.(0) |], 1.0) ] else []
  in
  let nevents = 1 + Prng.int rng 5 in
  let events =
    List.init nevents (fun e ->
        {
          Model.label = Printf.sprintf "e%d" e;
          rate = float_of_int (1 + Prng.int rng 3);
          effects = Array.init ncomp (fun k -> effect_of_kind caps.(k) (Prng.int rng 6));
        })
  in
  Model.make ~components ~events

let draw_seed rng =
  let rec draw tries =
    let seed = Prng.int rng 1_000_000 in
    if tries = 0
       || Statespace.size (Model.explore_symbolic (random_model seed)).Model.statespace > 1
    then seed
    else draw (tries - 1)
  in
  draw 15

let lump_statespace r ss = Statespace.map ss (Compositional.class_tuple r)

let is_closed r ss =
  let counts = Hashtbl.create (Statespace.size ss) in
  Statespace.iter
    (fun _ s ->
      let ct = Compositional.class_tuple r s in
      let n = Option.value ~default:0 (Hashtbl.find_opt counts ct) in
      Hashtbl.replace counts ct (n + 1))
    ss;
  Hashtbl.fold (fun ct n ok -> ok && n = Compositional.class_volume r ct) counts true

type fault = Swap_index | Flip_closure | Flip_coefficient

type outcome = {
  model : string;
  states : int;
  violations : Invariants.violation list;
  injected : bool;
}

let same_space a b =
  Statespace.size a = Statespace.size b
  &&
  let same = ref true in
  Statespace.iter (fun i s -> if Statespace.tuple b i <> s then same := false) a;
  !same

let check ?fault seed =
  let violations = ref [] in
  let fail check fmt =
    Printf.ksprintf
      (fun detail -> violations := { Invariants.check; detail } :: !violations)
      fmt
  in
  let m = random_model seed in
  let e1 = Model.explore ~max_states:100_000 m in
  let e2 = Model.explore_symbolic ~max_states:100_000 m in
  let ss1 = e1.Model.statespace and ss2 = e2.Model.statespace in
  let n = Statespace.size ss2 in
  let md = Model.md_of e2 in
  let entries = Build_oracle.num_entries md in
  let injected =
    match fault with
    | Some Swap_index -> n >= 2
    | Some Flip_closure -> true
    | Some Flip_coefficient -> entries > 0
    | None -> false
  in
  let sym_index s =
    match (fault, Statespace.index ss2 s) with
    | Some Swap_index, Some i when i < 2 -> Some (1 - i)
    | _, r -> r
  in
  let sym_closed r ss = Compositional.is_closed r ss <> (fault = Some Flip_closure) in
  if e1.Model.local_spaces <> e2.Model.local_spaces then fail "locals" "local spaces differ";
  if e1.Model.initial_tuple <> e2.Model.initial_tuple then
    fail "locals" "initial tuples differ";
  if Statespace.size ss1 <> n then
    fail "index" "explicit %d states, symbolic %d" (Statespace.size ss1) n
  else
    Statespace.iter
      (fun i s ->
        if Statespace.tuple ss2 i <> s then fail "index" "state %d differs" i;
        if sym_index s <> Some i then fail "index" "symbolic index of state %d wrong" i;
        if Statespace.index ss1 (Statespace.tuple ss1 i) <> Some i then
          fail "index" "explicit index of state %d wrong" i)
      ss1;
  let built =
    if fault = Some Flip_coefficient && entries > 0 then
      Build_oracle.flip_bit md (seed mod entries)
    else md
  in
  let reference = Build_oracle.md_of e2.Model.descriptor in
  violations := List.rev_append (Build_oracle.check built ~reference) !violations;
  if not (Csr.equal (Md_vector.to_csr (Model.md_of e1) ss1) (Md_vector.to_csr md ss2)) then
    fail "flatten" "flattened matrices differ";
  (* Partitions: the lumping result's (a protected level-1 reward), and
     trivial, discrete and seeded random ones per level. *)
  let sizes = Array.map Array.length e2.Model.local_spaces in
  let reward =
    Decomposed.of_level ~sizes ~level:1 (fun i -> float_of_int e2.Model.local_spaces.(0).(i).(0))
  in
  let r =
    Compositional.lump Ordinary md ~rewards:[ reward ]
      ~initial:(Decomposed.point ~sizes e2.Model.initial_tuple)
  in
  let rng = Prng.create (Int64.of_int (seed + 1)) in
  let random_partition k =
    Partition.of_class_assignment (Array.init k (fun _ -> Prng.int rng 2))
  in
  List.iter
    (fun (name, partitions) ->
      let r = { r with Compositional.partitions } in
      if not (same_space (lump_statespace r ss2) (Compositional.lump_statespace r ss2)) then
        fail "lump-statespace" "%s partitions: lumped state spaces differ" name;
      let expected = is_closed r ss2 in
      if sym_closed r ss2 <> expected then
        fail "closure" "%s partitions: closure says %b, reference %b" name (not expected)
          expected)
    [
      ("lumping", r.Compositional.partitions);
      ("trivial", Array.map Partition.trivial sizes);
      ("discrete", Array.map Partition.discrete sizes);
      ("random", Array.map random_partition sizes);
    ];
  {
    model = Printf.sprintf "san{seed=%d}" seed;
    states = n;
    violations = List.rev !violations;
    injected;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%s: %d states, explore_symbolic vs explore" o.model o.states;
  List.iter
    (fun v -> Format.fprintf ppf "@,  VIOLATION %a" Invariants.pp_violation v)
    o.violations;
  Format.fprintf ppf "@]"
