module Partition = Mdl_partition.Partition
module Csr = Mdl_sparse.Csr
module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module State_lumping = Mdl_lumping.State_lumping
module Floatx = Mdl_util.Floatx
module Local_key = Mdl_core.Local_key
module Key_cache = Mdl_core.Key_cache
module Level_lumping = Mdl_core.Level_lumping
module Compositional = Mdl_core.Compositional
module Decomposed = Mdl_core.Decomposed

type slice = int array * int * int

type 'k spec = {
  size : int;
  key_compare : 'k -> 'k -> int;
  splitter_keys : slice -> (int * 'k) list;
}

(* ---- the seed engine ---- *)

(* The seed's list-based refinement engine, kept verbatim as the
   differential baseline: the property tests pin the production engines
   ({!Mdl_partition.Refiner}) to this one's fixed point, and bench/refine
   measures the float pipeline's speedup against it.  Known
   inefficiencies are the point — do not optimise this section. *)

(* Group an association list [(state, key)] into lists of states with
   cmp-equal keys. *)
let group_by_key cmp keyed =
  let arr = Array.of_list keyed in
  let by_key (k1, x1) (k2, x2) =
    let c = cmp k1 k2 in
    if c <> 0 then c else compare x1 x2
  in
  Array.sort (fun (x1, k1) (x2, k2) -> by_key (k1, x1) (k2, x2)) arr;
  let groups = ref [] and current = ref [] in
  Array.iteri
    (fun idx (x, k) ->
      (if idx > 0 then
         let _, prev_k = arr.(idx - 1) in
         if cmp prev_k k <> 0 then begin
           groups := Array.of_list (List.rev !current) :: !groups;
           current := []
         end);
      current := x :: !current)
    arr;
  if !current <> [] then groups := Array.of_list (List.rev !current) :: !groups;
  List.rev !groups

let split_by_splitter spec p splitter worklist =
  let keyed = spec.splitter_keys (splitter, 0, Array.length splitter) in
  (* Bucket touched states by their (current) class. *)
  let by_class = Hashtbl.create 16 in
  List.iter
    (fun (s, k) ->
      let c = Partition.class_of p s in
      match Hashtbl.find_opt by_class c with
      | Some b -> b := (s, k) :: !b
      | None -> Hashtbl.add by_class c (ref [ (s, k) ]))
    keyed;
  let affected = Hashtbl.fold (fun c b acc -> (c, !b) :: acc) by_class [] in
  List.iter
    (fun (c, touched) ->
      let touched_set = Hashtbl.create (List.length touched) in
      List.iter (fun (s, _) -> Hashtbl.replace touched_set s ()) touched;
      let untouched =
        Array.to_list (Partition.elements p c)
        |> List.filter (fun s -> not (Hashtbl.mem touched_set s))
      in
      let key_groups = group_by_key spec.key_compare touched in
      let groups =
        match untouched with [] -> key_groups | _ -> Array.of_list untouched :: key_groups
      in
      if List.length groups > 1 then begin
        let ids = Partition.split p c groups in
        List.iter (fun id -> Queue.add (Partition.elements p id) worklist) ids
      end)
    affected

let comp_lumping spec ~initial =
  if Partition.size initial <> spec.size then
    invalid_arg "Refine_oracle.comp_lumping: partition size mismatch";
  let p = Partition.of_class_assignment (Partition.to_class_assignment initial) in
  let worklist = Queue.create () in
  for c = 0 to Partition.num_classes p - 1 do
    Queue.add (Partition.elements p c) worklist
  done;
  while not (Queue.is_empty worklist) do
    let splitter = Queue.pop worklist in
    split_by_splitter spec p splitter worklist
  done;
  p

let is_stable spec p =
  let stable = ref true in
  for splitter = 0 to Partition.num_classes p - 1 do
    let keyed = spec.splitter_keys (Partition.view p splitter) in
    let key_of = Hashtbl.create 16 in
    List.iter (fun (s, k) -> Hashtbl.replace key_of s k) keyed;
    for c = 0 to Partition.num_classes p - 1 do
      let first = Hashtbl.find_opt key_of (Partition.representative p c) in
      Partition.iter_class
        (fun s ->
          let k = Hashtbl.find_opt key_of s in
          let same =
            match (first, k) with
            | None, None -> true
            | Some k1, Some k2 -> spec.key_compare k1 k2 = 0
            | None, Some _ | Some _, None -> false
          in
          if not same then stable := false)
        p c
    done
  done;
  !stable

(* ---- flat (state-level) keys ---- *)

(* Accumulate, for splitter class [c], the nonzero sums
   sum_{j in c} m(s, j) per state s, where [m] is R for exact keys over
   the transpose, or R^T for ordinary keys (columns of R).  [m] must be
   the matrix whose row [j] lists the states touched by member [j]. *)
let class_sums m (perm, first, len) =
  let acc = Hashtbl.create 64 in
  for i = first to first + len - 1 do
    Csr.iter_row m perm.(i) (fun s v ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc s) in
        Hashtbl.replace acc s (prev +. v))
  done;
  Hashtbl.fold (fun s v l -> if v <> 0.0 then (s, v) :: l else l) acc []

let state_spec ?eps mode r =
  if Csr.rows r <> Csr.cols r then invalid_arg "Refine_oracle.state_spec: not square";
  (* Ordinary: K(R, s, C) = R(s, C) = sum over j in C of R(s, j); the
     touched states of splitter C are the predecessors of C, found by
     walking columns of R, i.e. rows of R^T.  Exact: K(R, s, C) =
     R(C, s); touched states are successors, rows of R itself.  Keys are
     grouped through the quantized representative — compare_approx is
     not transitive and must not order a sort (see {!Mdl_util.Floatx}). *)
  let walk =
    match mode with State_lumping.Ordinary -> Csr.transpose r | State_lumping.Exact -> r
  in
  {
    size = Csr.rows r;
    key_compare =
      (fun a b -> Float.compare (Floatx.quantize ?eps a) (Floatx.quantize ?eps b));
    splitter_keys = (fun c -> class_sums walk c);
  }

(* ---- matrix-diagram level keys ---- *)

let splitter_keys ?eps ?skip ctx choice mode node slice =
  let states, keys = Local_key.eval_keys ?eps ?skip ctx choice mode node slice in
  List.init (Array.length states) (fun i -> (states.(i), keys.(i)))

(* [splitter_keys] emits quantized canonical keys, so the spec can
   compare exactly. *)
let node_spec ?eps ctx choice mode md node =
  {
    size = Md.size md (Md.node_level md node);
    key_compare = Local_key.compare_exact;
    splitter_keys = (fun c -> splitter_keys ?eps ctx choice mode node c);
  }

let full_row_sum md node s = Formal_sum.sum (List.map snd (Md.node_row md node s))

let check_level md level fn =
  if level < 1 || level > Md.levels md then
    invalid_arg (Printf.sprintf "Refine_oracle.%s: level out of range" fn)

let is_locally_lumpable ?eps mode md ~level p =
  check_level md level "is_locally_lumpable";
  let nodes = (Md.live_nodes md).(level - 1) in
  let ctx = Local_key.make_context md in
  List.for_all
    (fun node ->
      is_stable (node_spec ?eps ctx Local_key.Formal_sums mode md node) p
      &&
      (* Exact lumping additionally requires constant full-row sums
         (Eq. 4 of Definition 3). *)
      match mode with
      | State_lumping.Ordinary -> true
      | State_lumping.Exact ->
          Array.for_all
            (fun members ->
              let reference = full_row_sum md node members.(0) in
              Array.for_all
                (fun s ->
                  Formal_sum.compare_approx ?eps reference (full_row_sum md node s) = 0)
                members)
            (Partition.classes p))
    nodes

(* The same canonical numbering as the production fixed point: the
   identity partition when nothing lumps, first-appearance ids
   otherwise. *)
let canonical p =
  if Partition.num_classes p = Partition.size p then Partition.discrete (Partition.size p)
  else Partition.of_class_assignment (Partition.to_class_assignment p)

let comp_lumping_level ?eps ?(key = Local_key.Formal_sums) mode md ~level ~initial =
  check_level md level "comp_lumping_level";
  let nodes = (Md.live_nodes md).(level - 1) in
  let ctx = Local_key.make_context md in
  let pass p =
    List.fold_left
      (fun p node -> comp_lumping (node_spec ?eps ctx key mode md node) ~initial:p)
      p nodes
  in
  let rec fix p =
    let p' = pass p in
    if Partition.equal p p' then p' else fix p'
  in
  canonical (fix initial)

(* ---- the from-scratch rebuild ---- *)

let rebuild mode md partitions =
  let nlevels = Md.levels md in
  let out = Md.create ~sizes:(Array.map Partition.num_classes partitions) in
  let node_map = Hashtbl.create 64 in
  Hashtbl.add node_map (Md.terminal md) (Md.terminal out);
  let remap child =
    match Hashtbl.find_opt node_map child with
    | Some id -> id
    | None -> invalid_arg "Refine_oracle.rebuild: dangling child reference"
  in
  let live = Md.live_nodes md in
  for level = nlevels downto 1 do
    let p = partitions.(level - 1) in
    List.iter
      (fun node ->
        let entries = ref [] in
        (match mode with
        | State_lumping.Ordinary ->
            (* Representative rows, class-summed columns. *)
            for ci = 0 to Partition.num_classes p - 1 do
              let rep = Partition.representative p ci in
              List.iter
                (fun (c, sum) ->
                  entries :=
                    (ci, Partition.class_of p c, Formal_sum.map_children remap sum)
                    :: !entries)
                (Md.node_row md node rep)
            done
        | State_lumping.Exact ->
            (* Aggregated form: all entries, scaled by 1/|C_row|. *)
            Md.iter_node_entries md node (fun r c sum ->
                let ci = Partition.class_of p r in
                let w = 1.0 /. float_of_int (Partition.class_size p ci) in
                entries :=
                  ( ci,
                    Partition.class_of p c,
                    Formal_sum.scale w (Formal_sum.map_children remap sum) )
                  :: !entries));
        let new_id = Md.add_node out ~level !entries in
        Hashtbl.replace node_map node new_id)
      live.(level - 1)
  done;
  Md.set_root out (remap (Md.root md));
  out

let lump ?eps ?key mode md ~rewards ~initial =
  let partitions =
    Array.init (Md.levels md) (fun i ->
        let level = i + 1 in
        let p_ini = Level_lumping.initial_partition ?eps mode md ~level ~rewards ~initial in
        comp_lumping_level ?eps ?key mode md ~level ~initial:p_ini)
  in
  { Compositional.lumped = rebuild mode md partitions; partitions }

(* ---- the differential check ---- *)

type fault = Flip_gid

type outcome = {
  model : string;
  mode : State_lumping.mode;
  violations : Invariants.violation list;
  injected : bool;
}

let mode_name = function State_lumping.Ordinary -> "ordinary" | State_lumping.Exact -> "exact"

let key_name = function
  | Local_key.Formal_sums -> "formal"
  | Local_key.Expanded_matrices -> "expanded"

(* The oracle's lump inputs: a protected last-level indicator reward in
   ordinary mode, so the initial partitions are not all trivial. *)
let inputs mode md =
  let sizes = Md.sizes md in
  let rewards =
    match mode with
    | State_lumping.Ordinary ->
        [
          Decomposed.of_level ~sizes ~level:(Array.length sizes) (fun s ->
              if s = 0 then 1.0 else 0.0);
        ]
    | State_lumping.Exact -> [ Decomposed.constant ~sizes 0.0 ]
  in
  (rewards, Decomposed.constant ~sizes 1.0)

(* Corrupt the row the level's first refinement pass looks up — first
   live node, splitter class 0 of the initial partition, whose slice the
   engine's id-preserving copy reproduces exactly — by giving one state a
   gid no other state of the row has.  The state is chosen in a class of
   [final] (the reference fixed point) with at least two members, so the
   corruption splits it from a state it must stay with: a production run
   on this cache can never return [final].  [None] when no such state is
   in the row. *)
let flip_gid kc key mode md ~level ~initial ~final =
  match (Md.live_nodes md).(level - 1) with
  | [] -> None
  | node :: _ ->
      if Partition.num_classes initial = 0 then None
      else
        let states, gids =
          Key_cache.splitter_keys kc key mode ~node (Partition.view initial 0)
        in
        let movable s = Partition.class_size final (Partition.class_of final s) >= 2 in
        let rec find i =
          if i = Array.length states then None
          else if movable states.(i) then Some i
          else find (i + 1)
        in
        Option.map
          (fun i -> gids.(i) <- 1 + Array.fold_left max 0 gids)
          (find 0)

let same_partition a b = Partition.to_class_assignment a = Partition.to_class_assignment b

let check ?fault ?pool ?par_threshold mode spec =
  let md = Gen_md.of_spec spec in
  let rewards, initial = inputs mode md in
  let violations = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun detail -> violations := { Invariants.check = "refine"; detail } :: !violations)
      fmt
  in
  let injected = ref false in
  List.iter
    (fun key ->
      let kn = key_name key in
      let reference = lump ~key mode md ~rewards ~initial in
      (* Level scope, through a cache the oracle binds itself — where
         the fault goes. *)
      for level = 1 to Md.levels md do
        let p_ini = Level_lumping.initial_partition mode md ~level ~rewards ~initial in
        let final = reference.Compositional.partitions.(level - 1) in
        let kc = Key_cache.create () in
        Key_cache.bind ~choice:key ~mode kc md;
        (match fault with
        | Some Flip_gid when not !injected ->
            if flip_gid kc key mode md ~level ~initial:p_ini ~final <> None then
              injected := true
        | _ -> ());
        let p = Level_lumping.comp_lumping_level ~key ~cache:kc mode md ~level ~initial:p_ini in
        if not (same_partition p final) then
          fail "%s keys, level %d: comp_lumping_level gives %d classes, the reference %d"
            kn level (Partition.num_classes p) (Partition.num_classes final)
      done;
      let r = Compositional.lump ~key ?pool ?par_threshold mode md ~rewards ~initial in
      Array.iteri
        (fun i p ->
          if not (same_partition p reference.Compositional.partitions.(i)) then
            fail "%s keys: lump partition of level %d differs from the reference" kn (i + 1))
        r.Compositional.partitions;
      if not (Md.equal r.Compositional.lumped reference.Compositional.lumped) then
        fail "%s keys: lumped diagram not Md.equal to the reference rebuild" kn)
    [ Local_key.Formal_sums; Local_key.Expanded_matrices ];
  {
    model = Spec.to_string spec;
    mode;
    violations = List.rev !violations;
    injected = !injected;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%s (%s): production refinement vs the seed-engine reference"
    o.model (mode_name o.mode);
  List.iter
    (fun v -> Format.fprintf ppf "@,  VIOLATION %a" Invariants.pp_violation v)
    o.violations;
  Format.fprintf ppf "@]"
