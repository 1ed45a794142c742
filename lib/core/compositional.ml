let log_src = Logs.Src.create "mdl.lump" ~doc:"compositional MD lumping"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum
module Statespace = Mdl_md.Statespace
module Set_mdd = Mdl_md.Set_mdd
module Partition = Mdl_partition.Partition
module Refiner = Mdl_partition.Refiner
module Trace = Mdl_obs.Trace
module Metrics = Mdl_obs.Metrics
module Domain_pool = Mdl_util.Domain_pool

let c_nodes_rebuilt = Metrics.counter "rebuild.nodes_rebuilt"

let c_nodes_reused = Metrics.counter "rebuild.nodes_reused"

let c_lumps = Metrics.counter "lump.runs"

let c_sweep_points = Metrics.counter "sweep.points"

let c_sweep_level_fixpoints = Metrics.counter "sweep.level_fixpoints"

let c_sweep_level_reused = Metrics.counter "sweep.level_reused"

let c_sweep_rebuilds = Metrics.counter "sweep.rebuilds"

let c_sweep_rebuild_reused = Metrics.counter "sweep.rebuild_reused"

let m_sweep_point_seconds =
  Metrics.histogram ~buckets:(Metrics.log_buckets ~lo:1e-6 ~hi:10.0 ~per_decade:3)
    "sweep.point_seconds"

type result = {
  lumped : Md.t;
  partitions : Partition.t array;
}

(* A level partition is the identity when every state is its own class
   id.  Only then may class ids be used interchangeably with state ids,
   which is what the verbatim-reuse paths below rely on; a discrete but
   renumbered partition (possible through [lump_with_partitions]) does
   not qualify.  [Level_lumping.comp_lumping_level] canonicalises its
   discrete results to the identity, so lump runs always hit the fast
   path when a level does not lump. *)
let is_identity p =
  let n = Partition.size p in
  Partition.num_classes p = n
  &&
  let ok = ref true in
  for s = 0 to n - 1 do
    if Partition.class_of p s <> s then ok := false
  done;
  !ok

let bump_rebuilt stats n =
  Metrics.add c_nodes_rebuilt n;
  match stats with
  | Some st -> st.Refiner.nodes_rebuilt <- st.Refiner.nodes_rebuilt + n
  | None -> ()

let bump_reused stats n =
  Metrics.add c_nodes_reused n;
  match stats with
  | Some st -> st.Refiner.nodes_reused <- st.Refiner.nodes_reused + n
  | None -> ()

(* How many pool tasks to cut [n] work items into: enough for dynamic
   load balancing, bounded so per-task overhead stays negligible. *)
let task_count pool n = min n (4 * Domain_pool.size pool)

let rebuild_body ?stats ?(incremental = true) ?pool ?(par_threshold = 1024) mode md
    partitions =
  let nlevels = Md.levels md in
  (* [incremental:false] restores the from-scratch rebuild (every node
     reconstructed entry by entry) — the faithful uncached baseline the
     bench races the memoised path against. *)
  let identity =
    if incremental then Array.map is_identity partitions
    else Array.map (fun _ -> false) partitions
  in
  if Array.for_all Fun.id identity then begin
    (* Nothing lumps at any level: the lumped diagram is the input
       diagram itself.  Alias it (the result shares the node store)
       instead of copying node by node. *)
    bump_reused stats (Md.num_live_nodes md);
    md
  end
  else begin
    let new_sizes = Array.map Partition.num_classes partitions in
    let out = Md.create ~sizes:new_sizes in
    let node_map = Hashtbl.create 64 in
    Hashtbl.add node_map (Md.terminal md) (Md.terminal out);
    let remap child =
      match Hashtbl.find_opt node_map child with
      | Some id -> id
      | None -> invalid_arg "Compositional.rebuild: dangling child reference"
    in
    let live = Md.live_nodes md in
    for level = nlevels downto 1 do
      let p = partitions.(level - 1) in
      if identity.(level - 1) then
        (* Identity level: every quotient node is the original node with
           children remapped — import verbatim, skipping the quotient
           entry construction and [add_node]'s validation/sort. *)
        List.iter
          (fun node ->
            Hashtbl.replace node_map node (Md.import_node out ~level md node remap);
            bump_reused stats 1)
          live.(level - 1)
      else if incremental then begin
        (* Fast quotient build: flat class-indexed accumulation emitted
           through the raw sorted-rows constructor, skipping
           [add_node]'s per-entry validation/sort.  Entries are
           folded in {e descending} (row, col) order — the order
           [add_node] combines a consed entry list in — so the
           floating-point coefficients come out bit-identical to the
           from-scratch path and both paths hash-cons to equal
           diagrams. *)
        let nc = Partition.num_classes p in
        (* Per-node quotient rows are computed independently (per-task
           scratch, untouched per-node fold order), so they can be
           produced on any domain; the [add_node_sorted_rows] commits —
           hash-consing into the shared store — run on this domain in
           node order, which keeps node ids, cons-table state and the
           [node_map] exactly as the sequential build makes them. *)
        let build =
          match mode with
          | Mdl_lumping.State_lumping.Ordinary ->
              (* Representative rows, class-summed columns. *)
              fun () ->
                let acc = Array.make nc Formal_sum.empty in
                let seen = Array.make nc false in
                fun node ->
                  let rows = Array.make nc [||] in
                  for ci = 0 to nc - 1 do
                    let rep = Partition.representative p ci in
                    let cols = ref [] in
                    Md.rev_iter_node_row md node rep (fun c sum ->
                        let cj = Partition.class_of p c in
                        if not seen.(cj) then begin
                          seen.(cj) <- true;
                          cols := cj :: !cols
                        end;
                        acc.(cj) <-
                          Formal_sum.add acc.(cj) (Formal_sum.map_children remap sum));
                    let row =
                      List.filter_map
                        (fun cj ->
                          let s = acc.(cj) in
                          acc.(cj) <- Formal_sum.empty;
                          seen.(cj) <- false;
                          if Formal_sum.is_empty s then None else Some (cj, s))
                        (List.sort compare !cols)
                    in
                    rows.(ci) <- Array.of_list row
                  done;
                  rows
          | Mdl_lumping.State_lumping.Exact ->
              (* Aggregated form: all entries, scaled by 1/|C_row|,
                 accumulated sparsely per class pair (a dense [nc * nc]
                 scratch is tens of MB at paper scale). *)
              fun () ->
                let acc = Hashtbl.create 64 in
                fun node ->
                  Md.rev_iter_node_entries md node (fun r c sum ->
                      let ci = Partition.class_of p r in
                      let w = 1.0 /. float_of_int (Partition.class_size p ci) in
                      let idx = (ci * nc) + Partition.class_of p c in
                      let prev = Option.value ~default:Formal_sum.empty (Hashtbl.find_opt acc idx) in
                      Hashtbl.replace acc idx
                        (Formal_sum.add prev
                           (Formal_sum.scale w (Formal_sum.map_children remap sum))));
                  let per_row = Array.make nc [] in
                  (* Descending index order, so each row list conses up
                     ascending. *)
                  List.iter
                    (fun idx ->
                      let s = Hashtbl.find acc idx in
                      if not (Formal_sum.is_empty s) then
                        per_row.(idx / nc) <- ((idx mod nc), s) :: per_row.(idx / nc))
                    (List.sort
                       (fun a b -> compare (b : int) a)
                       (Hashtbl.fold (fun idx _ l -> idx :: l) acc []));
                  Hashtbl.reset acc;
                  Array.map Array.of_list per_row
        in
        let nodes = Array.of_list live.(level - 1) in
        let nnodes = Array.length nodes in
        let commit rows_of =
          Array.iteri
            (fun i node ->
              Hashtbl.replace node_map node (Md.add_node_sorted_rows out ~level (rows_of i));
              bump_rebuilt stats 1)
            nodes
        in
        match pool with
        | Some pool
          when Domain_pool.size pool > 1 && nnodes > 1 && nnodes * nc >= par_threshold ->
            let results = Array.make nnodes [||] in
            let tasks = task_count pool nnodes in
            Domain_pool.run pool ~n:tasks (fun t ->
                let lo, hi = Domain_pool.split ~n:nnodes ~tasks t in
                let build_node = build () in
                for i = lo to hi - 1 do
                  results.(i) <- build_node nodes.(i)
                done);
            commit (fun i -> results.(i))
        | _ ->
            let build_node = build () in
            commit (fun i -> build_node nodes.(i))
      end
      else
        List.iter
          (fun node ->
            let entries = ref [] in
            (match mode with
            | Mdl_lumping.State_lumping.Ordinary ->
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
            | Mdl_lumping.State_lumping.Exact ->
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
            Hashtbl.replace node_map node new_id;
            bump_rebuilt stats 1)
          live.(level - 1)
    done;
    Md.set_root out (remap (Md.root md));
    out
  end

let rebuild ?stats ?incremental ?pool ?par_threshold mode md partitions =
  if not (Trace.enabled ()) then
    rebuild_body ?stats ?incremental ?pool ?par_threshold mode md partitions
  else
    Trace.with_span ~cat:"lump" "lump.rebuild" (fun () ->
        let out = rebuild_body ?stats ?incremental ?pool ?par_threshold mode md partitions in
        Trace.add_args
          [
            ("nodes_in", Trace.Int (Md.num_live_nodes md));
            ("nodes_out", Trace.Int (Md.num_live_nodes out));
            ("aliased", Trace.Bool (out == md));
          ];
        out)

let lump_with_partitions ?stats ?incremental ?pool ?par_threshold mode md partitions =
  if Array.length partitions <> Md.levels md then
    invalid_arg "Compositional.lump_with_partitions: level count mismatch";
  Array.iteri
    (fun i p ->
      if Partition.size p <> Md.size md (i + 1) then
        invalid_arg "Compositional.lump_with_partitions: partition size mismatch")
    partitions;
  { lumped = rebuild ?stats ?incremental ?pool ?par_threshold mode md partitions; partitions }

let lump_body ?eps ?key ?stats ~specialised ~memoise ?cache ?pool ?par_threshold mode
    md ~rewards ~initial =
  (* The key cache rides on the interned pipeline; under the generic
     baseline (or with memoisation off) no cache is used at all. *)
  let cache =
    if not (memoise && specialised) then None
    else Some (match cache with Some c -> c | None -> Key_cache.create ())
  in
  (* Rebinding retires the memoised rows (an epoch bump on a persistent
     cache, a wipe otherwise): per-bind entries are only sound within
     one monotone refinement run per level.  The intern tables and
     (same-md) flatten context survive the rebind.  Binding with the
     run's configuration makes a mismatched shared cache fail loudly
     here instead of deep inside a splitter pass. *)
  let choice = Option.value key ~default:Local_key.Formal_sums in
  (match cache with Some c -> Key_cache.bind ?eps ~choice ~mode c md | None -> ());
  (* Arm (or disarm, so a cache reused across runs never keeps a stale
     pool) intra-node splitter-key sharding on the cache; per-level
     forks below inherit the setting. *)
  (match cache with Some c -> Key_cache.set_pool ?par_threshold c pool | None -> ());
  let nlevels = Md.levels md in
  (* Levels are algorithmically independent — each computes its own
     initial partition and fixed point from [md] alone — so they can
     refine concurrently, each level running the untouched sequential
     code on its own domain with its own cache fork and stats record.
     The global trace buffer is the one piece of observability that is
     not domain-safe, so tracing runs fall back to sequential levels
     (intra-level sharding below never emits spans and stays on). *)
  let level_parallel =
    match pool with
    | Some pl -> Domain_pool.size pl > 1 && nlevels > 1 && not (Trace.enabled ())
    | None -> false
  in
  let partitions =
    if level_parallel then begin
      let pl = Option.get pool in
      (* The column cache fills lazily under splitter-key walks; fill it
         from this domain first so every later [node_col] is a pure
         read, from any domain. *)
      Md.warm_col_cache md;
      let results = Array.make nlevels None in
      Domain_pool.run pl ~n:nlevels (fun i ->
          let level = i + 1 in
          let p_ini =
            Level_lumping.initial_partition ?eps mode md ~level ~rewards ~initial
          in
          let level_stats = Refiner.create_stats () in
          let fork = Option.map Key_cache.fork cache in
          let p =
            Level_lumping.comp_lumping_level ?eps ?key ~stats:level_stats ~specialised
              ?cache:fork ?pool mode md ~level ~initial:p_ini
          in
          results.(i) <- Some (p, level_stats));
      Array.mapi
        (fun i r ->
          match r with
          | None -> assert false
          | Some (p, level_stats) ->
              (* Merge in level order: the accumulated totals then equal
                 a sequential run's, whatever order the levels actually
                 finished in. *)
              Log.debug (fun m ->
                  m "level %d: %d -> %d classes [refiner: %a]" (i + 1)
                    (Partition.size p)
                    (Partition.num_classes p)
                    Refiner.pp_stats level_stats);
              (match stats with
              | Some dst -> Refiner.add_stats dst level_stats
              | None -> ());
              p)
        results
    end
    else
      Array.init nlevels (fun i ->
          let level = i + 1 in
          Trace.with_span ~cat:"lump"
            ~args:[ ("level", Trace.Int level) ]
            "lump.level"
            (fun () ->
              let p_ini =
                Trace.with_span ~cat:"lump" "lump.initial_partition" (fun () ->
                    Level_lumping.initial_partition ?eps mode md ~level ~rewards ~initial)
              in
              let level_stats = Refiner.create_stats () in
              let p, dt =
                Mdl_util.Timer.time (fun () ->
                    Level_lumping.comp_lumping_level ?eps ?key ~stats:level_stats
                      ~specialised ?cache ?pool mode md ~level ~initial:p_ini)
              in
              Log.debug (fun m ->
                  m "level %d: %d -> %d classes (P_ini %d) in %.3fs [refiner: %a]" level
                    (Partition.size p)
                    (Partition.num_classes p)
                    (Partition.num_classes p_ini)
                    dt Refiner.pp_stats level_stats);
              (match stats with
              | Some dst -> Refiner.add_stats dst level_stats
              | None -> ());
              Trace.add_args
                [
                  ("classes_initial", Trace.Int (Partition.num_classes p_ini));
                  ("classes", Trace.Int (Partition.num_classes p));
                ];
              p))
  in
  let r, dt =
    Mdl_util.Timer.time (fun () ->
        lump_with_partitions ?stats ~incremental:memoise ?pool ?par_threshold mode md
          partitions)
  in
  Log.debug (fun m ->
      m "rebuild: %d nodes -> %d nodes in %.3fs%s" (Md.num_live_nodes md)
        (Md.num_live_nodes r.lumped) dt
        (if r.lumped == md then " (aliased: nothing lumped)" else ""));
  r

let lump ?tctx ?eps ?key ?stats ?(specialised = true) ?(memoise = true) ?cache ?pool
    ?par_threshold mode md ~rewards ~initial =
  Trace.with_ctx_opt tctx (fun () ->
      Metrics.incr c_lumps;
      if not (Trace.enabled ()) then
        lump_body ?eps ?key ?stats ~specialised ~memoise ?cache ?pool ?par_threshold
          mode md ~rewards ~initial
      else
        Trace.with_span ~cat:"lump"
          ~args:
            [
              ("levels", Trace.Int (Md.levels md));
              ("specialised", Trace.Bool specialised);
              ("memoise", Trace.Bool memoise);
            ]
          "lump"
          (fun () ->
            lump_body ?eps ?key ?stats ~specialised ~memoise ?cache ?pool
              ?par_threshold mode md ~rewards ~initial))

(* ------------------------------------------------------------------ *)
(* Batched sweeps: one diagram, many reward/initial specifications.    *)

type sweep_spec = {
  sweep_rewards : Decomposed.t list;
  sweep_initial : Decomposed.t;
}

type sweep_stats = {
  points : int;
  level_fixpoints : int;
  level_reused : int;
  rebuilds : int;
  rebuilds_reused : int;
  cross_bind_hits : int;
}

type sweep = {
  sw_mode : Mdl_lumping.State_lumping.mode;
  sw_md : Md.t;
  sw_eps : float option;
  sw_key : Local_key.choice;
  sw_cache : Key_cache.t;
  sw_pool : Domain_pool.t option;
  sw_par_threshold : int option;
  sw_level_memo : (int * int array, int array) Hashtbl.t;
      (* (level, initial layout) -> final canonical assignment *)
  sw_rebuild_memo : (int array, Md.t) Hashtbl.t;
      (* concatenated final assignments -> lumped diagram *)
  mutable sw_points : int;
  mutable sw_level_fixpoints : int;
  mutable sw_level_reused : int;
  mutable sw_rebuilds : int;
  mutable sw_rebuilds_reused : int;
  sw_cross0 : int; (* cache cross-bind counter at engine creation *)
}

(* One flat int array capturing a partition completely — class order,
   member order, class contents: [len c0; members of c0 in slice order;
   len c1; ...].  Refinement is deterministic given this layout (the
   engine works on a layout-preserving copy of the initial partition),
   so it is the sound memo key for a level's fixed point.  A coarser
   key — the class *set*, i.e. {!Partition.canonical_assignment} alone —
   would be value-correct but could let a memo hit diverge bitwise from
   a fresh run at a quantization-grid boundary, because splitter-key
   float sums accumulate in member order. *)
let layout_key p =
  let n = Partition.size p in
  let nc = Partition.num_classes p in
  let out = Array.make (n + nc) 0 in
  let w = ref 0 in
  for c = 0 to nc - 1 do
    let perm, first, len = Partition.view p c in
    out.(!w) <- len;
    incr w;
    Array.blit perm first out !w len;
    w := !w + len
  done;
  out

let is_identity_assignment a =
  let ok = ref true in
  Array.iteri (fun i c -> if c <> i then ok := false) a;
  !ok

let sweep_create ?eps ?(key = Local_key.Formal_sums) ?cache ?pool ?par_threshold mode
    md =
  let cache = match cache with Some c -> c | None -> Key_cache.create () in
  Key_cache.set_persistent cache true;
  Key_cache.bind ?eps ~choice:key ~mode cache md;
  Key_cache.set_pool ?par_threshold cache pool;
  {
    sw_mode = mode;
    sw_md = md;
    sw_eps = eps;
    sw_key = key;
    sw_cache = cache;
    sw_pool = pool;
    sw_par_threshold = par_threshold;
    sw_level_memo = Hashtbl.create 64;
    sw_rebuild_memo = Hashtbl.create 16;
    sw_points = 0;
    sw_level_fixpoints = 0;
    sw_level_reused = 0;
    sw_rebuilds = 0;
    sw_rebuilds_reused = 0;
    sw_cross0 = Key_cache.cross_bind_hits cache;
  }

let sweep_point_body ?stats sw ~rewards ~initial =
  let md = sw.sw_md and mode = sw.sw_mode in
  let nlevels = Md.levels md in
  (* Epoch bump: tier-1 rows of earlier points retire, the shared
     content-keyed store keeps answering across points. *)
  Key_cache.bind ?eps:sw.sw_eps ~choice:sw.sw_key ~mode sw.sw_cache md;
  Key_cache.set_pool ?par_threshold:sw.sw_par_threshold sw.sw_cache sw.sw_pool;
  let inis =
    Array.init nlevels (fun i ->
        Trace.with_span ~cat:"lump" "lump.initial_partition" (fun () ->
            Level_lumping.initial_partition ?eps:sw.sw_eps mode md ~level:(i + 1)
              ~rewards ~initial))
  in
  let finals = Array.make nlevels None in
  let level_stats_arr = Array.make nlevels None in
  let misses = ref [] in
  Array.iteri
    (fun i p_ini ->
      let memo_key = (i + 1, layout_key p_ini) in
      match Hashtbl.find_opt sw.sw_level_memo memo_key with
      | Some assignment ->
          (* The memoised fixed point is replayed from its canonical
             assignment; [comp_lumping_level] canonicalises exactly the
             same way (discrete -> identity, otherwise renumber by first
             appearance), so this partition equals the one a fresh run
             would return — layout included. *)
          sw.sw_level_reused <- sw.sw_level_reused + 1;
          Metrics.incr c_sweep_level_reused;
          let p =
            if is_identity_assignment assignment then
              Partition.discrete (Array.length assignment)
            else Partition.of_class_assignment assignment
          in
          finals.(i) <- Some p
      | None -> misses := (i, memo_key) :: !misses)
    inis;
  let misses = Array.of_list (List.rev !misses) in
  let nmisses = Array.length misses in
  sw.sw_level_fixpoints <- sw.sw_level_fixpoints + nmisses;
  Metrics.add c_sweep_level_fixpoints nmisses;
  let run_level cache (i, _) =
    let level = i + 1 in
    let level_stats = Refiner.create_stats () in
    let p =
      Level_lumping.comp_lumping_level ?eps:sw.sw_eps ~key:sw.sw_key ~stats:level_stats
        ~specialised:true ?cache ?pool:sw.sw_pool mode md ~level ~initial:inis.(i)
    in
    (p, level_stats)
  in
  let level_parallel =
    match sw.sw_pool with
    | Some pl -> Domain_pool.size pl > 1 && nmisses > 1 && not (Trace.enabled ())
    | None -> false
  in
  let results = Array.make nmisses None in
  if level_parallel then begin
    let pl = Option.get sw.sw_pool in
    (* As in [lump_body]: fill the lazy column cache from this domain
       first so every later [node_col] is a pure read, from any
       domain.  Each miss level refines on its own cache fork; the
       forks publish their rows to the shared persistent store, so the
       work survives them. *)
    Md.warm_col_cache md;
    Domain_pool.run pl ~n:nmisses (fun t ->
        results.(t) <- Some (run_level (Some (Key_cache.fork sw.sw_cache)) misses.(t)))
  end
  else
    Array.iteri
      (fun t miss -> results.(t) <- Some (run_level (Some sw.sw_cache) miss))
      misses;
  Array.iteri
    (fun t (i, memo_key) ->
      match results.(t) with
      | None -> assert false
      | Some (p, level_stats) ->
          (* [p] is canonical, so [to_class_assignment] already is the
             canonical assignment. *)
          Hashtbl.replace sw.sw_level_memo memo_key (Partition.to_class_assignment p);
          finals.(i) <- Some p;
          level_stats_arr.(i) <- Some level_stats)
    misses;
  (* Merge per-level stats in level order, whatever order the levels
     refined in, so the totals match a sequential run's. *)
  (match stats with
  | Some dst ->
      Array.iter
        (function Some ls -> Refiner.add_stats dst ls | None -> ())
        level_stats_arr
  | None -> ());
  let partitions = Array.map Option.get finals in
  (* Per-level assignment lengths are fixed by the diagram, so the plain
     concatenation is an injective key for the partition tuple. *)
  let rebuild_key =
    Array.concat (Array.to_list (Array.map Partition.to_class_assignment partitions))
  in
  match Hashtbl.find_opt sw.sw_rebuild_memo rebuild_key with
  | Some lumped ->
      (* The quotient is a pure function of (diagram, partitions, mode):
         equal canonical assignments rebuild to an [Md.equal] diagram,
         so the previously built one is aliased.  [nodes_rebuilt] /
         [nodes_reused] stats are not re-counted for a replay. *)
      sw.sw_rebuilds_reused <- sw.sw_rebuilds_reused + 1;
      Metrics.incr c_sweep_rebuild_reused;
      { lumped; partitions }
  | None ->
      sw.sw_rebuilds <- sw.sw_rebuilds + 1;
      Metrics.incr c_sweep_rebuilds;
      let r =
        lump_with_partitions ?stats ~incremental:true ?pool:sw.sw_pool
          ?par_threshold:sw.sw_par_threshold mode md partitions
      in
      Hashtbl.add sw.sw_rebuild_memo rebuild_key r.lumped;
      r

let sweep_point ?tctx ?stats sw ~rewards ~initial =
  Trace.with_ctx_opt tctx @@ fun () ->
  sw.sw_points <- sw.sw_points + 1;
  Metrics.incr c_sweep_points;
  let traced () =
    if not (Trace.enabled ()) then sweep_point_body ?stats sw ~rewards ~initial
    else begin
      let reused0 = sw.sw_level_reused and rebuilt0 = sw.sw_rebuilds in
      Trace.with_span ~cat:"lump"
        ~args:[ ("point", Trace.Int sw.sw_points) ]
        "sweep.point"
        (fun () ->
          let r = sweep_point_body ?stats sw ~rewards ~initial in
          Trace.add_args
            [
              ("levels_reused", Trace.Int (sw.sw_level_reused - reused0));
              ("rebuilt", Trace.Bool (sw.sw_rebuilds > rebuilt0));
              ("nodes_out", Trace.Int (Md.num_live_nodes r.lumped));
            ];
          r)
    end
  in
  if not (Metrics.enabled ()) then traced ()
  else begin
    let r, dt = Mdl_util.Timer.time traced in
    Metrics.observe m_sweep_point_seconds dt;
    r
  end

let sweep_stats sw =
  {
    points = sw.sw_points;
    level_fixpoints = sw.sw_level_fixpoints;
    level_reused = sw.sw_level_reused;
    rebuilds = sw.sw_rebuilds;
    rebuilds_reused = sw.sw_rebuilds_reused;
    cross_bind_hits = Key_cache.cross_bind_hits sw.sw_cache - sw.sw_cross0;
  }

let sweep_cache sw = sw.sw_cache

let lump_sweep ?tctx ?eps ?key ?stats ?cache ?pool ?par_threshold mode md ~points =
  Trace.with_ctx_opt tctx @@ fun () ->
  let sw = sweep_create ?eps ?key ?cache ?pool ?par_threshold mode md in
  List.map
    (fun { sweep_rewards; sweep_initial } ->
      sweep_point ?stats sw ~rewards:sweep_rewards ~initial:sweep_initial)
    points

let class_tuple r s =
  if Array.length s <> Array.length r.partitions then
    invalid_arg "Compositional.class_tuple: tuple length mismatch";
  Array.mapi (fun i si -> Partition.class_of r.partitions.(i) si) s

let class_volume r ct =
  if Array.length ct <> Array.length r.partitions then
    invalid_arg "Compositional.class_volume: tuple length mismatch";
  let vol = ref 1 in
  Array.iteri (fun i ci -> vol := !vol * Partition.class_size r.partitions.(i) ci) ct;
  !vol

let lump_statespace r ss =
  if Statespace.levels ss <> Array.length r.partitions then
    invalid_arg "Compositional.class_tuple: tuple length mismatch";
  Set_mdd.relabel ss (fun l s -> Partition.class_of r.partitions.(l - 1) s)

let is_closed r ss =
  (* Each global class of the lumped space holds at most its volume
     (product of local class sizes) of reachable states, and together
     they hold all of them, so every class is full iff the volumes add
     up to |S|. *)
  Statespace.size ss
  = Statespace.weighted_size (lump_statespace r ss) (fun l c ->
        Partition.class_size r.partitions.(l - 1) c)

let check_sizes r ss lumped_ss v fn =
  if Array.length v <> Statespace.size ss then
    invalid_arg (Printf.sprintf "Compositional.%s: vector size mismatch" fn);
  (* The lumped side must actually be a lumped image under [r]: same
     number of levels, every substate a valid class id.  Without this, a
     statespace belonging to a different model slips through and the
     per-class sums land in the wrong slots (or divide by zero in
     [average_vector]). *)
  let levels = Array.length r.partitions in
  if Statespace.levels ss <> levels then
    invalid_arg (Printf.sprintf "Compositional.%s: statespace level count mismatch" fn);
  if Statespace.levels lumped_ss <> levels then
    invalid_arg
      (Printf.sprintf "Compositional.%s: lumped statespace level count mismatch" fn);
  Statespace.iter
    (fun _ ct ->
      Array.iteri
        (fun i ci ->
          if ci < 0 || ci >= Partition.num_classes r.partitions.(i) then
            invalid_arg
              (Printf.sprintf "Compositional.%s: lumped statespace class id out of range"
                 fn))
        ct)
    lumped_ss

let aggregate_vector r ss lumped_ss v =
  check_sizes r ss lumped_ss v "aggregate_vector";
  let out = Array.make (Statespace.size lumped_ss) 0.0 in
  Statespace.iter
    (fun i s ->
      match Statespace.index lumped_ss (class_tuple r s) with
      | Some j -> out.(j) <- out.(j) +. v.(i)
      | None -> invalid_arg "Compositional.aggregate_vector: class tuple not in lumped space")
    ss;
  out

let average_vector r ss lumped_ss v =
  check_sizes r ss lumped_ss v "average_vector";
  let out = Array.make (Statespace.size lumped_ss) 0.0 in
  let counts = Array.make (Statespace.size lumped_ss) 0 in
  Statespace.iter
    (fun i s ->
      match Statespace.index lumped_ss (class_tuple r s) with
      | Some j ->
          out.(j) <- out.(j) +. v.(i);
          counts.(j) <- counts.(j) + 1
      | None -> invalid_arg "Compositional.average_vector: class tuple not in lumped space")
    ss;
  Array.mapi
    (fun j total ->
      (* A lumped state no flat state maps to has no average; dividing
         would silently poison the vector with a nan. *)
      if counts.(j) = 0 then
        invalid_arg
          "Compositional.average_vector: lumped state receives no flat states (is \
           lumped_ss the image of ss?)"
      else total /. float_of_int counts.(j))
    out

let representative_pick r l c = Partition.representative r.partitions.(l - 1) c

let lumped_sizes r = Array.map Partition.num_classes r.partitions

let lumped_rewards r d =
  Decomposed.relabel d ~new_sizes:(lumped_sizes r) ~pick:(representative_pick r)

let lumped_initial r d =
  Decomposed.relabel d ~new_sizes:(lumped_sizes r) ~pick:(representative_pick r)
