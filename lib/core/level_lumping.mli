(** Per-level lumping: the [CompLumpingLevel] procedure of Figure 3(a),
    plus the level-local initial partitions [P_l^ini] of the paper's
    "Overall Algorithm" paragraph.

    [comp_lumping_level] computes, by fixed-point iteration over all
    live nodes of a level, a partition of the level's index set that
    satisfies the local lumpability conditions of Definition 3
    ([~_lo] for ordinary, [~_le] for exact) at {e every} node
    simultaneously. *)

val initial_partition :
  ?eps:float ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  level:int ->
  rewards:Decomposed.t list ->
  initial:Decomposed.t ->
  Mdl_partition.Partition.t
(** The coarsest partition of [S_level] such that, within each class:
    ordinary — the level factor of {e every} protected reward function
    is constant (pass all the measures you intend to compute on the
    lumped chain);
    exact — the initial-probability factor [f_pi,level] is constant and,
    for every live node [n] of the level, the full-row formal sum
    [r_{n, n'}(s, S_level)] (per child [n']) is constant. *)

val comp_lumping_level :
  ?eps:float ->
  ?key:Local_key.choice ->
  ?cache:Key_cache.t ->
  ?pool:Mdl_util.Domain_pool.t ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  level:int ->
  initial:Mdl_partition.Partition.t ->
  Mdl_partition.Partition.t
(** Fixed-point refinement over all live nodes of the level, starting
    from [initial].  [key] defaults to {!Local_key.Formal_sums} (the
    paper's choice); {!Local_key.Expanded_matrices} trades time for a
    possibly coarser partition.

    Every per-node refinement runs through the ranked pipeline
    ({!Mdl_partition.Refiner.comp_lumping_ranked}) fed by a
    {!Key_cache.t}: splitter-key evaluation is memoised across the
    fixed point's passes, key accumulation skips classes already
    singleton at the start of each per-node run, and the engine's split
    trace is reported to the cache.  [cache] (default: a fresh plain
    cache) is auto-bound to [md] if bound elsewhere (or unbound); when
    already bound to [md] its rows are {e kept}, so the levels of one
    {!Compositional.lump} run share one bind — callers invoking this
    function directly with a reused cache must {!Key_cache.bind} between
    independent runs (the memo is only sound while refinement of each
    level is monotone; see {!Key_cache}).  The differential tests pin
    the result to the oracle's reference fixed point, which evaluates
    every key afresh through the seed engine.

    [pool] shards the ranked pipeline's per-pass class lookups across a
    domain pool; intra-node splitter-key sharding is armed separately on
    the cache via {!Key_cache.set_pool}.  Neither changes the computed
    partition, the pass counts or any counter.

    The returned partition is canonicalised: if no two states lump, the
    result is {!Mdl_partition.Partition.discrete} (class ids = state
    ids), otherwise its classes are numbered by first appearance,
    whatever ids refinement history would have assigned.
    @raise Invalid_argument on a bad level or partition size mismatch,
    or when [cache] recorded a different [(eps, key, mode)]. *)
