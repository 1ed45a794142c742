(** The generic partition-refinement engine of Figure 1 (procedure
    [CompLumping]), parameterised by the key function [K].

    The engine refines an initial partition until every class is
    key-constant with respect to every class used as a splitter.  The
    key abstraction is exactly the paper's [K(R, s, C)] — "by choosing K
    appropriately, we can customize the algorithm to compute partitions
    that satisfy a set of desired conditions": flat ordinary lumping
    uses [R(s, C)], flat exact lumping uses [R(C, s)], and the MD-local
    variants use formal sums of [(coefficient, node)] pairs.

    Rather than computing [K] for every state of [S] (Figure 1 line 5),
    the engine asks only for the states with a key different from the
    zero key — for row/column-sum keys those are the (predecessor /
    successor) states of the splitter — and groups the remaining states
    of each class implicitly.

    The implementation is the in-place core of the optimal state-level
    algorithm of Derisavi, Hermanns & Sanders [9]: classes are
    contiguous slices of one permutation array ({!Partition}), a split
    moves only the touched states, and the worklist holds class ids
    driven by the {e process-all-but-the-largest-sub-block} rule — when
    a class not pending as a splitter is split, all sub-blocks except
    the largest join the worklist; when a pending splitter is split, all
    its sub-blocks stay pending.

    {b Key pipelines.}  The same core runs behind two key pipelines,
    one per key kind:

    - the {b monomorphic float} pipeline ({!comp_lumping_float}) — flat
      row/column-sum keys written into reusable unboxed scratch buffers
      ({!float_buf}), quantized inline ({!Mdl_util.Floatx.quantize}) and
      sorted by a fused three-array merge: no list, no boxed float, no
      comparator closure.  Used for flat state-level lumping;
    - the {b ranked} pipeline ({!comp_lumping_ranked}) — keys arrive
      already hash-consed to integers (the gids of
      [Mdl_core.Key_cache]) and are turned into dense per-pass ranks by
      stamped array lookups, so key comparison is integer compare; when
      the rank alphabet is small relative to the pass
      ({!use_counting_sort}) the (class, rank) pairs are counting-sorted
      in O(m + alphabet) instead of comparison-sorted.  Used for the
      matrix-diagram levels.

    The list-based seed engine and the closure-keyed spec it runs on
    live in the test oracle ([Mdl_oracle.Refine_oracle]), which the
    differential tests pin both pipelines against.

    {b Key additivity.}  The largest-sub-block skip is sound only when
    keys are additive over disjoint unions of splitters,
    [K(s, B1 union B2) = K(s, B1) + K(s, B2)] (with key equality
    respecting sums): stability against a parent block and all but one
    sub-block then implies stability against the remaining one.  Every
    key in this repository — row/column rate sums, formal sums, expanded
    matrices — is a sum over splitter members, so this holds by
    construction; a hypothetical non-additive key (e.g. a max) would
    need an exhaustive engine that re-enqueues every sub-block.

    {b Counters.}  The engine reports only through the metrics registry
    ([Mdl_obs.Metrics], when enabled): each run tallies its counters
    privately and publishes them once at its end under the [refiner.*]
    names — [splitter_passes], [key_evals], [splits],
    [blocks_created], [largest_skips], [counting_sort_passes], [runs],
    the pipeline's own pass counter ([float_passes] or
    [interned_passes]), the [intern_alphabet] high-water gauge and the
    [run_seconds] histogram — plus per-pass latency histograms
    ([refiner.pass_seconds], [refiner.sort_seconds],
    [refiner.pass_keys]).  With tracing on, each run emits a
    [refine.run] span containing one [refine.pass] span per worklist
    pop. *)

val log_src : Logs.src
(** The engine's [Logs] source, [mdl.refine] — one per-run counter
    summary at debug level per pipeline run.  Level setup is shared
    across binaries via [Mdl_obs.Logging.setup]. *)

type slice = int array * int * int
(** A zero-copy class view as returned by {!Partition.view}:
    [(perm, first, len)] — the members are
    [perm.(first) .. perm.(first + len - 1)].  Valid only for the
    duration of one [splitter_keys] call (the next split invalidates
    it); must not be mutated. *)

type on_split = parent:int -> ids:int list -> unit
(** Split-trace callback: invoked once per actual split, {e after} the
    partition has been updated, with the id kept by the parent class and
    the full list of post-split sub-block ids ([parent] first, as
    returned by {!Partition.split_runs}).  The callback observes the
    refiner's working partition mid-run; it must not retain the slice
    views.  Used by {!Mdl_core.Key_cache} to account invalidations and
    by {!Mdl_core.Compositional} to know which classes the final
    partition owes to an actual split. *)

(** {2 Monomorphic float pipeline} *)

type float_buf
(** Reusable scratch holding the [(state, key)] pairs of one float-keyed
    splitter pass in parallel unboxed arrays. *)

val emit : float_buf -> int -> float -> unit
(** [emit buf s k] appends the pair [(s, k)] to this pass's keyed
    states.  Keys are emitted {e raw}; the engine quantizes them
    inline. *)

type float_spec = {
  fsize : int;  (** number of states *)
  feps : float option;
      (** quantization tolerance applied inline to every emitted key
          ([None] = {!Mdl_util.Floatx.default_eps}) *)
  fsplitter_keys : slice -> float_buf -> unit;
      (** [fsplitter_keys c buf] emits [(s, K(s, C))] for every state
          [s] whose key w.r.t. splitter class [C] (given as a zero-copy
          {!slice} of its elements) is different from the zero key.
          States not emitted are treated as sharing the common zero key.
          Must not emit a state twice. *)
}

val comp_lumping_float :
  ?tctx:Mdl_obs.Trace.Ctx.t ->
  ?on_split:on_split ->
  float_spec ->
  initial:Partition.t ->
  Partition.t
(** [comp_lumping_float spec ~initial] returns the coarsest refinement
    of [initial] that is stable under splitting by [spec]'s quantized
    keys (the input partition is not mutated; the result is an
    id-preserving {!Partition.copy} refined in place, so when no split
    fires the output has the same class ids and member order as
    [initial]).  [on_split] exports the split trace.  Termination: a
    class re-enters the worklist only when freshly created by a split,
    and partitions only ever get finer.  [tctx] records the run's spans
    into that explicit {!Mdl_obs.Trace.Ctx.t} instead of the caller's
    current context.
    @raise Invalid_argument if [initial] is not over [spec.fsize]
    states. *)

(** {2 Ranked pipeline} *)

type ranked_spec = {
  rsize : int;  (** number of states *)
  rsplitter_keys : slice -> int array * int array;
      (** parallel (states, key ids) arrays for one splitter pass, with
          the same contract as [fsplitter_keys]: keys already
          hash-consed to non-negative integers whose equality coincides
          with lumping-key equality (e.g. the stable gids of
          [Mdl_core.Key_cache]).  The arrays are read within the pass
          only — the caller may reuse or share them. *)
}

val comp_lumping_ranked :
  ?on_split:on_split ->
  ?pool:Mdl_util.Domain_pool.t ->
  ?par_threshold:int ->
  ranked_spec ->
  initial:Partition.t ->
  Partition.t
(** {!comp_lumping_float}'s fixed point for producers whose keys are
    {e already} integers: per-pass dense ranks come from a stamped array
    lookup per pair, and the pair arrays are blitted into the sort
    scratch.  This is the engine under the memoised splitter-key cache,
    where a cache hit replays a previously interned row.  Its passes are
    counted as [refiner.interned_passes].
    @raise Invalid_argument if [initial] is not over [spec.rsize]
    states.

    [pool] shards the per-pass class lookups ([Partition.class_of] into
    disjoint scratch slots — pure reads, placement-independent writes)
    across the pool's domains when a pass has at least [par_threshold]
    pairs (default [8192]).  Rank assignment, sorting and the split
    scan stay sequential — ranks are first-appearance-ordered, which is
    exactly what makes the result independent of gid numbering — so the
    computed partition, split order and every counter are identical
    with or without a pool. *)

val use_counting_sort : m:int -> alphabet:int -> bool
(** The counting-sort threshold: true when a pass of [m] pairs over
    [alphabet] distinct key ranks is cheaper to counting-sort
    (O(m + alphabet), two stable scatter passes plus bucket resets) than
    to comparison-sort (O(m log m)).  Requires keys to actually repeat
    ([2 * alphabet <= m]) and the pass not to be tiny ([m >= 16]).
    Exposed for the threshold-selection unit tests. *)
