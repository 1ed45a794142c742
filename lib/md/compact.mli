(** Slice-merging compaction of matrix diagrams.

    [Kronecker.to_md] produces one node chain per event, which is
    maximally shared but scatters parallel behaviour (e.g. one event per
    replicated server) over many nodes.  Since the local lumpability
    conditions of Definition 3 are {e per node}, symmetry between
    replicas is invisible in that form.

    [merge_terms] rewrites the diagram so that every formal sum above
    the bottom level has a single term: a multi-term sum
    [sum_k r_k * N_k] is replaced by a reference to a node representing
    the weighted sum of the children (computed entrywise on their formal
    sums, recursively).  Equal merged slices are shared again by
    hash-consing, so the result is the quasi-reduced "slice form" in
    which each node aggregates all events active under a given
    upper-level transition — the shape the paper's symbolic state-space
    generator emits, and the one on which compositional lumping finds
    replica symmetries. *)

val merge_terms : Md.t -> Md.t
(** Equivalent diagram (same represented matrix, same level sizes) in
    slice form.  Built row by row: a merged node's row [r] concatenates
    row [r] of each child in term order, each entry scaled by its term's
    coefficient, stably sorts them by column and folds each column's
    sums with {!Formal_sum.add} in that order; the converted rows go to
    {!Md.add_node_sorted_rows}.  New nodes are created in row-major
    order of the entries that reference them.
    @raise Invalid_argument if the input has no root. *)

val normalize : Md.t -> Md.t
(** Canonical coefficient scaling, after Miner's canonical MDs (the
    paper's [15]): bottom-up, every node is divided by its first
    nonzero coefficient (row-major order) and the factor is pushed into
    the parents' formal sums.  Nodes that were proportional — denoting
    matrices equal up to a scalar — become identical and merge by
    hash-consing.  This tightens the formal-sum lumping keys: two formal
    sums denoting equal matrices through proportional nodes become
    structurally equal (see the "sufficiency gap" discussion in
    Section 4 of the paper).  Represents the same matrix; level sizes
    unchanged.  Works on each node's row table directly: the rows are
    mapped (children first, in row-major order), the factor is the
    first coefficient of the first nonempty row, and the scaled rows go
    to {!Md.add_node_sorted_rows} — no entry list and no re-sort. *)
