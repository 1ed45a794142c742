(** The differential oracle for matrix-diagram construction.

    The production builders ({!Mdl_md.Md.add_node},
    {!Mdl_kron.Kronecker.to_md}, {!Mdl_md.Compact.merge_terms},
    {!Mdl_md.Compact.normalize}) work row by row: entries are sorted
    once and folded, rows are emitted through
    {!Mdl_md.Md.add_node_sorted_rows}.  The references below are the
    entry-list builders they replaced: every node is assembled from a
    [(row, col, sum)] list whose duplicate positions are combined in a
    [(row, col)]-keyed hash table, then each row is sorted.  Both sides
    fold every position's sums in the same order, so the production
    diagrams must be {!Mdl_md.Md.equal} to the references, coefficients
    bit for bit. *)

(** {1 Reference builders} *)

val add_node :
  Mdl_md.Md.t -> level:int -> (int * int * Mdl_md.Formal_sum.t) list -> Mdl_md.Md.node_id
(** Same contract and errors as {!Mdl_md.Md.add_node}. *)

val to_md : Mdl_kron.Kronecker.t -> Mdl_md.Md.t

val merge_terms : Mdl_md.Md.t -> Mdl_md.Md.t

val normalize : Mdl_md.Md.t -> Mdl_md.Md.t

val md_of : Mdl_kron.Kronecker.t -> Mdl_md.Md.t
(** [normalize (merge_terms (to_md k))] — the reference for
    {!Mdl_san.Model.md_of}. *)

(** {1 Checks} *)

val check : Mdl_md.Md.t -> reference:Mdl_md.Md.t -> Invariants.violation list
(** A [build] violation unless the diagrams are {!Mdl_md.Md.equal} and
    have the same {!Mdl_md.Md.live_nodes} id lists. *)

val num_entries : Mdl_md.Md.t -> int
(** Entries over the live nodes (each holds at least one coefficient). *)

val flip_bit : Mdl_md.Md.t -> int -> Mdl_md.Md.t
(** [flip_bit md k] is a copy of the rooted diagram in a fresh store
    with the lowest bit of its [k]-th coefficient flipped (terms counted
    in first-visit order; no change when [k] is past the last one) —
    the fault {!check} must report. *)
