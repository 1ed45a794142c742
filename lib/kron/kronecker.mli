(** Kronecker descriptors — the stochastic-automata-network style
    representation [R = sum_e lambda_e (W_e^1 (X) .. (X) W_e^L)] that
    matrix diagrams generalise (Section 1/3 of the paper; Plateau-Atif
    SANs).

    Serves three purposes here: (1) the natural compilation target of
    the compositional modelling layer, (2) a baseline symbolic
    representation to benchmark MDs against (shuffle-algorithm vector
    product), and (3) the constructor of MDs — {!to_md} builds the
    levelled diagram, with hash-consing merging events that share
    suffix matrices. *)

type event = {
  label : string;
  rate : float;  (** [lambda_e > 0] *)
  locals : Mdl_sparse.Csr.t array;  (** one [|S_l| x |S_l|] matrix per level *)
}

type t

val make : sizes:int array -> event list -> t
(** @raise Invalid_argument on empty levels, a non-positive rate, or a
    local matrix with the wrong dimensions or a negative entry. *)

val sizes : t -> int array

val events : t -> event list

val num_events : t -> int

val potential_size : t -> int

val identity_local : int -> Mdl_sparse.Csr.t
(** Convenience: the identity matrix, for levels an event does not
    touch. *)

val to_md : t -> Mdl_md.Md.t
(** Build the matrix diagram representing the same matrix: one node
    chain per event, root entries carrying [lambda_e] into the level-1
    coefficients; shared suffixes merge by quasi-reduction.  Below the
    root each local matrix's CSR rows become the node's rows directly;
    the root folds the events' colliding entries with
    {!Mdl_md.Md.add_node}. *)

val vec_mul : t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [vec_mul k x] is the row-vector product [x * R] over the {e
    potential} product space (mixed-radix, level 1 most significant),
    computed with the perfect-shuffle algorithm — [O(sum_l nnz(W_e^l) *
    N / n_l)] per event instead of materialising [R].
    @raise Invalid_argument if [x] is not of the potential size. *)

val to_csr : t -> Mdl_sparse.Csr.t
(** Materialise over the potential space (tests / small models only).
    @raise Invalid_argument if the potential space exceeds 2^22. *)
