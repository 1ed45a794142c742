(** Vector products against matrix-diagram-represented matrices,
    restricted to a reachable state space.

    These are the kernels of MD-based numerical solution: the matrix is
    never materialised.  The diagram is walked together with a row and a
    column cursor in the state space's counted MDD ({!Statespace}), so
    row and column indices accumulate as path offsets — no hashing per
    entry — and entries whose row or column tuple is unreachable are
    pruned wholesale (they cannot carry probability mass in a
    well-formed model).

    That co-walk is done once, by {!Plan.compile}: the result is a flat
    {e product plan} of int/float arrays that every product then walks
    without allocating.  An iterative solver compiles one plan and
    applies it each iteration; the [md]/[ss] functions below compile
    internally and suit one-shot products.  Every function raises
    [Invalid_argument] when the diagram and the state space have
    different level counts. *)

module Plan : sig
  type t = private {
    size : int;  (** [Statespace.size] of the space compiled against *)
    depth : int;  (** longest block chain from the root (0 when empty) *)
    root : int;  (** the root block, [-1] when no entry is reachable *)
    start : int array;
        (** block [b]'s entries are [start.(b) .. start.(b+1) - 1] *)
    row_off : int array;  (** per entry: row arc offset *)
    col_off : int array;  (** per entry: column arc offset *)
    coeff : float array;  (** per entry: formal-sum coefficient *)
    child : int array;  (** per entry: child block, [-1] for the terminal *)
  }
  (** One block per reachable (MD node, row MDD node, column MDD node)
      triple that carries an entry, blocks in post-order (children
      first).  A block's entries list, for each node entry [(r, c)]
      whose row and column arcs exist and each term [(child, w)] of its
      formal sum, the two arc offsets, [w] and the child triple's block,
      in row-major entry order and term order.  The representation is
      exposed for inspection and for the product oracle's self-test,
      which shifts one offset of a plan of its own; writing into the
      arrays of a plan in use corrupts its products. *)

  val compile : Md.t -> Statespace.t -> t
  (** One memoised pass over the reachable triples.
      @raise Invalid_argument on a level-count mismatch. *)

  val vec_mul : t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
  (** [x * R].  Paths are visited in a fixed order, with the path
      coefficient multiplied top-down, so the result is bit-identical
      to every other product over the same diagram and space.
      @raise Invalid_argument if the vector size differs from the
      plan's [size]. *)

  val mul_vec : t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
  (** [R * x]. *)

  val row_sums : t -> Mdl_sparse.Vec.t
  (** Exit rates into the compiled space (as the one-shot [row_sums]
      below). *)

  val diag : t -> Mdl_sparse.Vec.t
  (** The main diagonal [R(s, s)]. *)

  val to_csr : t -> Mdl_sparse.Csr.t
  (** The represented matrix over state-space indices. *)
end

val vec_mul :
  Md.t -> Statespace.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [vec_mul md ss x] is the row-vector product [x * R] where [R] is the
    matrix the diagram represents. @raise Invalid_argument if the vector
    size differs from [Statespace.size ss]. *)

val vec_mul_mdd : Md.t -> Mdd.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** {!vec_mul} under its former MDD-indexed name. *)

val mul_vec :
  Md.t -> Statespace.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t
(** [mul_vec md ss x] is [R * x]. *)

val row_sums : Md.t -> Statespace.t -> Mdl_sparse.Vec.t
(** Exit rates [R(s, S)] of each reachable state into the reachable
    space; for reachability-closed spaces (every explored model) these
    are the full exit rates. *)

val diag : Md.t -> Statespace.t -> Mdl_sparse.Vec.t
(** [diag md ss] is the main diagonal [R(s, s)] of the represented
    matrix — what a Jacobi preconditioner needs, no matrix
    materialisation. *)

val to_csr : Md.t -> Statespace.t -> Mdl_sparse.Csr.t
(** Flatten the diagram to a sparse matrix over state-space indices —
    the "generate the whole matrix" baseline used for comparison and for
    feeding the flat state-level lumping algorithm. *)
