(** Vector products against matrix-diagram-represented matrices,
    restricted to a reachable state space.

    These are the kernels of MD-based numerical solution: the matrix is
    never materialised.  Each product walks the diagram together with a
    row and a column cursor in the state space's counted MDD
    ({!Statespace}), so row and column indices accumulate as path
    offsets — no hashing per entry — and entries whose row or column
    tuple is unreachable are pruned wholesale (they cannot carry
    probability mass in a well-formed model).  Every function raises
    [Invalid_argument] when the diagram and the state space have
    different level counts. *)

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
    matrix — what a Jacobi preconditioner needs, one co-walk, no matrix
    materialisation. *)

val to_csr : Md.t -> Statespace.t -> Mdl_sparse.Csr.t
(** Flatten the diagram to a sparse matrix over state-space indices —
    the "generate the whole matrix" baseline used for comparison and for
    feeding the flat state-level lumping algorithm. *)
