(** The differential oracle for the MD × state-space product layer.

    {!Mdl_md.Md_vector.Plan} compiles the product once into flat arrays;
    the reference below is the direct co-walk it replaced: the diagram
    walked with a row and a column cursor in the counted MDD, offsets
    accumulated and coefficients multiplied top-down, one callback per
    terminal path.  The plan promises the same paths in the same order,
    so its products must be [=]-identical to the reference and its
    flattening {!Mdl_sparse.Csr.equal} to it — on any diagram and any
    reachable subset of its potential space.

    A {!fault} turns the check on itself: a healthy oracle must report
    it. *)

(** {1 Reference products} *)

val vec_mul : Mdl_md.Md.t -> Mdl_md.Statespace.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t

val mul_vec : Mdl_md.Md.t -> Mdl_md.Statespace.t -> Mdl_sparse.Vec.t -> Mdl_sparse.Vec.t

val row_sums : Mdl_md.Md.t -> Mdl_md.Statespace.t -> Mdl_sparse.Vec.t

val diag : Mdl_md.Md.t -> Mdl_md.Statespace.t -> Mdl_sparse.Vec.t

val to_csr : Mdl_md.Md.t -> Mdl_md.Statespace.t -> Mdl_sparse.Csr.t

(** {1 Checks} *)

val random_subset : Mdl_util.Prng.t -> Mdl_md.Md.t -> Mdl_md.Statespace.t
(** A seeded random non-empty subset of the diagram's potential space
    (each tuple kept with probability 3/4) — enumerates the potential
    space, so only for small diagrams. *)

type fault =
  | Shift_col
      (** one column offset of the compiled plan is moved by one
          (downwards where it is positive, so the index stays in
          range) *)

val check :
  ?fault:fault ->
  what:string ->
  Mdl_util.Prng.t ->
  Mdl_md.Md.t ->
  Mdl_md.Statespace.t ->
  Invariants.violation list * bool
(** Compile a plan and compare its [vec_mul] and [mul_vec] on a seeded
    random vector (about a quarter exact zeros), [row_sums], [diag] and
    [to_csr] with the reference.  Violations are checked as [product]
    and their detail starts with [what].  The flag says whether the
    fault could be applied (the plan has an entry).
    @raise Invalid_argument on a level-count mismatch. *)

type outcome = {
  model : string;  (** the spec's reproduction recipe *)
  states : int;
  lumped_states : int;
  violations : Invariants.violation list;
  injected : bool;
}

val check_spec : ?fault:fault -> Mdl_util.Prng.t -> Spec.model -> outcome
(** {!check} the diagram a spec denotes over a {!random_subset}, then
    its ordinary compositional lump over that subset's lumped image. *)

val pp_outcome : Format.formatter -> outcome -> unit
