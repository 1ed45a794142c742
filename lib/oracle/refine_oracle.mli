(** The differential oracle for partition refinement.

    Production refines through two engines only:
    {!Mdl_partition.Refiner.comp_lumping_float} for flat state-level
    lumping and {!Mdl_partition.Refiner.comp_lumping_ranked}, fed by
    {!Mdl_core.Key_cache}, for the levels of a matrix diagram.  This
    module keeps the references they are checked against:

    - the seed repository's list-based engine ({!comp_lumping}) over a
      closure-keyed {!spec} — it re-enqueues {e every} sub-block after a
      split and shuttles states through lists, fresh arrays and
      throwaway hash tables, so it shares no code with the production
      core;
    - the flat keys ({!state_spec}) and the uncached matrix-diagram
      level keys ({!splitter_keys}, {!node_spec}), evaluated afresh on
      every pass;
    - the level fixed point ({!comp_lumping_level}), the from-scratch
      entry-list quotient rebuild ({!rebuild}) and the whole lump
      ({!lump}) built from them.

    {!check} compares production with the references on one random
    model; a {!fault} turns the check on itself. *)

type slice = int array * int * int
(** A zero-copy class view [(perm, first, len)], as
    {!Mdl_partition.Refiner.slice}. *)

type 'k spec = {
  size : int;  (** number of states *)
  key_compare : 'k -> 'k -> int;
      (** total order on keys; [0] means equal.  Tolerant float
          comparison is not transitive, so quantize float keys
          ({!Mdl_util.Floatx.quantize}) and compare exactly. *)
  splitter_keys : slice -> (int * 'k) list;
      (** [splitter_keys c] lists [(s, K(s, C))] for every state [s]
          whose key w.r.t. splitter class [C] is different from the zero
          key.  States not listed share the common zero key.  Must not
          list a state twice. *)
}

val comp_lumping : 'k spec -> initial:Mdl_partition.Partition.t -> Mdl_partition.Partition.t
(** The seed engine: the coarsest refinement of [initial] stable under
    [spec]'s splitting.  Class ids follow the seed's numbering, not the
    production engines'; compare with {!Mdl_partition.Partition.equal}.
    @raise Invalid_argument if [initial] is not over [spec.size]
    states. *)

val is_stable : 'k spec -> Mdl_partition.Partition.t -> bool
(** Every class of the partition is key-constant w.r.t. every class as
    splitter — the post-condition of any refinement engine. *)

val state_spec :
  ?eps:float -> Mdl_lumping.State_lumping.mode -> Mdl_sparse.Csr.t -> float spec
(** The flat keys: row sums [R(s, C)] (ordinary) or column sums
    [R(C, s)] (exact), grouped by their quantized representative — the
    reference for {!Mdl_lumping.State_lumping.float_spec}.
    @raise Invalid_argument if the matrix is not square. *)

val splitter_keys :
  ?eps:float ->
  ?skip:(int -> bool) ->
  Mdl_core.Local_key.context ->
  Mdl_core.Local_key.choice ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.node_id ->
  slice ->
  (int * Mdl_core.Local_key.t) list
(** {!Mdl_core.Local_key.eval_keys} as an association list, in the same
    order. *)

val node_spec :
  ?eps:float ->
  Mdl_core.Local_key.context ->
  Mdl_core.Local_key.choice ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  Mdl_md.Md.node_id ->
  Mdl_core.Local_key.t spec
(** The uncached level keys of one node, compared with
    {!Mdl_core.Local_key.compare_exact}. *)

val is_locally_lumpable :
  ?eps:float ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  level:int ->
  Mdl_partition.Partition.t ->
  bool
(** Direct check of Definition 3's matrix conditions (with formal-sum
    equality) for a given partition — the post-condition of
    {!Mdl_core.Level_lumping.comp_lumping_level}.  Does not check the
    reward / initial-probability factor conditions.
    @raise Invalid_argument on a bad level. *)

val comp_lumping_level :
  ?eps:float ->
  ?key:Mdl_core.Local_key.choice ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  level:int ->
  initial:Mdl_partition.Partition.t ->
  Mdl_partition.Partition.t
(** [CompLumpingLevel] through the seed engine on uncached keys,
    canonicalised like the production fixed point (the identity
    partition when nothing lumps, first-appearance class ids
    otherwise), so equal results have equal class assignments.
    @raise Invalid_argument on a bad level. *)

val rebuild :
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  Mdl_partition.Partition.t array ->
  Mdl_md.Md.t
(** The from-scratch quotient: every live node rebuilt entry by entry
    through {!Mdl_md.Md.add_node} (ordinary: representative rows,
    class-summed columns; exact: all entries scaled by [1/|C_row|]), no
    node imported or aliased. *)

val lump :
  ?eps:float ->
  ?key:Mdl_core.Local_key.choice ->
  Mdl_lumping.State_lumping.mode ->
  Mdl_md.Md.t ->
  rewards:Mdl_core.Decomposed.t list ->
  initial:Mdl_core.Decomposed.t ->
  Mdl_core.Compositional.result
(** The reference {!Mdl_core.Compositional.lump}: production initial
    partitions ({!Mdl_core.Level_lumping.initial_partition}), then
    {!comp_lumping_level} per level and {!rebuild}. *)

(** {1 Check} *)

type fault =
  | Flip_gid
      (** before one level's production fixed point, one state's gid in
          the cached row of its first splitter pass is replaced by a gid
          no other state of that row has; the state is chosen in a
          reference class of at least two states, so the fault always
          changes the result *)

type outcome = {
  model : string;  (** the spec's reproduction recipe *)
  mode : Mdl_lumping.State_lumping.mode;
  violations : Invariants.violation list;
  injected : bool;  (** whether the fault found a row to corrupt *)
}

val check :
  ?fault:fault ->
  ?pool:Mdl_util.Domain_pool.t ->
  ?par_threshold:int ->
  Mdl_lumping.State_lumping.mode ->
  Spec.model ->
  outcome
(** For both key choices: every level's production
    {!Mdl_core.Level_lumping.comp_lumping_level} (through a cache the
    oracle binds, where a fault goes) against {!comp_lumping_level},
    and the production {!Mdl_core.Compositional.lump} (on [pool] when
    given) against {!lump} — equal class assignments per level and an
    [Md.equal] lumped diagram.  Ordinary mode protects a last-level
    indicator reward.  Violations are reported as [refine]. *)

val pp_outcome : Format.formatter -> outcome -> unit
