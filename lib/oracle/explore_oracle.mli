(** The differential oracle for state-space generation.

    Symbolic generation ({!Mdl_san.Model.explore_symbolic}: saturation,
    then the counted-MDD state space built node by node) is
    cross-checked against explicit breadth-first search
    ({!Mdl_san.Model.explore}), and the symbolic lumped state space and
    closure test of {!Mdl_core.Compositional} against the enumerating
    references below, on seeded random SAN models:

    - {b locals}: identical local spaces and initial tuple;
    - {b index}: the same state at every index, and [index] inverts
      [tuple] in both spaces;
    - {b flatten}: the two diagrams flatten ({!Mdl_md.Md_vector.to_csr})
      to bit-identical matrices;
    - {b build}: {!Mdl_san.Model.md_of} equals the reference builder's
      diagram ({!Build_oracle.md_of} of the descriptor), node ids
      included;
    - {b lump-statespace} / {b closure}: the symbolic per-level
      relabel-and-union and weighted-count closure agree with
      {!lump_statespace} and {!is_closed} under the lumping result's
      partitions and under trivial, discrete and random per-level
      partitions — closed and non-closed ones alike.

    A {!fault} turns the check on itself: a healthy oracle must report
    it. *)

val random_model : int -> Mdl_san.Model.t
(** A deterministic random model from a seed: 1-3 bounded-counter
    components, 1-5 events picked from a small effect repertoire
    (increment, decrement, reset, a probabilistic branch, a toggle, the
    identity). *)

val draw_seed : Mdl_util.Prng.t -> int
(** A seed for {!random_model}, redrawn (up to 16 times) while its
    model reaches a single state: about half of the models deadlock in
    their initial state, and those exercise no index or closure
    structure. *)

val lump_statespace :
  Mdl_core.Compositional.result -> Mdl_md.Statespace.t -> Mdl_md.Statespace.t
(** Reference: map every enumerated state through
    {!Mdl_core.Compositional.class_tuple} ({!Mdl_md.Statespace.map}). *)

val is_closed : Mdl_core.Compositional.result -> Mdl_md.Statespace.t -> bool
(** Reference: count the reachable states of each global class in a
    hash table and compare every count with the class volume. *)

type fault =
  | Swap_index  (** the symbolic space answers indices 0 and 1 swapped *)
  | Flip_closure  (** the symbolic closure verdict is negated *)
  | Flip_coefficient
      (** one coefficient of the built diagram has its lowest bit
          flipped ({!Build_oracle.flip_bit}) before the [build] check *)

type outcome = {
  model : string;  (** the reproduction seed *)
  states : int;
  violations : Invariants.violation list;
  injected : bool;  (** the requested fault could be applied *)
}

val check : ?fault:fault -> int -> outcome
(** Build [random_model seed] both ways and run every check above. *)

val pp_outcome : Format.formatter -> outcome -> unit
