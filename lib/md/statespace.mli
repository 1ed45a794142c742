(** Reachable global state spaces for matrix diagrams, as counted MDDs.

    An MD is defined over the potential product space
    [S_1 x .. x S_L]; the reachable states are a subset of it, stored as
    the paper's Möbius implementation indexes them: one hash-consed node
    per distinct suffix set, each arc [(local state, offset, child)]
    carrying the number of states lexicographically before it within its
    node.  Solution vectors are indexed [0 .. size-1] in lexicographic
    order; the index of a tuple is the sum of the offsets along its path
    — no hashing, and the space is never flattened.  Symbolic generation
    builds it in [O(nodes)] ({!Set_mdd.to_statespace}). *)

type t

val of_tuples : levels:int -> int array list -> t
(** Build from a list of length-[levels] tuples; duplicates are merged;
    tuples are ordered lexicographically.
    @raise Invalid_argument on a tuple of the wrong length or an empty
    list. *)

val levels : t -> int

val size : t -> int

val index : t -> int array -> int option
(** Position of a tuple, if present ([None] also for a tuple of the
    wrong length).  Walks the offsets along the tuple's path. *)

val tuple : t -> int -> int array
(** The tuple at an index, decoded from the offsets into a fresh array.
    @raise Invalid_argument if the index is out of bounds. *)

val iter : (int -> int array -> unit) -> t -> unit
(** [iter f t] calls [f i s] for every member [s] in index order
    ([i = 0, 1, ..]).  The tuple buffer [s] is {b reused} between calls:
    copy it if it must outlive the call, and do not mutate it. *)

val local_states : t -> int -> int list
(** [local_states t l] is the sorted set of level-[l] substates that
    occur in some state — the projection of the state space onto level
    [l] (used to size the per-level index sets).  Read off the arcs of
    the level-[l] nodes, [O(nodes)]. *)

val map : t -> (int array -> int array) -> t
(** [map t f] is the state space [{f s | s in t}] (e.g. the lumped state
    space obtained by mapping substates to class ids); duplicates
    collapse.  [f] may change the number of levels (e.g.
    {!Restructure.merge_tuple}-style maps); all images must
    have the same length.  Enumerates every member: per-level maps are
    cheaper as {!Set_mdd.relabel}. *)

val pp : Format.formatter -> t -> unit

(** {1 The counted MDD} *)

type node = private int
(** A node at some level; the root is at level 1, the terminal (one
    empty suffix) below level [L]. *)

val root : t -> node

val num_nodes : t -> int
(** Shared nodes in the diagram (excluding the terminal). *)

val arc : t -> node -> int -> (int * node) option
(** [arc t n s] follows local state [s] out of node [n]: returns the
    offset (number of states before [s] within [n]) and the child node,
    or [None] when no member state has substate [s] here.  The child of
    a level-[L] node is the terminal (count 1). *)

val iter_arcs : t -> node -> (int -> int -> node -> unit) -> unit
(** [iter_arcs t n f] calls [f s offset child] for every arc of [n], in
    increasing local state [s]. *)

val weighted_size : t -> (int -> int -> int) -> int
(** [weighted_size t w] is [sum over members s of prod_l (w l s_l)],
    computed in one memoised pass over the nodes ([w] must be
    non-negative); [weighted_size t (fun _ _ -> 1) = size t]. *)

val of_diagram : levels:int -> root:int -> arcs:(int -> (int * int) array) -> t
(** [of_diagram ~levels ~root ~arcs] converts a quasi-reduced
    hash-consed tuple-set diagram, given by its non-empty root and the
    [(local state, child)] arcs of each node (strictly increasing in
    local state, children non-empty), in one memoised pass over the
    nodes reachable from [root].  Node ids must be unique across levels;
    [arcs] is never asked for the terminal (below level [levels]). *)
