(** Numerical solution driven directly by a matrix diagram.

    The point of MD-based analysis (and of lumping the MD first) is that
    the transition matrix is never materialised: each iteration walks
    the diagram.  This module wires {!Mdl_md.Md_vector} products into
    the generic iterative solvers of {!Mdl_ctmc.Solver}.

    Each solve compiles one product plan ({!Mdl_md.Md_vector.Plan}) of
    the diagram over the state space; the exit rates, the Jacobi
    diagonal and every operator application then walk that plan.  The
    compile, the exit rates and the diagonal run inside a [solve.setup]
    span ([Mdl_obs.Trace], category [solve]) ahead of the kernel's
    [solver.*] span, so a traced solve accounts for its whole wall. *)

val uniformized_operator :
  ?lambda:float -> Mdl_md.Md.t -> Mdl_md.Statespace.t -> Mdl_ctmc.Solver.operator * float
(** The row-vector operator [x -> x * P] for [P = I + Q/lambda],
    [Q = R - rs(R)], computed on the fly from the diagram:
    [x P = x + (x R - x . exit) / lambda].  Returns the operator and the
    uniformisation rate used (default [1.02 *] max exit rate; [1.] on a
    chain without transitions).
    @raise Invalid_argument if [lambda] is not finite and positive, or
    is below the max exit rate. *)

val steady_state :
  ?tol:float ->
  ?max_iter:int ->
  Mdl_md.Md.t ->
  Mdl_md.Statespace.t ->
  Mdl_sparse.Vec.t * Mdl_ctmc.Solver.stats
(** Stationary distribution by power iteration on the uniformised
    operator — the MD-based counterpart of
    {!Mdl_ctmc.Solver.steady_state}. *)

val steady_state_krylov :
  ?tol:float ->
  ?max_iter:int ->
  Mdl_md.Md.t ->
  Mdl_md.Statespace.t ->
  Mdl_sparse.Vec.t * Mdl_ctmc.Solver.stats
(** Stationary distribution by {!Mdl_ctmc.Solver.krylov} (BiCGStab) on
    the uniformised operator, Jacobi-preconditioned with the diagonal
    read off the solve's plan ({!Mdl_md.Md_vector.Plan.diag}) — still
    matrix-free. *)

val transient :
  ?epsilon:float ->
  t:float ->
  Mdl_md.Md.t ->
  Mdl_md.Statespace.t ->
  Mdl_sparse.Vec.t ->
  Mdl_sparse.Vec.t
(** Transient distribution at time [t] by uniformisation driven by the
    diagram (the matrix is never materialised) — the MD counterpart of
    {!Mdl_ctmc.Solver.transient}. *)

val ctmc_of : Mdl_md.Md.t -> Mdl_md.Statespace.t -> Mdl_ctmc.Ctmc.t
(** Flatten the diagram over the reachable space into an explicit CTMC —
    the baseline representation, and the input to flat state-level
    lumping for optimality checks. *)

val steady_state_with :
  Mdl_ctmc.Solver.method_ ->
  Mdl_md.Md.t ->
  Mdl_md.Statespace.t ->
  Mdl_sparse.Vec.t * Mdl_ctmc.Solver.stats
(** The one steady-state dispatch of [lumpmd --solve] and [lumpd]'s
    [solve] verb, all at tolerance [1e-12]: {!steady_state} (at most
    [500_000] iterations), {!steady_state_krylov}, or {!ctmc_of}
    (inside the [solve.setup] span) then
    {!Mdl_ctmc.Solver.steady_state_gauss_seidel} in reverse
    Cuthill–McKee order with relaxation [0.9] (at most [100_000]
    sweeps). *)
