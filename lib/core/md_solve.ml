module Plan = Mdl_md.Md_vector.Plan
module Vec = Mdl_sparse.Vec
module Solver = Mdl_ctmc.Solver
module Trace = Mdl_obs.Trace

let setup f = Trace.with_span ~cat:"solve" "solve.setup" f

(* The plan, the exit rates and the uniformisation rate of one solve. *)
let uniformized_parts ?lambda md ss =
  let plan = Plan.compile md ss in
  let exit = Plan.row_sums plan in
  let max_rate = Array.fold_left Float.max 0.0 exit in
  let lambda =
    match lambda with
    | None -> if max_rate = 0.0 then 1.0 else 1.02 *. max_rate
    | Some l ->
        if not (Float.is_finite l && l > 0.0) then
          invalid_arg "Md_solve.uniformized_operator: lambda must be finite and positive";
        if l < max_rate then
          invalid_arg "Md_solve.uniformized_operator: lambda below max exit rate";
        l
  in
  (plan, exit, lambda)

let operator plan exit lambda =
  let apply x =
    let y = Plan.vec_mul plan x in
    (* y := x + (x R - x .* exit) / lambda, elementwise. *)
    Array.mapi (fun i yi -> x.(i) +. ((yi -. (x.(i) *. exit.(i))) /. lambda)) y
  in
  { Solver.dim = plan.Plan.size; apply }

let uniformized_operator ?lambda md ss =
  let plan, exit, lambda = setup (fun () -> uniformized_parts ?lambda md ss) in
  (operator plan exit lambda, lambda)

let steady_state ?tol ?max_iter md ss =
  let op, _lambda = uniformized_operator md ss in
  Solver.power ?tol ?max_iter op

let steady_state_krylov ?tol ?max_iter md ss =
  let op, diag =
    setup (fun () ->
        let plan, exit, lambda = uniformized_parts md ss in
        (* Diagonal of the uniformised P = I + Q/lambda over state
           indices: P(i,i) = 1 + (R(i,i) - exit(i)) / lambda — one more
           walk of the plan buys the Jacobi preconditioner without
           materialising the matrix. *)
        let rdiag = Plan.diag plan in
        ( operator plan exit lambda,
          Array.init plan.Plan.size (fun i -> 1.0 +. ((rdiag.(i) -. exit.(i)) /. lambda)) ))
  in
  Solver.krylov ?tol ?max_iter ~diag op

let transient ?epsilon ~t md ss pi0 =
  let op, lambda = uniformized_operator md ss in
  Solver.transient_operator ?epsilon ~t ~lambda op pi0

let ctmc_of md ss = Mdl_ctmc.Ctmc.of_rates (Mdl_md.Md_vector.to_csr md ss)

let steady_state_with method_ md ss =
  match method_ with
  | Solver.Power -> steady_state ~tol:1e-12 ~max_iter:500_000 md ss
  | Solver.Krylov -> steady_state_krylov ~tol:1e-12 md ss
  | Solver.Gauss_seidel ->
      (* Gauss–Seidel needs explicit matrix rows: flatten the diagram,
         reorder with reverse Cuthill–McKee, sweep with mild
         under-relaxation (pure sweeps oscillate on some lumped
         chains).  The distribution comes back in the original state
         numbering. *)
      let ctmc = setup (fun () -> ctmc_of md ss) in
      Solver.steady_state_gauss_seidel ~tol:1e-12 ~max_iter:100_000 ~ordering:Solver.Rcm
        ~relax:0.9 ctmc
