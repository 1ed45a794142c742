(* fuzz: the differential lumping oracle's driver.

   Generates random models (flat chains, Kronecker compositions, free
   matrix diagrams), lumps each one compositionally AND at the state
   level, and cross-checks everything the paper's theorems promise
   (see Mdl_oracle.Oracle).  Every case also draws a random SAN model
   and checks symbolic state-space generation, the lumped state space
   and the closure test against explicit references
   (Mdl_oracle.Explore_oracle) and its matrix diagram against the
   reference builder (Mdl_oracle.Build_oracle), and checks the compiled
   product plan of its diagram and of its lumped quotient, over a
   random reachable subset, against the reference co-walk
   (Mdl_oracle.Product_oracle), and checks production partition
   refinement — every level's fixed point and the whole lump, for both
   key choices — against the seed-engine reference
   (Mdl_oracle.Refine_oracle).
   Deterministic: one master --seed drives the whole run, and every
   case prints a spec that reproduces it.

   Examples:
     dune exec bin/fuzz.exe -- --count 200 --seed 42
     dune exec bin/fuzz.exe -- --count 20 --sanity     # oracle self-test

   Failures print the model spec and the (seed, case index) pair that
   regenerates it. *)

module Prng = Mdl_util.Prng
module Spec = Mdl_oracle.Spec
module Oracle = Mdl_oracle.Oracle
module Explore_oracle = Mdl_oracle.Explore_oracle
module Product_oracle = Mdl_oracle.Product_oracle
module Refine_oracle = Mdl_oracle.Refine_oracle

let run_fuzz count seed max_levels modes sanity domains verbose =
  (* [--verbose] keeps its per-case outcome printing; the shared logging
     setup additionally raises the Logs level so library debug output
     (oracle summaries, refinement internals) interleaves with it. *)
  Mdl_obs.Logging.setup ~verbose ();
  let master = Prng.of_seed seed in
  (* Domain pools are created once per size and reused across cases
     (domains are joined only at exit).  Under [--domains], every
     sharding threshold is forced to 1 so even the small fuzz models
     exercise the parallel paths; set MDL_CHAOS=1 to additionally
     perturb task interleavings inside the pool. *)
  let pools = Hashtbl.create 4 in
  let pool_of n =
    if n <= 1 then None
    else
      Some
        (match Hashtbl.find_opt pools n with
        | Some p -> p
        | None ->
            let p = Mdl_util.Domain_pool.create ~domains:n in
            Hashtbl.add pools n p;
            p)
  in
  let pool_for prng =
    match domains with
    | `Off -> None
    | `Fixed n -> pool_of n
    | `Random -> pool_of (2 + Prng.int prng 3)
  in
  let inject = if sanity then Some 0.5 else None in
  let failures = ref 0 and missed = ref 0 and skipped_inject = ref 0 in
  let checked = ref 0 in
  let explored = ref 0 and explore_failures = ref 0 in
  let explore_missed = ref 0 and explore_skipped = ref 0 in
  let products = ref 0 and product_failures = ref 0 in
  let product_missed = ref 0 and product_skipped = ref 0 in
  let refines = ref 0 and refine_failures = ref 0 in
  let refine_missed = ref 0 and refine_skipped = ref 0 in
  let family_counts = Hashtbl.create 4 in
  for i = 0 to count - 1 do
    let prng = Prng.fork master i in
    let spec = Spec.random prng ~max_levels in
    let family =
      match spec with Spec.Chain _ -> "chain" | Spec.Kron _ -> "kron" | Spec.Direct _ -> "direct"
    in
    Hashtbl.replace family_counts family
      (1 + Option.value ~default:0 (Hashtbl.find_opt family_counts family));
    (* A fork, so the SAN draw leaves the lumping case's stream untouched. *)
    let san_seed = Explore_oracle.draw_seed (Prng.fork prng 1) in
    let faults =
      if sanity then
        [
          Some Explore_oracle.Swap_index;
          Some Explore_oracle.Flip_closure;
          Some Explore_oracle.Flip_coefficient;
        ]
      else [ None ]
    in
    List.iter
      (fun fault ->
        let o = Explore_oracle.check ?fault san_seed in
        incr explored;
        if verbose then Format.printf "#%d %a@." i Explore_oracle.pp_outcome o;
        if sanity then begin
          if not o.Explore_oracle.injected then incr explore_skipped
          else if o.Explore_oracle.violations = [] then begin
            incr explore_missed;
            Format.printf "#%d SANITY MISS: injected exploration fault not caught: %a@." i
              Explore_oracle.pp_outcome o
          end
        end
        else if o.Explore_oracle.violations <> [] then begin
          incr explore_failures;
          Format.printf "#%d %a@.reproduce: --seed %d (case %d)@." i
            Explore_oracle.pp_outcome o seed i
        end)
      faults;
    let fault = if sanity then Some Product_oracle.Shift_col else None in
    let po = Product_oracle.check_spec ?fault (Prng.fork prng 2) spec in
    incr products;
    if verbose then Format.printf "#%d %a@." i Product_oracle.pp_outcome po;
    if sanity then begin
      if not po.Product_oracle.injected then incr product_skipped
      else if po.Product_oracle.violations = [] then begin
        incr product_missed;
        Format.printf "#%d SANITY MISS: shifted plan column not caught: %a@." i
          Product_oracle.pp_outcome po
      end
    end
    else if po.Product_oracle.violations <> [] then begin
      incr product_failures;
      Format.printf "#%d %a@.reproduce: --seed %d (case %d)@." i Product_oracle.pp_outcome po
        seed i
    end;
    let pool = pool_for prng in
    let par_threshold = if pool = None then None else Some 1 in
    let fault = if sanity then Some Refine_oracle.Flip_gid else None in
    List.iter
      (fun mode ->
        let ro = Refine_oracle.check ?fault ?pool ?par_threshold mode spec in
        incr refines;
        if verbose then Format.printf "#%d %a@." i Refine_oracle.pp_outcome ro;
        if sanity then begin
          if not ro.Refine_oracle.injected then incr refine_skipped
          else if ro.Refine_oracle.violations = [] then begin
            incr refine_missed;
            Format.printf "#%d SANITY MISS: flipped cached gid not caught: %a@." i
              Refine_oracle.pp_outcome ro
          end
        end
        else if ro.Refine_oracle.violations <> [] then begin
          incr refine_failures;
          Format.printf "#%d %a@.reproduce: --seed %d (case %d)@." i
            Refine_oracle.pp_outcome ro seed i
        end)
      modes;
    List.iter
      (fun mode ->
        let outcome = Oracle.run ?inject ?pool ?par_threshold mode spec in
        incr checked;
        if verbose then Format.printf "#%d %a@." i Oracle.pp_outcome outcome;
        if sanity then begin
          if List.mem_assoc "inject" outcome.Oracle.skipped then incr skipped_inject
          else if Oracle.ok outcome then begin
            incr missed;
            Format.printf "#%d SANITY MISS: injected perturbation not caught: %a@." i
              Oracle.pp_outcome outcome
          end
        end
        else if not (Oracle.ok outcome) then begin
          incr failures;
          Format.printf "#%d %a@.reproduce: --seed %d (case %d), spec %s@." i
            Oracle.pp_outcome outcome seed i
            (Spec.to_string spec)
        end)
      modes
  done;
  Hashtbl.iter (fun _ p -> Mdl_util.Domain_pool.shutdown p) pools;
  let families =
    Hashtbl.fold (fun f c acc -> Printf.sprintf "%s=%d" f c :: acc) family_counts []
    |> List.sort compare |> String.concat " "
  in
  let domains_note =
    match domains with
    | `Off -> ""
    | `Fixed n -> Printf.sprintf " [%d domains%s]" n (if Hashtbl.length pools > 0 && Hashtbl.fold (fun _ p _ -> Mdl_util.Domain_pool.chaos p) pools false then ", chaos" else "")
    | `Random -> Printf.sprintf " [random domains%s]" (if Hashtbl.fold (fun _ p _ -> Mdl_util.Domain_pool.chaos p) pools false then ", chaos" else "")
  in
  if sanity then begin
    Printf.printf
      "sanity: %d oracle runs with an injected rate perturbation: %d caught, %d missed, %d not injectable\n"
      !checked (!checked - !missed - !skipped_inject) !missed !skipped_inject;
    Printf.printf
      "sanity: %d exploration checks with an injected fault: %d caught, %d missed, %d not injectable\n"
      !explored (!explored - !explore_missed - !explore_skipped) !explore_missed
      !explore_skipped;
    Printf.printf
      "sanity: %d product checks with a shifted plan column: %d caught, %d missed, %d not injectable\n"
      !products (!products - !product_missed - !product_skipped) !product_missed
      !product_skipped;
    Printf.printf
      "sanity: %d refine checks with a flipped cached gid: %d caught, %d missed, %d not injectable\n"
      !refines (!refines - !refine_missed - !refine_skipped) !refine_missed
      !refine_skipped;
    if !missed > 0 || !explore_missed > 0 || !product_missed > 0 || !refine_missed > 0
    then begin
      print_endline "FAIL: the oracle is blind to injected faults";
      exit 1
    end;
    print_endline "ok: every injected fault was caught"
  end
  else begin
    Printf.printf "fuzz: %d models (%s), %d oracle runs, %d violations%s\n" count
      families !checked !failures domains_note;
    Printf.printf "exploration: %d SAN models, %d violations\n" !explored !explore_failures;
    Printf.printf "products: %d plan checks, %d violations\n" !products !product_failures;
    Printf.printf "refine: %d reference checks, %d violations\n" !refines !refine_failures;
    if !failures > 0 || !explore_failures > 0 || !product_failures > 0 || !refine_failures > 0
    then exit 1;
    print_endline "ok: zero oracle violations"
  end

open Cmdliner

let count_arg =
  Arg.(value & opt int 100 & info [ "count"; "n" ] ~doc:"Number of random models to check.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed"; "s" ] ~doc:"Master PRNG seed; a run is fully determined by (seed, count, max-levels).")

let levels_arg =
  Arg.(value & opt int 3 & info [ "max-levels" ] ~doc:"Maximum number of MD levels to generate.")

let mode_arg =
  let mode_conv =
    Arg.enum
      [
        ("ordinary", [ Oracle.Ordinary ]);
        ("exact", [ Oracle.Exact ]);
        ("both", [ Oracle.Ordinary; Oracle.Exact ]);
      ]
  in
  Arg.(value & opt mode_conv [ Oracle.Ordinary; Oracle.Exact ]
       & info [ "mode" ] ~doc:"Lumping mode(s) to cross-check: $(b,ordinary), $(b,exact) or $(b,both).")

let sanity_arg =
  Arg.(value & flag
       & info [ "sanity" ]
           ~doc:"Oracle self-test: inject a rate perturbation into every lumped matrix, an index swap, a flipped closure verdict and a flipped coefficient bit in the built diagram into every exploration check, a shifted column offset into every product plan, and a flipped gid in a cached splitter row into every refine check, and require the oracle to catch each.")

let domains_arg =
  let domains_conv =
    let parse s =
      if s = "random" then Ok `Random
      else
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok (if n = 1 then `Off else `Fixed n)
        | _ -> Error (`Msg "expected a positive integer or \"random\"")
    in
    let print ppf = function
      | `Off -> Format.pp_print_string ppf "1"
      | `Fixed n -> Format.pp_print_int ppf n
      | `Random -> Format.pp_print_string ppf "random"
    in
    Arg.conv (parse, print)
  in
  Arg.(value & opt domains_conv `Off
       & info [ "domains" ] ~docv:"N"
           ~doc:"Lump on $(docv) OCaml domains (or $(b,random): 2-4 domains drawn per case), with every sharding threshold forced to 1 so small models still take the parallel paths. Results are checked by the same oracle either way. Set MDL_CHAOS=1 to also perturb pool interleavings (concurrency chaos mode).")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every outcome, not just failures.")

let cmd =
  Cmd.v
    (Cmd.info "fuzz" ~version:"1.0.0"
       ~doc:"Differential fuzzing of compositional vs state-level lumping.")
    Term.(const run_fuzz $ count_arg $ seed_arg $ levels_arg $ mode_arg $ sanity_arg
          $ domains_arg $ verbose_arg)

let () = exit (Cmd.eval cmd)
