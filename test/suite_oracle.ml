(* Tests for the differential lumping oracle itself (Mdl_oracle).

   Two layers: unit cases pinning the oracle's behaviour on known
   models, and QCheck properties running the full differential check
   (compositional vs state-level lumping) over random specs — the same
   checks bin/fuzz.exe runs, but inside the test suite and with
   shrinking. *)

module Csr = Mdl_sparse.Csr
module Md = Mdl_md.Md
module Prng = Mdl_util.Prng
module Spec = Mdl_oracle.Spec
module Gen_md = Mdl_oracle.Gen_md
module Gen_chain = Mdl_oracle.Gen_chain
module Invariants = Mdl_oracle.Invariants
module Oracle = Mdl_oracle.Oracle
module Product_oracle = Mdl_oracle.Product_oracle
module Qgen = Mdl_oracle.Qcheck_gen

(* A 4-state chain with a planted symmetry: states 2 and 3 are
   interchangeable, so both lumping algorithms must merge them. *)
let planted_chain () =
  Csr.of_triplets ~rows:4 ~cols:4
    [
      (0, 1, 2.0);
      (1, 2, 0.5);
      (1, 3, 0.5);
      (2, 0, 1.0);
      (3, 0, 1.0);
      (2, 3, 1.5);
      (3, 2, 1.5);
    ]

let test_oracle_accepts_planted_chain () =
  List.iter
    (fun mode ->
      let o = Oracle.check_chain mode (planted_chain ()) in
      Alcotest.(check bool) "no violations" true (Oracle.ok o);
      Alcotest.(check int) "four states" 4 o.Oracle.states;
      Alcotest.(check int) "2 and 3 lumped" 3 o.Oracle.flat_classes;
      Alcotest.(check bool) "quotient-agreement ran" true
        (List.mem "quotient-agreement" o.Oracle.checks);
      Alcotest.(check bool) "single-level-equality ran" true
        (List.mem "single-level-equality" o.Oracle.checks);
      Alcotest.(check bool) "stationary-agreement ran" true
        (List.mem "stationary-agreement" o.Oracle.checks))
    [ Oracle.Ordinary; Oracle.Exact ]

let test_oracle_catches_injection () =
  List.iter
    (fun mode ->
      let o = Oracle.check_chain ~inject:0.5 mode (planted_chain ()) in
      Alcotest.(check bool) "injected fault reported" false (Oracle.ok o))
    [ Oracle.Ordinary; Oracle.Exact ]

let test_generation_deterministic () =
  let spec =
    Spec.Kron
      { sizes = [| 2; 3 |]; events = 2; symmetric = true; ring = true; merged = false; seed = 99 }
  in
  let a = Md.to_csr (Gen_md.of_spec spec) and b = Md.to_csr (Gen_md.of_spec spec) in
  Alcotest.(check bool) "same spec, same matrix" true (Csr.approx_equal a b)

let test_invariants_accept_spec_models () =
  let md =
    Gen_md.of_spec
      (Spec.Direct { sizes = [| 3; 2; 2 |]; width = 2; symmetric = false; seed = 5 })
  in
  Invariants.assert_valid md;
  Alcotest.(check (list (of_pp Invariants.pp_violation))) "no violations" []
    (Invariants.md md)

let test_chain_irreducible () =
  let prng = Prng.of_seed 11 in
  for _ = 1 to 25 do
    let states = 2 + Prng.int prng 10 in
    let spec = { Spec.states; extra = Prng.int prng 12; planted = Prng.bool prng; seed = Prng.int prng 100000 } in
    let c = Gen_chain.ctmc (Prng.of_seed spec.Spec.seed) spec in
    Alcotest.(check bool) "ring makes it irreducible" true (Mdl_ctmc.Ctmc.is_irreducible c)
  done

let qcheck_tests =
  let open QCheck in
  let no_violations mode arb name =
    Test.make ~count:120 ~name arb (fun spec ->
        let o = Oracle.run mode spec in
        if Oracle.ok o then true
        else Test.fail_reportf "%a" Oracle.pp_outcome o)
  in
  [
    no_violations Oracle.Ordinary (Qgen.model ())
      "oracle: ordinary lumping agrees compositionally vs flat";
    no_violations Oracle.Exact (Qgen.model ())
      "oracle: exact lumping agrees compositionally vs flat";
    Test.make ~count:120 ~name:"oracle: injected rate fault is always caught"
      (Qgen.model ()) (fun spec ->
        let o = Oracle.run ~inject:0.5 Oracle.Ordinary spec in
        List.mem_assoc "inject" o.Oracle.skipped || not (Oracle.ok o));
    Test.make ~count:150 ~name:"product plan = reference co-walk on random subsets"
      (pair (Qgen.model ()) small_nat) (fun (spec, seed) ->
        let prng = Prng.of_seed seed in
        let md = Gen_md.of_spec spec in
        let ss = Product_oracle.random_subset (Prng.fork prng 0) md in
        match Product_oracle.check ~what:"diagram" (Prng.fork prng 1) md ss with
        | [], _ -> true
        | vs, _ ->
            Test.fail_reportf "%a" (Format.pp_print_list Invariants.pp_violation) vs);
    Test.make ~count:100 ~name:"product oracle: a shifted plan column is always caught"
      (Qgen.model ()) (fun spec ->
        let o = Product_oracle.check_spec ~fault:Shift_col (Prng.of_seed 3) spec in
        (not o.Product_oracle.injected) || o.Product_oracle.violations <> []);
    Test.make ~count:150 ~name:"generated diagrams are well-formed"
      (Qgen.md_model ()) (fun spec -> Invariants.md (Gen_md.of_spec spec) = []);
    Test.make ~count:150 ~name:"spec derivation is deterministic" (Qgen.md_model ())
      (fun spec ->
        Csr.approx_equal
          (Md.to_csr (Gen_md.of_spec spec))
          (Md.to_csr (Gen_md.of_spec spec)));
  ]

let tests =
  [
    Alcotest.test_case "oracle accepts planted chain" `Quick
      test_oracle_accepts_planted_chain;
    Alcotest.test_case "oracle catches injected fault" `Quick
      test_oracle_catches_injection;
    Alcotest.test_case "spec generation deterministic" `Quick
      test_generation_deterministic;
    Alcotest.test_case "invariants accept generated MDs" `Quick
      test_invariants_accept_spec_models;
    Alcotest.test_case "generated chains irreducible" `Quick test_chain_irreducible;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
