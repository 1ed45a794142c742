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
module Build_oracle = Mdl_oracle.Build_oracle
module Formal_sum = Mdl_md.Formal_sum
module Kronecker = Mdl_kron.Kronecker
module Compact = Mdl_md.Compact

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

(* --- the MD builders against the reference builder --- *)

let same_ids a b = Md.live_nodes a = Md.live_nodes b

(* A spec's descriptor with the values of about half its events
   rescaled by random factors (and some entries made exact zeros), so
   sums carry rounding error and any change of summation order shows in
   the bits. *)
let rough_descriptor prng spec =
  let k = Gen_md.kronecker prng spec in
  let rough (e : Kronecker.event) =
    if Prng.bool prng then e
    else
      let value v =
        if Prng.int prng 8 = 0 then 0.0 else v *. (0.1 +. Prng.float prng 1.0)
      in
      {
        e with
        Kronecker.rate = e.Kronecker.rate *. (0.1 +. Prng.float prng 1.0);
        locals = Array.map (Csr.map value) e.Kronecker.locals;
      }
  in
  Kronecker.make ~sizes:(Kronecker.sizes k) (List.map rough (Kronecker.events k))

let builds_agree k =
  let md = Kronecker.to_md k and reference = Build_oracle.to_md k in
  let merged = Compact.merge_terms md and merged_ref = Build_oracle.merge_terms reference in
  let checks =
    [
      ("to_md", Md.equal md reference && same_ids md reference);
      (* The merge numbers its nodes in row-major creation order, the
         reference in hash-table order: same rooted diagram, other ids. *)
      ("merge_terms", Md.equal merged merged_ref);
      ( "normalize",
        let n = Compact.normalize md and n_ref = Build_oracle.normalize reference in
        Md.equal n n_ref && same_ids n n_ref );
      ( "md_of",
        let n = Compact.normalize merged and n_ref = Build_oracle.md_of k in
        Md.equal n n_ref && same_ids n n_ref );
    ]
  in
  match List.find_opt (fun (_, ok) -> not ok) checks with
  | None -> true
  | Some (pass, _) -> QCheck.Test.fail_reportf "%s differs from the reference builder" pass

(* Random entry lists over a two-level store: repeated positions,
   multi-term sums with rough coefficients of both signs (so folds can
   cancel), and now and then an out-of-range entry or a child at the
   wrong level. *)
let entry_lists_agree seed =
  let prng = Prng.of_seed seed in
  let n = 1 + Prng.int prng 4 and m = 1 + Prng.int prng 3 in
  let store () =
    let md = Md.create ~sizes:[| n; m |] in
    let children =
      List.init 3 (fun i ->
          Md.add_node md ~level:2 [ (i mod m, 0, Md.scalar_sum md (float_of_int (i + 1))) ])
    in
    (md, Array.of_list children)
  in
  let a, children = store () and b, children' = store () in
  assert (children = children');
  let coeff () = (if Prng.bool prng then -1.0 else 1.0) *. (0.1 +. Prng.float prng 1.0) in
  let entries =
    List.concat
      (List.init (Prng.int prng 12) (fun _ ->
           let r = Prng.int prng (n + 1) and c = Prng.int prng n in
           let r = if r = n && Prng.int prng 4 > 0 then 0 else r in
           let s =
             if Prng.int prng 20 = 0 then Formal_sum.singleton 0 1.0 (* the terminal *)
             else
               Formal_sum.of_list
                 (List.init (1 + Prng.int prng 2) (fun _ ->
                      (children.(Prng.int prng 3), coeff ())))
           in
           (* now and then the exact negation follows, cancelling *)
           if Prng.int prng 6 = 0 then [ (r, c, s); (r, c, Formal_sum.scale (-1.0) s) ]
           else [ (r, c, s) ]))
  in
  let build add md = try Ok (add md ~level:1 entries) with Invalid_argument msg -> Error msg in
  match (build Md.add_node a, build Build_oracle.add_node b) with
  | Error e, Error e' -> e = e' || QCheck.Test.fail_reportf "errors differ: %s / %s" e e'
  | Ok id, Ok id' ->
      id = id'
      && List.for_all
           (fun r ->
             List.equal
               (fun (c, s) (c', s') -> c = c' && Formal_sum.equal s s')
               (Md.node_row a id r) (Md.node_row b id' r))
           (List.init n Fun.id)
      || QCheck.Test.fail_reportf "node %d differs from reference node %d" id id'
  | Ok _, Error e | Error e, Ok _ -> QCheck.Test.fail_reportf "only one side raised: %s" e

let test_tandem_md_matches_reference () =
  List.iter
    (fun jobs ->
      let b = Mdl_models.Tandem.build (Mdl_models.Tandem.default ~jobs) in
      let reference =
        Build_oracle.md_of b.Mdl_models.Tandem.exploration.Mdl_san.Model.descriptor
      in
      Alcotest.(check (list (of_pp Invariants.pp_violation)))
        (Printf.sprintf "J = %d" jobs) []
        (Build_oracle.check b.Mdl_models.Tandem.md ~reference))
    [ 1; 2; 3 ]

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
    Test.make ~count:200 ~name:"MD builders = reference builder on random descriptors"
      (pair (Qgen.kron ()) small_nat) (fun (spec, seed) ->
        builds_agree (rough_descriptor (Prng.of_seed seed) spec));
    Test.make ~count:300 ~name:"add_node = reference on random entry lists" small_nat
      entry_lists_agree;
    Test.make ~count:100 ~name:"normalize = reference on free-form diagrams"
      (Qgen.direct ()) (fun spec ->
        let md = Gen_md.of_spec (Spec.Direct spec) in
        let n = Compact.normalize md and n_ref = Build_oracle.normalize md in
        Md.equal n n_ref && same_ids n n_ref);
    Test.make ~count:100 ~name:"build oracle: a flipped coefficient bit is always caught"
      (pair (Qgen.kron ()) small_nat) (fun (spec, seed) ->
        let k = rough_descriptor (Prng.of_seed seed) spec in
        let md = Mdl_md.Compact.normalize (Compact.merge_terms (Kronecker.to_md k)) in
        let entries = Build_oracle.num_entries md in
        entries = 0
        || Build_oracle.check (Build_oracle.flip_bit md (seed mod entries))
             ~reference:(Build_oracle.md_of k)
           <> []);
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
    Alcotest.test_case "tandem MD = reference builder (J = 1..3)" `Slow
      test_tandem_md_matches_reference;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
