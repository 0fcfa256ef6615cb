(* The compiled engine against its interpreted oracles: byte-identical
   verdicts for Product.survey / admits / compliance / Netcheck at every
   level, and minimization preserves the language. *)

open Core

let prop name count gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let pair_arb =
  QCheck.pair Testkit.Generators.contract_arb Testkit.Generators.contract_arb

(* Toggle the compiled dispatch (the backend stays installed) and
   restore it afterwards, whatever happens. *)
let with_compiled on f =
  let prev = Compile.Backend.enabled () in
  Compile.Backend.set_enabled on;
  Fun.protect ~finally:(fun () -> Compile.Backend.set_enabled prev) f

let levels =
  [
    Compliance.Strict;
    Compliance.Skip_k 0;
    Compliance.Skip_k 1;
    Compliance.Skip_k 3;
    Compliance.Affectible;
  ]

(* --- lowering units ---------------------------------------------------- *)

let test_lower_shapes () =
  let t = Option.get (Compile.Table.lower Contract.nil) in
  Alcotest.(check int) "nil is one state" 1 t.Compile.Table.states;
  Alcotest.(check bool) "nil kind" true (t.Compile.Table.kind.(0) = Compile.Table.Knil);
  let t = Option.get (Compile.Table.lower (Contract.recv "a")) in
  Alcotest.(check int) "a? has two states" 2 t.Compile.Table.states;
  Alcotest.(check bool) "a? inputs" true (t.Compile.Table.kind.(0) = Compile.Table.Kin);
  Alcotest.(check int) "a? row" 1 (Array.length t.Compile.Table.row_syms.(0));
  let sel =
    Contract.select [ ("a", Contract.nil); ("b", Contract.recv "c") ]
  in
  let t = Option.get (Compile.Table.lower sel) in
  Alcotest.(check bool) "select outputs" true
    (t.Compile.Table.kind.(0) = Compile.Table.Kout);
  Alcotest.(check int) "two branches" 2
    (Array.length t.Compile.Table.row_syms.(0));
  Alcotest.(check (option reject)) "open contracts do not lower" None
    (Option.map ignore (Compile.Table.lower (Contract.var "x")))

(* --- compiled vs interpreted verdicts ---------------------------------- *)

let render_survey (s : Product.survey) =
  Fmt.str "%d|%b|%a" s.Product.stuck_states s.Product.successful
    Fmt.(option Product.pp_counterexample)
    s.Product.first_counterexample

let prop_survey_identical =
  prop "Product.survey compiled = interpreted (rendered)" 400 pair_arb
    (fun (c1, c2) ->
      let compiled = with_compiled true (fun () -> Product.survey c1 c2) in
      let interpreted = Product.survey_interpreted c1 c2 in
      String.equal (render_survey compiled) (render_survey interpreted))

let prop_admits_identical =
  prop "Product.admits agrees at every level" 300 pair_arb (fun (c1, c2) ->
      let compiled = with_compiled true (fun () -> Product.survey c1 c2) in
      let interpreted = Product.survey_interpreted c1 c2 in
      List.for_all
        (fun l -> Product.admits l compiled = Product.admits l interpreted)
        levels)

let prop_product_compliant_identical =
  prop "Product.compliant compiled = interpreted" 400 pair_arb
    (fun (c1, c2) ->
      with_compiled true (fun () -> Product.compliant c1 c2)
      = Product.compliant_interpreted c1 c2)

(* --- the scenario sweep: rendered planner reports at every level ------- *)

let scenario_clients =
  [
    ("hotel", Scenarios.Hotel.repo,
     [ ("c1", Scenarios.Hotel.client1); ("c2", Scenarios.Hotel.client2) ]);
    ("mesh", Scenarios.Mesh.repo, [ ("shopper", Scenarios.Mesh.shopper) ]);
    ("churn", Scenarios.Churn.repo, Scenarios.Churn.clients);
    ("loose", Scenarios.Loose.repo_with_sound,
     [ ("client", Scenarios.Loose.client) ]);
    ("ecommerce", Scenarios.Ecommerce.repo,
     [
       ("shopper", Scenarios.Ecommerce.shopper);
       ("careful", Scenarios.Ecommerce.careful_shopper);
     ]);
    ("cloud", Scenarios.Cloud.repo ~worker:Scenarios.Cloud.frugal_worker,
     [ ("analyst", Scenarios.Cloud.analyst) ]);
    ("redundant", Scenarios.Redundant.repo, [ Scenarios.Redundant.client ]);
  ]

let test_scenario_reports_identical () =
  List.iter
    (fun (scenario, repo, clients) ->
      List.iter
        (fun client ->
          let plans = Planner.enumerate repo ~client in
          List.iter
            (fun plan ->
              List.iter
                (fun level ->
                  let render () =
                    Fmt.str "%a" Planner.pp_report
                      (Planner.analyze ~level repo ~client plan)
                  in
                  let compiled = with_compiled true render in
                  let interpreted = with_compiled false render in
                  Alcotest.(check string)
                    (Fmt.str "%s/%s at %a" scenario (fst client)
                       Compliance.pp_level level)
                    interpreted compiled)
                levels)
            plans)
        clients)
    scenario_clients

(* --- minimization ------------------------------------------------------ *)

let prop_minimize_preserves_language =
  prop "minimize is a bisimulation quotient" 300
    Testkit.Generators.contract_arb (fun c ->
      match Compile.Table.lower c with
      | None -> QCheck.assume_fail ()
      | Some t ->
          let m = Compile.Minimize.minimize t in
          m.Compile.Table.states <= t.Compile.Table.states
          && Compile.Minimize.bisimilar t m
          && Compile.Minimize.bisimilar m t)

let prop_minimize_idempotent =
  prop "minimize is idempotent (canonical encodings)" 300
    Testkit.Generators.contract_arb (fun c ->
      match Compile.Table.lower c with
      | None -> QCheck.assume_fail ()
      | Some t ->
          let m = Compile.Minimize.minimize t in
          String.equal (Compile.Table.encode m)
            (Compile.Table.encode (Compile.Minimize.minimize m)))

let test_equivalent_contracts_share_table () =
  (* μh.a!.h and μh.a!.a!.h emit the same infinite stream: minimization
     must canonicalize both to the same (physically shared) table *)
  let stream1 =
    Contract.mu "h" (Contract.seq (Contract.send "a") (Contract.var "h"))
  in
  let stream2 =
    Contract.mu "h"
      (Contract.seq (Contract.send "a")
         (Contract.seq (Contract.send "a") (Contract.var "h")))
  in
  Alcotest.(check bool) "structurally distinct" false
    (Contract.equal stream1 stream2);
  match (Compile.Backend.get stream1, Compile.Backend.get stream2) with
  | Some (_, m1), Some (_, m2) ->
      Alcotest.(check string) "same canonical encoding"
        (Compile.Table.encode m1) (Compile.Table.encode m2);
      Alcotest.(check bool) "one shared table" true (m1 == m2)
  | _ -> Alcotest.fail "streams must lower"

let suite =
  [
    Alcotest.test_case "lowering shapes" `Quick test_lower_shapes;
    prop_survey_identical;
    prop_admits_identical;
    prop_product_compliant_identical;
    Alcotest.test_case "scenario reports identical at every level" `Slow
      test_scenario_reports_identical;
    prop_minimize_preserves_language;
    prop_minimize_idempotent;
    Alcotest.test_case "equivalent contracts share one table" `Quick
      test_equivalent_contracts_share_table;
  ]
