(* The incremental orchestration broker: the oracle-replay property
   (every served verdict is byte-identical to a cold recomputation on
   the repository as it stood), the zero-invalidation regression for
   plan-irrelevant publishes, admission control, sessions, and the
   script front-end. *)

open Core

let process b r = Broker.process b r

let outcome b r = (process b r).Broker.outcome

let check_served ?cached msg o =
  match o with
  | Broker.Served { cached = got; _ } -> (
      match cached with
      | None -> ()
      | Some c -> Alcotest.(check bool) (msg ^ " (cached?)") c got)
  | o -> Alcotest.failf "%s: expected Served, got %a" msg Broker.pp_outcome o

(* ------------------------------------------------------------------ *)
(* The canned churn scenario *)

let test_canned_script () =
  let b = Broker.create Scenarios.Churn.repo in
  let responses = Broker.Script.replay b Scenarios.Churn.script in
  Alcotest.(check bool) "responses produced" true (List.length responses > 0);
  (match List.rev responses with
  | { Broker.outcome = Broker.Ran { completed; _ }; _ } :: _ ->
      Alcotest.(check bool) "final run completed" true completed
  | r :: _ ->
      Alcotest.failf "last response not Ran: %a" Broker.pp_response r
  | [] -> Alcotest.fail "no responses");
  let st = Broker.stats b in
  Alcotest.(check int) "hits (both re-serves after noise)" 2 st.Broker.hits;
  Alcotest.(check int) "misses" 4 st.Broker.misses;
  Alcotest.(check int) "shed" 0 st.Broker.shed;
  Alcotest.(check int) "degraded" 0 st.Broker.degraded;
  Alcotest.(check int) "invalidations (relevant publish only)" 2
    st.Broker.invalidations

(* ------------------------------------------------------------------ *)
(* The oracle-replay property: after an arbitrary interleaving of
   serves, publishes, retracts and session churn, every serve answer
   equals what a from-scratch planner computes on the current
   repository. *)

let replay_against_oracle items =
  let b = Broker.create Scenarios.Churn.repo in
  let mismatches = ref 0 and compared = ref 0 in
  let handle (r : Broker.response) =
    match (r.Broker.request, r.Broker.outcome) with
    | ( Broker.Serve { client },
        (Broker.Served _ | Broker.Rejected Broker.No_plan) ) -> (
        match List.assoc_opt client (Broker.clients b) with
        | None -> ()
        | Some body ->
            incr compared;
            let got =
              match r.Broker.outcome with
              | Broker.Served { report; _ } -> Broker.Index.Valid report
              | _ -> Broker.Index.No_plan
            in
            let expect =
              Broker.Oracle.serve (Broker.repo b) ~client:(client, body)
            in
            if not (Broker.verdict_equal got expect) then incr mismatches)
    | _ -> ()
  in
  List.iter
    (function
      | Broker.Script.Submit r -> Option.iter handle (Broker.submit b r)
      | Broker.Script.Tick -> Option.iter handle (Broker.step b)
      | Broker.Script.Drain ->
          let rec go () =
            match Broker.step b with
            | Some r ->
                handle r;
                go ()
            | None -> ()
          in
          go ())
    items;
  (!compared, !mismatches)

let prop_oracle_replay =
  QCheck.Test.make ~count:6 ~name:"broker serves = cold oracle (workloads)"
    (QCheck.make QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let profile =
        {
          (Testkit.Workload.default ~clients:Scenarios.Churn.clients
             ~spares:Scenarios.Churn.spares ~noise:Scenarios.Churn.noise)
          with
          Testkit.Workload.seed;
          requests = 60;
        }
      in
      let items, _ = Testkit.Workload.generate profile in
      let compared, mismatches = replay_against_oracle items in
      compared > 0 && mismatches = 0)

(* ------------------------------------------------------------------ *)
(* Invalidation precision *)

let noise_service = List.hd Scenarios.Churn.noise

let spare_service = List.hd Scenarios.Churn.spares

let open_c1 b =
  outcome b
    (Broker.Open
       { client = "c1"; body = List.assoc "c1" Scenarios.Churn.clients })

let test_noise_publish_invalidates_nothing () =
  let b = Broker.create Scenarios.Churn.repo in
  ignore (open_c1 b);
  check_served ~cached:false "first serve" (outcome b (Broker.Serve { client = "c1" }));
  let loc, service = noise_service in
  (match outcome b (Broker.Publish { loc; service }) with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "publish: %a" Broker.pp_outcome o);
  let st = Broker.stats b in
  Alcotest.(check int) "zero invalidations for a plan-irrelevant publish" 0
    st.Broker.invalidations;
  Alcotest.(check int) "entry survives" 1 (Broker.index_size b);
  check_served ~cached:true "re-serve hits"
    (outcome b (Broker.Serve { client = "c1" }))

let test_relevant_publish_invalidates () =
  let b = Broker.create Scenarios.Churn.repo in
  ignore (open_c1 b);
  check_served ~cached:false "first serve" (outcome b (Broker.Serve { client = "c1" }));
  let loc, service = spare_service in
  ignore (outcome b (Broker.Publish { loc; service }));
  Alcotest.(check bool) "relevant publish invalidates" true
    ((Broker.stats b).Broker.invalidations > 0);
  check_served ~cached:false "re-serve recomputes"
    (outcome b (Broker.Serve { client = "c1" }));
  (* retract the plan's hotel: the client fails over to the spare, and
     the answer still matches the cold oracle *)
  (match outcome b (Broker.Retract { loc = "s3" }) with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "retract: %a" Broker.pp_outcome o);
  match outcome b (Broker.Serve { client = "c1" }) with
  | Broker.Served { report; _ } ->
      let body = List.assoc "c1" (Broker.clients b) in
      Alcotest.(check bool) "failover verdict = oracle" true
        (Broker.verdict_equal (Broker.Index.Valid report)
           (Broker.Oracle.serve (Broker.repo b) ~client:("c1", body)))
  | o -> Alcotest.failf "serve after retract: %a" Broker.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Admission control *)

let test_shedding () =
  let b =
    Broker.create
      ~admission:
        {
          Broker.queue_capacity = 2;
          plan_budget = 64;
          floor = Compliance.Strict;
        }
      Scenarios.Churn.repo
  in
  ignore (open_c1 b);
  let shed = ref 0 and queued = ref 0 in
  for _ = 1 to 4 do
    match Broker.submit b (Broker.Serve { client = "c1" }) with
    | Some { Broker.outcome = Broker.Rejected Broker.Shed; _ } -> incr shed
    | Some r -> Alcotest.failf "unexpected response %a" Broker.pp_response r
    | None -> incr queued
  done;
  Alcotest.(check int) "two queued" 2 !queued;
  Alcotest.(check int) "two shed" 2 !shed;
  Alcotest.(check int) "queued ones drain" 2 (List.length (Broker.drain b));
  Alcotest.(check int) "stats.shed" 2 (Broker.stats b).Broker.shed

let test_degradation () =
  let b =
    Broker.create
      ~admission:
        {
          Broker.queue_capacity = 16;
          plan_budget = 1;
          floor = Compliance.Strict;
        }
      Scenarios.Churn.repo
  in
  ignore (open_c1 b);
  (match outcome b (Broker.Serve { client = "c1" }) with
  | Broker.Degraded { analyzed; enumerated; _ } ->
      Alcotest.(check int) "budget spent" 1 analyzed;
      Alcotest.(check bool) "more candidates existed" true (enumerated > 1)
  | o -> Alcotest.failf "expected Degraded, got %a" Broker.pp_outcome o);
  Alcotest.(check int) "nothing cached" 0 (Broker.index_size b);
  (* raising the budget un-degrades the same request *)
  ignore
    (outcome b
       (Broker.Set_policy { queue = None; budget = Some 64; floor = None }));
  check_served ~cached:false "served once the budget allows"
    (outcome b (Broker.Serve { client = "c1" }));
  Alcotest.(check int) "one degradation recorded" 1
    (Broker.stats b).Broker.degraded

(* ------------------------------------------------------------------ *)
(* Set_policy validation: out-of-range deltas are rejected loudly and
   leave the policy untouched — no silent clamping. *)

let test_set_policy_validation () =
  let b = Broker.create Scenarios.Churn.repo in
  let before = Broker.admission b in
  let rejects msg r =
    match outcome b r with
    | Broker.Rejected (Broker.Invalid_policy m) ->
        Alcotest.(check bool)
          (Fmt.str "%s names the bound (got %S)" msg m)
          true
          (Astring.String.is_infix ~affix:">= 1" m)
    | o ->
        Alcotest.failf "%s: expected Invalid_policy, got %a" msg
          Broker.pp_outcome o
  in
  rejects "zero queue"
    (Broker.Set_policy { queue = Some 0; budget = None; floor = None });
  rejects "negative budget"
    (Broker.Set_policy { queue = None; budget = Some (-3); floor = None });
  rejects "both out of range"
    (Broker.Set_policy { queue = Some (-1); budget = Some 0; floor = None });
  let after = Broker.admission b in
  Alcotest.(check (pair int int))
    "policy untouched after rejection"
    (before.Broker.queue_capacity, before.Broker.plan_budget)
    (after.Broker.queue_capacity, after.Broker.plan_budget);
  (match
     outcome b
       (Broker.Set_policy
          {
            queue = Some 7;
            budget = Some 2;
            floor = Some Compliance.Affectible;
          })
   with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "valid delta: %a" Broker.pp_outcome o);
  let a = Broker.admission b in
  Alcotest.(check (pair int int))
    "valid delta applies" (7, 2)
    (a.Broker.queue_capacity, a.Broker.plan_budget);
  Alcotest.(check string)
    "floor applies" "affectible"
    (Compliance.level_to_string a.Broker.floor)

(* ------------------------------------------------------------------ *)
(* The degradation ladder *)

let burst_admission floor =
  { Broker.queue_capacity = 5; plan_budget = 64; floor }

(* submit [n] serves for c1 without draining; return the full-queue
   responses (sheds or rescues) *)
let overload b n =
  let immediate = ref [] in
  for _ = 1 to n do
    match Broker.submit b (Broker.Serve { client = "c1" }) with
    | Some r -> immediate := r :: !immediate
    | None -> ()
  done;
  List.rev !immediate

let served_level msg o =
  match o with
  | Broker.Served { level; _ } -> Compliance.level_to_string level
  | o -> Alcotest.failf "%s: expected Served, got %a" msg Broker.pp_outcome o

let test_ladder_rescue () =
  (* strict floor: the ladder is pinned and a full queue sheds, exactly
     the pre-ladder behaviour *)
  let strict =
    Broker.create
      ~admission:(burst_admission Compliance.Strict)
      Scenarios.Churn.repo
  in
  ignore (open_c1 strict);
  let immediate = overload strict 8 in
  Alcotest.(check int) "strict floor sheds past capacity" 3
    (List.length immediate);
  List.iter
    (fun (r : Broker.response) ->
      match r.Broker.outcome with
      | Broker.Rejected Broker.Shed -> ()
      | o -> Alcotest.failf "expected Shed, got %a" Broker.pp_outcome o)
    immediate;
  List.iter
    (fun (r : Broker.response) ->
      Alcotest.(check string) "queued serves process strictly" "strict"
        (served_level "strict drain" r.Broker.outcome))
    (Broker.drain strict);
  let strict_shed = (Broker.stats strict).Broker.shed in
  Alcotest.(check int) "strict floor: three shed" 3 strict_shed;
  (* affectible floor, same burst: the full-queue serves are rescued —
     answered immediately at the floor — and the queued ones process at
     pressure-dependent rungs on the way down *)
  let b =
    Broker.create
      ~admission:(burst_admission Compliance.Affectible)
      Scenarios.Churn.repo
  in
  ignore (open_c1 b);
  let body = List.assoc "c1" (Broker.clients b) in
  let immediate = overload b 8 in
  Alcotest.(check int) "same burst, three rescued" 3 (List.length immediate);
  List.iter
    (fun (r : Broker.response) ->
      match r.Broker.outcome with
      | Broker.Served { report; level; cached } ->
          Alcotest.(check string) "rescued at the floor" "affectible"
            (Compliance.level_to_string level);
          Alcotest.(check bool) "rescues are uncached" false cached;
          Alcotest.(check bool) "rescue = cold oracle at the floor" true
            (Broker.verdict_equal (Broker.Index.Valid report)
               (Broker.Oracle.serve ~level:Compliance.Affectible
                  (Broker.repo b) ~client:("c1", body)))
      | o -> Alcotest.failf "expected a rescue, got %a" Broker.pp_outcome o)
    immediate;
  (* drain: depth 4 → affectible, depth 3 → the skip middle rung,
     depth ≤ 2 → strict again *)
  Alcotest.(check (list string))
    "ladder rungs on the way down"
    [ "affectible"; "skip:1"; "strict"; "strict"; "strict" ]
    (List.map
       (fun (r : Broker.response) ->
         served_level "ladder drain" r.Broker.outcome)
       (Broker.drain b));
  let st = Broker.stats b in
  Alcotest.(check int) "nothing shed under the loosened floor" 0
    st.Broker.shed;
  Alcotest.(check int) "rescues counted" 3 st.Broker.rescued;
  Alcotest.(check bool) "shed rate strictly below the strict-only run"
    true
    (st.Broker.shed < strict_shed);
  Alcotest.(check int) "level mix: strict serves" 3 st.Broker.served_strict;
  Alcotest.(check int) "level mix: skip serves" 1 st.Broker.served_skip;
  Alcotest.(check int) "level mix: affectible serves (incl. rescues)" 4
    st.Broker.served_affectible

(* ------------------------------------------------------------------ *)
(* Loosened levels change answers; the index is level-aware *)

let loose_binding msg (r : Core.Planner.report) =
  match List.assoc_opt Scenarios.Loose.rid (Core.Plan.bindings r.Core.Planner.plan) with
  | Some loc -> loc
  | None -> Alcotest.failf "%s: request %d unbound" msg Scenarios.Loose.rid

let test_loose_oracle_levels () =
  let client = ("c", Scenarios.Loose.client) in
  (match Broker.Oracle.serve Scenarios.Loose.repo ~client with
  | Broker.Index.No_plan -> ()
  | Broker.Index.Valid _ ->
      Alcotest.fail "strict admits the loose supplier");
  let valid_at repo level expect =
    match Broker.Oracle.serve ~level repo ~client with
    | Broker.Index.Valid r ->
        Alcotest.(check string)
          (Fmt.str "binding at %s" (Compliance.level_to_string level))
          expect
          (loose_binding "oracle" r)
    | Broker.Index.No_plan ->
        Alcotest.failf "no plan at %s" (Compliance.level_to_string level)
  in
  valid_at Scenarios.Loose.repo (Compliance.Skip_k 1) "ls";
  valid_at Scenarios.Loose.repo Compliance.Affectible "ls";
  (* skip-0 is strict by another name: still no plan *)
  (match Broker.Oracle.serve ~level:(Compliance.Skip_k 0) Scenarios.Loose.repo ~client with
  | Broker.Index.No_plan -> ()
  | Broker.Index.Valid _ -> Alcotest.fail "skip:0 admits what strict rejects");
  (* with a sound supplier behind the loose one, strict skips to it
     while the loosened levels stop at the first (loose) candidate *)
  valid_at Scenarios.Loose.repo_with_sound Compliance.Strict "ss";
  valid_at Scenarios.Loose.repo_with_sound (Compliance.Skip_k 1) "ls";
  valid_at Scenarios.Loose.repo_with_sound Compliance.Affectible "ls"

let test_level_aware_cache () =
  let b =
    Broker.create
      ~admission:(burst_admission (Compliance.Skip_k 1))
      Scenarios.Loose.repo_with_sound
  in
  (match
     outcome b (Broker.Open { client = "c"; body = Scenarios.Loose.client })
   with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "open: %a" Broker.pp_outcome o);
  let bindings = ref [] in
  let record (r : Broker.response) =
    match r.Broker.outcome with
    | Broker.Served { report; level; cached } ->
        bindings :=
          ( Compliance.level_to_string level,
            loose_binding "serve" report,
            cached )
          :: !bindings
    | o -> Alcotest.failf "expected Served, got %a" Broker.pp_outcome o
  in
  let immediate = ref [] in
  for _ = 1 to 6 do
    match Broker.submit b (Broker.Serve { client = "c" }) with
    | Some r -> immediate := r :: !immediate
    | None -> ()
  done;
  List.iter record (List.rev !immediate);
  List.iter record (Broker.drain b);
  (* the rescue and the high-pressure serves answer [ls] at skip:1;
     once pressure subsides the same client re-settles strictly on
     [ss] — and each level change is a miss, each repeat a hit *)
  Alcotest.(check (list (triple string string bool)))
    "per-level answers and cache behaviour"
    [
      ("skip:1", "ls", false) (* rescue: uncached *);
      ("skip:1", "ls", false) (* first queued serve: miss, cached *);
      ("skip:1", "ls", true) (* same level: hit *);
      ("strict", "ss", false) (* level change: miss, re-settled *);
      ("strict", "ss", true);
      ("strict", "ss", true);
    ]
    (List.rev !bindings);
  let st = Broker.stats b in
  Alcotest.(check (pair int int)) "misses per level change, hits on repeats"
    (3, 3)
    (st.Broker.misses, st.Broker.hits)

(* ------------------------------------------------------------------ *)
(* Sessions *)

let test_sessions () =
  let b = Broker.create Scenarios.Churn.repo in
  (match outcome b (Broker.Serve { client = "ghost" }) with
  | Broker.Rejected (Broker.Unknown_client _) -> ()
  | o -> Alcotest.failf "serve unknown: %a" Broker.pp_outcome o);
  (match outcome b (Broker.Run { client = "ghost"; seed = 1 }) with
  | Broker.Rejected (Broker.Unknown_client _) -> ()
  | o -> Alcotest.failf "run unknown: %a" Broker.pp_outcome o);
  ignore (open_c1 b);
  (* run before a successful serve is refused *)
  (match outcome b (Broker.Run { client = "c1"; seed = 1 }) with
  | Broker.Rejected (Broker.Not_served _) -> ()
  | o -> Alcotest.failf "run before serve: %a" Broker.pp_outcome o);
  check_served "serve" (outcome b (Broker.Serve { client = "c1" }));
  (match outcome b (Broker.Run { client = "c1"; seed = 1 }) with
  | Broker.Ran { completed; _ } ->
      Alcotest.(check bool) "run completed" true completed
  | o -> Alcotest.failf "run: %a" Broker.pp_outcome o);
  (* close evicts; serving again is refused *)
  ignore (outcome b (Broker.Close { client = "c1" }));
  Alcotest.(check int) "entry evicted on close" 0 (Broker.index_size b);
  match outcome b (Broker.Serve { client = "c1" }) with
  | Broker.Rejected (Broker.Unknown_client _) -> ()
  | o -> Alcotest.failf "serve after close: %a" Broker.pp_outcome o

let test_repository_guards () =
  let b = Broker.create Scenarios.Churn.repo in
  let _, service = spare_service in
  (match outcome b (Broker.Publish { loc = "s3"; service }) with
  | Broker.Rejected (Broker.Duplicate_location _) -> ()
  | o -> Alcotest.failf "duplicate publish: %a" Broker.pp_outcome o);
  (match outcome b (Broker.Retract { loc = "nowhere" }) with
  | Broker.Rejected (Broker.Unknown_location _) -> ()
  | o -> Alcotest.failf "retract unknown: %a" Broker.pp_outcome o);
  match outcome b (Broker.Update { loc = "nowhere"; service }) with
  | Broker.Rejected (Broker.Unknown_location _) -> ()
  | o -> Alcotest.failf "update unknown: %a" Broker.pp_outcome o

(* ------------------------------------------------------------------ *)
(* The script front-end *)

let hexpr_of_string src =
  if String.equal src "BAD" then failwith "unparsable" else Hexpr.ev src

let test_script_parse () =
  let text =
    "# a comment line\n\
     \n\
     open c1 = x\n\
     serve c1\n\
     orchestrate c1\n\
     publish s9 = y\n\
     update s9 = z\n\
     retract s9\n\
     run c1 seed 7\n\
     policy queue 8 budget 3\n\
     policy floor skip:2\n\
     policy queue 4 budget 2 floor affectible\n\
     policy floor strict\n\
     tick\n\
     drain\n\
     close c1\n"
  in
  match Broker.Script.parse ~hexpr_of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok items -> Alcotest.(check int) "all lines parsed" 14 (List.length items)

let test_script_errors () =
  let fails text expected_line =
    match Broker.Script.parse ~hexpr_of_string text with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
    | Error e ->
        Alcotest.(check bool)
          (Fmt.str "%S reports line %d (got %S)" text expected_line e)
          true
          (Astring.String.is_prefix
             ~affix:(Printf.sprintf "line %d:" expected_line)
             e)
  in
  fails "serve c1\nfrobnicate x\n" 2;
  fails "open c1 = BAD\n" 1;
  fails "serve\n" 1;
  fails "policy quux 3\n" 1;
  (* out-of-range policy values fail at parse time, with a position —
     not silently clamped, not deferred to a mid-replay rejection *)
  fails "policy queue 0\n" 1;
  fails "tick\npolicy budget -2\n" 2;
  fails "policy floor bogus\n" 1;
  fails "# comment\n\nrun c1 seed x\n" 3

let test_script_error_tokens () =
  let error_of ?file text =
    match Broker.Script.parse ?file ~hexpr_of_string text with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
    | Error e -> e
  in
  let mentions text token =
    Alcotest.(check bool)
      (Fmt.str "%S names the offending token %S" text token)
      true
      (Astring.String.is_infix ~affix:token (error_of text))
  in
  (* the offending token, not just a position *)
  mentions "frobnicate x\n" "frobnicate";
  mentions "policy quux 3\n" "quux";
  mentions "policy queue\n" "queue needs a value";
  mentions "policy queue many\n" "many";
  mentions "policy queue 0\n" ">= 1";
  mentions "policy budget -2\n" ">= 1";
  mentions "policy floor\n" "floor needs a value";
  mentions "policy floor bogus\n" "bogus";
  mentions "run c1 seed x\n" "\"x\"";
  mentions "open c1 = BAD\n" "unparsable";
  mentions "serve a b\n" "serve NAME";
  mentions "publish s9\n" "publish NAME = HEXPR";
  (* ~file switches the position prefix to FILE:LINE: *)
  Alcotest.(check bool)
    "file-qualified position" true
    (Astring.String.is_prefix ~affix:"w.script:2:"
       (error_of ~file:"w.script" "serve c1\nfrobnicate x\n"))

(* ------------------------------------------------------------------ *)
(* The orchestrate admission path *)

(* serve-first: a client with a 1:1 plan is Served, and the synthesis
   tier is never consulted — pinned on the metric, not just the
   outcome shape *)
let test_orchestrate_serve_first () =
  Obs.Metrics.install ();
  Fun.protect ~finally:Obs.Metrics.uninstall @@ fun () ->
  let b = Broker.create Scenarios.Hotel.repo in
  (match
     outcome b (Broker.Open { client = "c1"; body = Scenarios.Hotel.client1 })
   with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "open: %a" Broker.pp_outcome o);
  check_served "orchestrate with a 1:1 plan"
    (outcome b (Broker.Orchestrate { client = "c1" }));
  let snap = Obs.Metrics.snapshot () in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)
  in
  Alcotest.(check int) "synthesis never ran" 0
    (counter "orchestration.synthesis.runs");
  Alcotest.(check bool) "the orchestrate request is counted" true
    (counter "broker.orchestrate.requests" > 0)

let test_orchestrate_synthesizes () =
  let repo, (name, body) = Scenarios.Supply_chain.chain ~parties:4 in
  let b = Broker.create repo in
  ignore (outcome b (Broker.Open { client = name; body }));
  (* plain serve finds nothing 1:1… *)
  (match outcome b (Broker.Serve { client = name }) with
  | Broker.Rejected Broker.No_plan -> ()
  | o -> Alcotest.failf "serve: %a" Broker.pp_outcome o);
  (* …orchestrate settles the same session by synthesis *)
  let index_before = Broker.index_size b in
  (match outcome b (Broker.Orchestrate { client = name }) with
  | Broker.Orchestrated { coalitions; states; transitions } ->
      Alcotest.(check (list (pair int (list string))))
        "the coalition spans the whole chain"
        [ (70, [ "sc1"; "sc2"; "sc3" ]) ]
        coalitions;
      Alcotest.(check int) "controller states" 7 states;
      Alcotest.(check int) "controller transitions" 6 transitions
  | o -> Alcotest.failf "orchestrate: %a" Broker.pp_outcome o);
  let st = Broker.stats b in
  Alcotest.(check int) "orchestration counts as a serve" 1 st.Broker.served;
  (* synthesis is recomputed per request, never cached in the index *)
  Alcotest.(check int) "orchestrate caches nothing" index_before
    (Broker.index_size b)

let test_orchestrate_declines () =
  let b = Broker.create Scenarios.Marketplace.repo_no_escrow in
  ignore
    (outcome b
       (Broker.Open
          { client = "buyer"; body = snd Scenarios.Marketplace.buyer }));
  (match outcome b (Broker.Orchestrate { client = "buyer" }) with
  | Broker.Rejected (Broker.No_orchestration msg) ->
      Alcotest.(check bool)
        "the decline names the undeliverable channel" true
        (Astring.String.is_infix ~affix:"pay" msg)
  | o -> Alcotest.failf "orchestrate: %a" Broker.pp_outcome o);
  match outcome b (Broker.Orchestrate { client = "ghost" }) with
  | Broker.Rejected (Broker.Unknown_client _) -> ()
  | o -> Alcotest.failf "unknown client: %a" Broker.pp_outcome o

(* the journal codec round-trips the new verb *)
let test_orchestrate_script_codec () =
  let line =
    Broker.Script.request_line ~hexpr_to_string:Hexpr.to_string
      (Broker.Orchestrate { client = "c1" })
  in
  Alcotest.(check string) "rendered" "orchestrate c1" line;
  match Broker.Script.request_of_line ~hexpr_of_string line with
  | Ok (Broker.Orchestrate { client }) ->
      Alcotest.(check string) "parsed back" "c1" client
  | Ok r -> Alcotest.failf "parsed to %a" Broker.pp_request r
  | Error e -> Alcotest.failf "parse failed: %s" e

(* ------------------------------------------------------------------ *)
(* The mediate admission path: the full repair ladder behind one verb *)

(* serve-first: a client with a 1:1 plan is Served and neither
   synthesis tier runs — pinned on the metrics *)
let test_mediate_serve_first () =
  Obs.Metrics.install ();
  Fun.protect ~finally:Obs.Metrics.uninstall @@ fun () ->
  let b = Broker.create Scenarios.Hotel.repo in
  (match
     outcome b (Broker.Open { client = "c1"; body = Scenarios.Hotel.client1 })
   with
  | Broker.Ack -> ()
  | o -> Alcotest.failf "open: %a" Broker.pp_outcome o);
  check_served "mediate with a 1:1 plan"
    (outcome b (Broker.Mediate { client = "c1" }));
  let snap = Obs.Metrics.snapshot () in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)
  in
  Alcotest.(check int) "mediator synthesis never ran" 0
    (counter "mediator.synthesis.runs");
  Alcotest.(check bool) "the mediate request is counted" true
    (counter "broker.mediate.requests" > 0)

let test_mediate_heals () =
  let b = Broker.create Scenarios.Mismatched.repo in
  ignore
    (outcome b
       (Broker.Open
          { client = "shopper"; body = Scenarios.Mismatched.buffer_client }));
  (* plain serve finds nothing 1:1… *)
  (match outcome b (Broker.Serve { client = "shopper" }) with
  | Broker.Rejected Broker.No_plan -> ()
  | o -> Alcotest.failf "serve: %a" Broker.pp_outcome o);
  (* …mediate heals the same session with a synthesized adapter *)
  let index_before = Broker.index_size b in
  (match outcome b (Broker.Mediate { client = "shopper" }) with
  | Broker.Mediated { healed; direct; states; steps } ->
      Alcotest.(check (list (triple int string string)))
        "healed via the buffer adapter"
        [
          ( Scenarios.Mismatched.buffer_rid,
            "m_buffer",
            Fmt.str "m_buffer~med%d" Scenarios.Mismatched.buffer_rid );
        ]
        healed;
      Alcotest.(check (list (pair int string))) "nothing bound directly" []
        direct;
      Alcotest.(check bool) "adapter has states" true (states > 0);
      Alcotest.(check bool) "repair steps recorded" true (steps > 0)
  | o -> Alcotest.failf "mediate: %a" Broker.pp_outcome o);
  let st = Broker.stats b in
  Alcotest.(check int) "mediation counts as a serve" 1 st.Broker.served;
  (* repairs are recomputed per request, never cached in the index *)
  Alcotest.(check int) "mediate caches nothing" index_before
    (Broker.index_size b)

let test_mediate_declines () =
  let b = Broker.create Scenarios.Mismatched.witness_repo in
  ignore
    (outcome b
       (Broker.Open
          { client = "stuck"; body = Scenarios.Mismatched.witness_client }));
  (match outcome b (Broker.Mediate { client = "stuck" }) with
  | Broker.Rejected (Broker.No_mediation msg) ->
      Alcotest.(check bool) "the decline carries the mediation trace" true
        (Astring.String.is_infix ~affix:"unmediable" msg)
  | o -> Alcotest.failf "mediate: %a" Broker.pp_outcome o);
  match outcome b (Broker.Mediate { client = "ghost" }) with
  | Broker.Rejected (Broker.Unknown_client _) -> ()
  | o -> Alcotest.failf "unknown client: %a" Broker.pp_outcome o

(* the journal codec round-trips the new verb *)
let test_mediate_script_codec () =
  let line =
    Broker.Script.request_line ~hexpr_to_string:Hexpr.to_string
      (Broker.Mediate { client = "c1" })
  in
  Alcotest.(check string) "rendered" "mediate c1" line;
  match Broker.Script.request_of_line ~hexpr_of_string line with
  | Ok (Broker.Mediate { client }) ->
      Alcotest.(check string) "parsed back" "c1" client
  | Ok r -> Alcotest.failf "parsed to %a" Broker.pp_request r
  | Error e -> Alcotest.failf "parse failed: %s" e

(* ------------------------------------------------------------------ *)
(* The plan-verdict memo: a first-valid search reuses the verdicts of
   plans whose inputs are unchanged. Differential tests against the cold
   oracle over seeded workloads with the memo's edge cases woven in, the
   budget accounting, and the memory bound. *)

(* The edge cases, each a block of submissions ending in serves: an
   update to a structurally equal service; a retract and re-publish of
   one location, first with a changed service, then back, then the same
   change by update; a client re-opened with a new body, with and
   without a close first;
   publishes (then retracts) that change every client's policy
   universe. *)
let memo_blocks =
  let open Broker in
  let serve c = Serve { client = c } in
  let s4_low = Scenarios.Hotel.hotel "s4" ~price:50 ~rating:60 ~extra:[] in
  let c2_new =
    Hexpr.open_ ~rid:2 ~policy:Scenarios.Hotel.phi1
      (Scenarios.Hotel.client_request_body Scenarios.Hotel.phi1)
  in
  (* same policy, so the same universe: only the body tells it apart *)
  let c1_new =
    Hexpr.open_ ~rid:1 ~policy:Scenarios.Hotel.phi1
      (Hexpr.branch [ ("nobody", Hexpr.nil) ])
  in
  let never ev = Usage.Policy_lib.instantiate0 (Usage.Policy_lib.never ev) in
  let never_a = never "a" in
  let framed =
    Hexpr.frame (never "del")
      (Scenarios.Hotel.hotel "sx" ~price:30 ~rating:100 ~extra:[ "del" ])
  in
  [
    [
      Update
        {
          loc = "s1";
          service = Scenarios.Hotel.hotel "s1" ~price:45 ~rating:80 ~extra:[];
        };
      serve "c1";
      serve "c2";
    ];
    [
      Retract { loc = "s4" };
      serve "c2";
      Publish { loc = "s4"; service = s4_low };
      serve "c2";
      Retract { loc = "s4" };
      Publish { loc = "s4"; service = Scenarios.Hotel.s4 };
      serve "c2";
      Update { loc = "s4"; service = s4_low };
      serve "c2";
      Update { loc = "s4"; service = Scenarios.Hotel.s4 };
      serve "c2";
    ];
    [
      Close { client = "c2" };
      Open { client = "c2"; body = c2_new };
      serve "c2";
    ];
    (* re-registration without a close replaces the body too *)
    [
      Open { client = "c1"; body = c1_new };
      serve "c1";
      Open { client = "c1"; body = Scenarios.Hotel.client1 };
      serve "c1";
    ];
    [
      Publish { loc = "sx"; service = framed };
      serve "c1";
      serve "c2";
      serve "c3";
      Retract { loc = "sx" };
      serve "c1";
      serve "c3";
    ];
    (* a service whose two branches log different events, then meet:
       with [never a] in the universe its cursor tells the branches
       apart, so the valid plan's state count grows when a publish
       brings that policy in, though the plan binds nothing new *)
    [
      Publish
        {
          loc = "sv";
          service =
            Hexpr.seq
              (Hexpr.select [ ("l", Hexpr.ev "a"); ("r", Hexpr.ev "b") ])
              (Hexpr.select [ ("m", Hexpr.nil) ]);
        };
      Open
        {
          client = "cz";
          body =
            Hexpr.open_ ~rid:7
              (Hexpr.seq
                 (Hexpr.branch [ ("l", Hexpr.nil); ("r", Hexpr.nil) ])
                 (Hexpr.branch [ ("m", Hexpr.nil) ]));
        };
      serve "cz";
      Publish { loc = "pz"; service = Hexpr.frame never_a Hexpr.nil };
      serve "cz";
      Retract { loc = "pz" };
      serve "cz";
    ];
  ]

(* A seeded churn workload with every block inserted at a seeded point
   after the prologue, flattened to its submissions. *)
let memo_script seed =
  let profile =
    {
      (Testkit.Workload.default ~clients:Scenarios.Churn.clients
         ~spares:Scenarios.Churn.spares ~noise:Scenarios.Churn.noise)
      with
      Testkit.Workload.seed;
      requests = 60;
    }
  in
  let items, _ = Testkit.Workload.generate profile in
  let requests =
    List.filter_map
      (function Broker.Script.Submit r -> Some r | _ -> None)
      items
  in
  let prologue = List.length Scenarios.Churn.clients in
  let st = Random.State.make [| seed |] in
  List.fold_left
    (fun reqs block ->
      let at =
        prologue + Random.State.int st (List.length reqs - prologue + 1)
      in
      List.filteri (fun i _ -> i < at) reqs
      @ block
      @ List.filteri (fun i _ -> i >= at) reqs)
    requests memo_blocks

(* What a budgeted cold search answers: the oracle's verdict, or
   [`Degraded] when the first valid plan lies past the budget; and the
   plans it examines. *)
let cold_search ~budget ~level repo ~client =
  let plans = Planner.enumerate repo ~client in
  let rec go n = function
    | [] -> (`Verdict Broker.Index.No_plan, n)
    | p :: rest ->
        if n >= budget then (`Degraded, n)
        else
          let r = Planner.analyze ~level repo ~client p in
          if Result.is_ok r.Planner.verdict then
            (`Verdict (Broker.Index.Valid r), n + 1)
          else go (n + 1) rest
  in
  go 0 plans

let levels = [| Compliance.Strict; Compliance.Skip_k 1; Compliance.Affectible |]

(* Every serve, each at a seeded level, against the cold search on the
   repository as it stood: the verdict, and — when the serve missed the
   index — the plans charged to the budget and to [stats.analyzed],
   which memo hits must not change. *)
let memo_differential ~budget seed =
  let b =
    Broker.create
      ~admission:{ Broker.default_admission with plan_budget = budget }
      Scenarios.Churn.repo
  in
  let st = Random.State.make [| seed; budget |] in
  let stats = Broker.stats b in
  List.iter
    (fun request ->
      match request with
      | Broker.Serve { client } when List.mem_assoc client (Broker.clients b)
        -> (
          let body = List.assoc client (Broker.clients b) in
          let level = levels.(Random.State.int st (Array.length levels)) in
          let hits = stats.Broker.hits and analyzed = stats.Broker.analyzed in
          let r = Broker.replay b ~seq:(Broker.seq b) ~level request in
          let expect, examined =
            cold_search ~budget ~level (Broker.repo b) ~client:(client, body)
          in
          let what =
            Fmt.str "seed %d budget %d: %a" seed budget Broker.pp_response r
          in
          (* an index hit examines nothing; a miss is charged every plan
             the cold search examines, memo hits included *)
          Alcotest.(check int) (what ^ " (analyzed)")
            (if stats.Broker.hits > hits then 0 else examined)
            (stats.Broker.analyzed - analyzed);
          match (r.Broker.outcome, expect) with
          | Broker.Served { report; level = l; _ }, `Verdict v ->
              Alcotest.(check bool) (what ^ " (level)") true
                (Compliance.equal_level l level);
              Alcotest.(check bool) what true
                (Broker.verdict_equal (Broker.Index.Valid report) v)
          | Broker.Rejected Broker.No_plan, `Verdict v ->
              Alcotest.(check bool) what true
                (Broker.verdict_equal Broker.Index.No_plan v)
          | Broker.Degraded { analyzed = n; _ }, `Degraded ->
              Alcotest.(check int) (what ^ " (degraded after)") budget n
          | _ -> Alcotest.failf "%s: the cold search disagrees" what)
      | _ ->
          ignore
            (Broker.replay b ~seq:(Broker.seq b) ~level:Compliance.Strict
               request))
    (memo_script seed);
  stats

let test_memo_differential () =
  List.iter
    (fun seed ->
      let st = memo_differential ~budget:10_000 seed in
      Alcotest.(check bool) "the memo answered some plans" true
        (st.Broker.memo_hits > 0);
      (* a budget below the plan count: misses degrade, and memo hits
         count toward the budget exactly as fresh analyses do *)
      let st = memo_differential ~budget:3 seed in
      Alcotest.(check bool)
        "small budgets degrade" true (st.Broker.degraded > 0))
    [ 1; 2; 3; 4; 5; 6 ]

(* The same scripts through a 4-shard pool: each shard keeps its own
   memo and applies every mutation. Drained after every submission, so
   each serve is checked against its shard's repository as it stood. *)
let test_memo_sharded () =
  List.iter
    (fun seed ->
      let pool =
        Broker.Shard.create
          ~admission:{ Broker.default_admission with plan_budget = 10_000 }
          ~shards:4 Scenarios.Churn.repo
      in
      let lock = Mutex.create () in
      let last = ref None in
      let compared = ref 0 in
      List.iter
        (fun request ->
          Broker.Shard.submit pool
            ~callback:(fun ~shard resp ->
              Mutex.lock lock;
              last := Some (shard, resp);
              Mutex.unlock lock)
            request;
          Broker.Shard.drain pool;
          match (request, !last) with
          | Broker.Serve { client }, Some (shard, resp) -> (
              let e = Broker.Shard.engine pool shard in
              match List.assoc_opt client (Broker.clients e) with
              | None -> ()
              | Some body ->
                  incr compared;
                  let got =
                    match resp.Broker.outcome with
                    | Broker.Served { report; _ } -> Broker.Index.Valid report
                    | _ -> Broker.Index.No_plan
                  in
                  Alcotest.(check bool)
                    (Fmt.str "seed %d shard %d: %a" seed shard
                       Broker.pp_response resp)
                    true
                    (Broker.verdict_equal got
                       (Broker.Oracle.serve (Broker.repo e)
                          ~client:(client, body))))
          | _ -> ())
        (memo_script seed);
      Broker.Shard.stop pool;
      Alcotest.(check bool) "serves compared" true (!compared > 0))
    [ 1; 2; 3 ]

(* The memory bound under publish/retract churn over fresh location
   names: the memo never holds more than, per live client, the plans the
   current repository enumerates, once per level served at. *)
let test_memo_bound () =
  let b =
    Broker.create
      ~admission:{ Broker.default_admission with plan_budget = 10_000 }
      Scenarios.Hotel.repo
  in
  (* a client no hotel satisfies examines every plan, those binding the
     fresh locations included *)
  let picky =
    let phi =
      Usage.Policy_lib.hotel_policy ~blacklist:[] ~price:0 ~rating:1000
    in
    Hexpr.open_ ~rid:9 ~policy:phi (Scenarios.Hotel.client_request_body phi)
  in
  List.iter
    (fun (client, body) -> ignore (process b (Broker.Open { client; body })))
    (("picky", picky) :: Scenarios.Churn.clients);
  let served_levels = [ Compliance.Strict; Compliance.Affectible ] in
  let bound () =
    List.fold_left
      (fun acc (client, body) ->
        acc
        + List.length (Planner.enumerate (Broker.repo b) ~client:(client, body))
          * List.length served_levels)
      0 (Broker.clients b)
  in
  let peak = ref 0 in
  for i = 1 to 40 do
    let fresh = Fmt.str "h%d" i in
    ignore
      (process b
         (Broker.Publish
            {
              loc = fresh;
              service =
                Scenarios.Hotel.hotel fresh ~price:(30 + (i mod 5 * 10))
                  ~rating:(70 + (i mod 4 * 10)) ~extra:[];
            }));
    if i > 2 then
      ignore (process b (Broker.Retract { loc = Fmt.str "h%d" (i - 2) }));
    if i mod 7 = 0 then ignore (process b (Broker.Close { client = "c3" }))
    else if i mod 7 = 3 then
      ignore
        (process b
           (Broker.Open
              { client = "c3"; body = List.assoc "c3" Scenarios.Churn.clients }));
    List.iter
      (fun level ->
        List.iter
          (fun (client, _) ->
            ignore
              (Broker.replay b ~seq:(Broker.seq b) ~level
                 (Broker.Serve { client })))
          (Broker.clients b))
      served_levels;
    let size = Broker.plan_memo_size b in
    peak := max !peak size;
    if size > bound () then
      Alcotest.failf "step %d: %d memo entries over the bound %d" i size
        (bound ())
  done;
  Alcotest.(check bool) "the memo was used" true (!peak > 0);
  (* closing every client empties it *)
  List.iter
    (fun (client, _) -> ignore (process b (Broker.Close { client })))
    (Broker.clients b);
  Alcotest.(check int) "closed clients hold nothing" 0 (Broker.plan_memo_size b)

let suite =
  [
    Alcotest.test_case "canned churn scenario" `Quick test_canned_script;
    QCheck_alcotest.to_alcotest prop_oracle_replay;
    Alcotest.test_case "noise publish invalidates nothing" `Quick
      test_noise_publish_invalidates_nothing;
    Alcotest.test_case "relevant publish invalidates, retract fails over"
      `Quick test_relevant_publish_invalidates;
    Alcotest.test_case "queue sheds past capacity" `Quick test_shedding;
    Alcotest.test_case "plan budget degrades, policy raises it" `Quick
      test_degradation;
    Alcotest.test_case "out-of-range policy deltas rejected, not clamped"
      `Quick test_set_policy_validation;
    Alcotest.test_case "ladder rescues full-queue serves at the floor" `Quick
      test_ladder_rescue;
    Alcotest.test_case "oracle answers per level on the loose scenario"
      `Quick test_loose_oracle_levels;
    Alcotest.test_case "index is level-aware" `Quick test_level_aware_cache;
    Alcotest.test_case "session lifecycle" `Quick test_sessions;
    Alcotest.test_case "repository guards" `Quick test_repository_guards;
    Alcotest.test_case "script parses every verb" `Quick test_script_parse;
    Alcotest.test_case "script errors carry line numbers" `Quick
      test_script_errors;
    Alcotest.test_case "script errors name the offending token" `Quick
      test_script_error_tokens;
    Alcotest.test_case "orchestrate serves 1:1 plans without synthesis" `Quick
      test_orchestrate_serve_first;
    Alcotest.test_case "orchestrate synthesizes when serve finds no plan"
      `Quick test_orchestrate_synthesizes;
    Alcotest.test_case "orchestrate declines with a diagnostic" `Quick
      test_orchestrate_declines;
    Alcotest.test_case "orchestrate round-trips the script codec" `Quick
      test_orchestrate_script_codec;
    Alcotest.test_case "mediate serves 1:1 plans without synthesis" `Quick
      test_mediate_serve_first;
    Alcotest.test_case "mediate heals when serve finds no plan" `Quick
      test_mediate_heals;
    Alcotest.test_case "mediate declines unmediable pairs with a trace" `Quick
      test_mediate_declines;
    Alcotest.test_case "mediate round-trips the script codec" `Quick
      test_mediate_script_codec;
    Alcotest.test_case "plan memo: serves = cold search, budget intact"
      `Quick test_memo_differential;
    Alcotest.test_case "plan memo: sharded serves = cold oracle" `Quick
      test_memo_sharded;
    Alcotest.test_case "plan memo: bounded by live clients' plans" `Quick
      test_memo_bound;
  ]
