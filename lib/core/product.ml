type state = Contract.t * Contract.t

type stuck_reason = Client_waits_forever | Unmatched_output of string

type t = {
  initial : state;
  states : state list;
  delta : (state * string * state) list;
  finals : (state * stuck_reason) list;
}

let outputs trans =
  List.filter_map
    (fun (d, a, _) -> if d = Contract.O then Some a else None)
    trans

let inputs trans =
  List.filter_map
    (fun (d, a, _) -> if d = Contract.I then Some a else None)
    trans

(* ⟨H₁,H₂⟩ ∈ F iff H₁ ≠ ε ∧ (¬(i) ∨ ¬(ii)); see Definition 5. *)
let final_reason (h1, h2) =
  if Contract.is_terminated h1 then None
  else
    let t1 = Contract.transitions h1 and t2 = Contract.transitions h2 in
    let out1 = outputs t1 and out2 = outputs t2 in
    let in1 = inputs t1 and in2 = inputs t2 in
    if out1 = [] && out2 = [] then Some Client_waits_forever
    else
      let unmatched =
        match List.find_opt (fun a -> not (List.mem a in2)) out1 with
        | Some a -> Some a
        | None -> List.find_opt (fun a -> not (List.mem a in1)) out2
      in
      Option.map (fun a -> Unmatched_output a) unmatched

(* exploration structures key on hash-consing id pairs: O(1) probes *)
let key ((a, b) : state) = (Contract.id a, Contract.id b)

let equal_state p q = Repr.Key.Int_pair.equal (key p) (key q)

let successors (h1, h2) =
  Compliance.sync_successors h1 h2

let build c1 c2 =
  Obs.Trace.with_span "product.build" @@ fun () ->
  let initial = (c1, c2) in
  let seen = Repr.Key.Pair_set.create () in
  let states = ref [ initial ] in
  (* states accumulate in discovery order (reversed here) *)
  let rec explore (delta, finals) = function
    | [] -> (delta, finals)
    | p :: rest -> (
        match final_reason p with
        | Some r ->
            (* final states have no outgoing transitions *)
            explore (delta, (p, r) :: finals) rest
        | None ->
            let succs = successors p in
            let delta =
              List.fold_left
                (fun d (a, q) -> (p, a, q) :: d)
                delta succs
            in
            let fresh =
              succs |> List.map snd
              |> List.filter (fun q -> Repr.Key.Pair_set.add seen (key q))
            in
            List.iter (fun q -> states := q :: !states) fresh;
            explore (delta, finals) (fresh @ rest))
  in
  ignore (Repr.Key.Pair_set.add seen (key initial) : bool);
  let delta, finals = explore ([], []) [ initial ] in
  if Obs.Metrics.active () then begin
    let states = Repr.Key.Pair_set.cardinal seen
    and transitions = List.length delta in
    Obs.Metrics.incr "product.builds";
    Obs.Metrics.add "product.states.built" states;
    Obs.Metrics.add "product.transitions.built" transitions;
    Obs.Metrics.observe "product.states.per_build" states;
    Obs.Trace.add_attr "states" (Obs.Trace.Int states);
    Obs.Trace.add_attr "transitions" (Obs.Trace.Int transitions)
  end;
  {
    initial;
    states = List.rev !states;
    delta = List.rev delta;
    finals = List.rev finals;
  }

let language_empty t = t.finals = []

type counterexample = {
  synchronisations : string list;
  stuck : state;
  reason : stuck_reason;
}

type survey = {
  stuck_states : int;
  successful : bool;
  first_counterexample : counterexample option;
}

(* The exploration kernel on hash-consed pairs, visited set keyed on
   id pairs: O(1) probes. *)
module Pairs = Explore.Make (struct
  type ctx = state
  type nonrec state = state
  type label = string
  type reason = stuck_reason
  type index = int Repr.Key.Pair_tbl.t

  let index _ = Repr.Key.Pair_tbl.create 64

  let find index p =
    Option.value (Repr.Key.Pair_tbl.find_opt index (key p)) ~default:(-1)

  let add index p k = Repr.Key.Pair_tbl.replace index (key p) k
  let root p = p
  let final_reason _ p = final_reason p
  let client_terminated _ (h1, _) = Contract.is_terminated h1

  let iter_successors _ p f =
    List.iter (fun (a, q) -> f a q) (successors p)
end)

let of_stuck { Pairs.path; state; reason } =
  { synchronisations = path; stuck = state; reason }

let compliant_interpreted c1 c2 = Pairs.first_stuck (c1, c2) = None

let counterexample c1 c2 =
  Obs.Trace.with_span "product.counterexample" @@ fun () ->
  Obs.Metrics.incr "product.counterexample_searches";
  Option.map of_stuck (Pairs.first_stuck (c1, c2))

let survey_interpreted c1 c2 =
  let s = Pairs.survey (c1, c2) in
  {
    stuck_states = s.Pairs.stuck_states;
    successful = s.Pairs.successful;
    first_counterexample = Option.map of_stuck s.Pairs.first_stuck;
  }

(* ---- compiled backend dispatch ---------------------------------------- *)

(* A table-driven engine (lib/compile) can register here; core cannot
   depend on it directly. [None] from a backend function means "use the
   interpreted path" — backends may decline, never force a verdict. The
   record is installed once at executable startup, before any domains
   spawn, so the plain ref needs no synchronisation. *)
type backend = {
  active : unit -> bool;
  survey : Contract.t -> Contract.t -> survey option;
  compliant : Contract.t -> Contract.t -> bool option;
}

let backend : backend option ref = ref None
let set_backend b = backend := b

let survey c1 c2 =
  Obs.Trace.with_span "product.survey" @@ fun () ->
  Obs.Metrics.incr "product.surveys";
  match !backend with
  | Some b when b.active () -> (
      match b.survey c1 c2 with
      | Some s -> s
      | None -> survey_interpreted c1 c2)
  | _ -> survey_interpreted c1 c2

let compliant c1 c2 =
  match !backend with
  | Some b when b.active () -> (
      match b.compliant c1 c2 with
      | Some v -> v
      | None -> compliant_interpreted c1 c2)
  | _ -> compliant_interpreted c1 c2

let admits level s =
  Compliance.admits_measures level ~stuck:s.stuck_states
    ~successful:s.successful

let pp_stuck_reason ppf = function
  | Client_waits_forever ->
      Fmt.string ppf "client is not terminated and no party can output"
  | Unmatched_output a ->
      Fmt.pf ppf "output on channel %s has no matching input" a

let pp_counterexample ppf ce =
  Fmt.pf ppf
    "@[<v>after synchronising on [%a], the session is stuck:@,\
     client: %a@,server: %a@,cause: %a@]"
    Fmt.(list ~sep:comma string)
    ce.synchronisations Contract.pp (fst ce.stuck) Contract.pp (snd ce.stuck)
    pp_stuck_reason ce.reason

let pp_dot ppf t =
  let id =
    let tbl = Repr.Key.Pair_tbl.create 17 in
    let next = ref 0 in
    fun p ->
      match Repr.Key.Pair_tbl.find_opt tbl (key p) with
      | Some i -> i
      | None ->
          let i = !next in
          incr next;
          Repr.Key.Pair_tbl.replace tbl (key p) i;
          i
  in
  Fmt.pf ppf "digraph product {@.  rankdir=LR;@.";
  List.iter
    (fun ((c1, c2) as p) ->
      let shape =
        if List.exists (fun (q, _) -> equal_state p q) t.finals then
          "doublecircle"
        else "circle"
      in
      Fmt.pf ppf "  %d [shape=%s,label=\"%s | %s\"];@." (id p) shape
        (String.escaped (Contract.to_string c1))
        (String.escaped (Contract.to_string c2)))
    t.states;
  List.iter
    (fun (p, a, q) ->
      Fmt.pf ppf "  %d -> %d [label=\"tau(%s)\"];@." (id p) (id q) a)
    t.delta;
  Fmt.pf ppf "}@."
