(* The benchmark's workloads. Each is a pure function of its seed: a
   .susf spec (policy declarations only), a prologue that publishes the
   repository and opens the sessions, and two per-connection request
   streams for the closed-loop generator. The streams are longer than any
   run consumes; the generator stops sending when its time is up. *)

open Core

type t = {
  spec : string;  (** .susf text the server loads *)
  prologue : Broker.request list;  (** sent in order on connection 0 *)
  streams : Broker.request list array;  (** one per connection *)
  recover_entries : int;
      (** recovery is timed on this many journal entries (prologue
          included), so recover_s measures replay speed rather than how
          many requests a run happened to complete; reached within the
          first measured segment of a typical run, and about half a second
          of replay, so a run can repeat it in every pause *)
  rss_after : int;
      (** the server's peak RSS is read after this many replies of the
          measured phase, about three seconds' worth, so it measures the
          memory a fixed amount of work needs and a slow host still
          reaches it *)
}

let connections = 2

(* Every workload's services may carry the paper's Fig. 1 policy. *)
let spec_text =
  Fmt.str "%a" Syntax.Spec.to_susf
    { Syntax.Spec.empty with automata = [ ("phi", Usage.Policy_lib.hotel) ] }

let is_write = function
  | Broker.Open _ | Broker.Close _ | Broker.Publish _ | Broker.Update _
  | Broker.Retract _ ->
      true
  | _ -> false

let publish_all repo =
  List.map (fun (loc, service) -> Broker.Publish { loc; service }) repo

let opens clients =
  List.map (fun (client, body) -> Broker.Open { client; body }) clients

(* Split a generated script into its prologue (the submissions before
   the first drain) and the per-connection streams of the rest. *)
let split_script items =
  let rec prologue acc = function
    | Broker.Script.Submit r :: rest -> prologue (r :: acc) rest
    | Broker.Script.Drain :: rest | Broker.Script.Tick :: rest ->
        (List.rev acc, rest)
    | [] -> (List.rev acc, [])
  in
  let pro, rest = prologue [] items in
  (pro, Broker.Script.partition ~streams:connections rest)

(* ---- hot-serve ---------------------------------------------------------

   Why: the cache-hit path. The B8 churn profile (Testkit.Workload.default
   over Scenarios.Churn: 70% of serves on the hot key, 20% churn, most of
   it noise publishes) keeps about 85% of serves in the verdict index
   over two connections, so a request costs socket, parse, index lookup,
   journal flush and render while the analysis layers mostly idle. A
   change to the compiled engine or the exploration kernel should show
   little change here. Floor (Gate): index hit ratio >= 0.8. *)

let hot_serve ~seed ~requests =
  let profile =
    {
      (Testkit.Workload.default ~clients:Scenarios.Churn.clients
         ~spares:Scenarios.Churn.spares ~noise:Scenarios.Churn.noise)
      with
      Testkit.Workload.seed;
      requests;
    }
  in
  let items, _ = Testkit.Workload.generate profile in
  let pro, streams = split_script items in
  {
    spec = spec_text;
    prologue = publish_all Scenarios.Churn.repo @ pro;
    streams;
    recover_entries = 30_000;
    rss_after = 60_000;
  }

(* ---- churn-miss --------------------------------------------------------

   Why: the analysis path under writes. A dozen candidate services per
   request site in two contract shapes (deep ping-pong, wide choice),
   client policies that rule some candidates out, and 20% writes
   (updates of relevant services, re-opens with fresh bodies) that
   invalidate most verdicts, so most serves miss and re-plan through
   Planner/Netcheck/Product/Compile. The deep/wide split is where the
   compiled engine loses (deep) and wins (wide). Floors (Gate): index hit
   ratio <= 0.3, and served plans bind both shapes. *)

let deep_rounds = 16
let wide_channels = 16
let candidates_per_shape = 12
let churn_clients = 64

let rec ping n =
  if n = 0 then Hexpr.nil
  else Hexpr.select [ ("msg", Hexpr.branch [ ("ack", ping (n - 1)) ]) ]

let rec pong n =
  if n = 0 then Hexpr.nil
  else Hexpr.branch [ ("msg", Hexpr.select [ ("ack", pong (n - 1)) ]) ]

let wide_chan i = Printf.sprintf "c%d" i

(* [missing] drops one channel from the server's branch: a client that
   may select it is then not compliant. *)
let wide_server ~missing =
  Hexpr.branch
    (List.filter_map
       (fun i -> if Some i = missing then None else Some (wide_chan i, Hexpr.nil))
       (List.init wide_channels Fun.id))

let wide_client =
  Hexpr.select (List.init wide_channels (fun i -> (wide_chan i, Hexpr.nil)))

type shape = Deep | Wide

let shape_of_loc loc = if loc.[0] = 'd' then Deep else Wide
let loc_of shape i = Printf.sprintf "%c%02d" (if shape = Deep then 'd' else 'w') i

(* A candidate service: the Fig. 1 signature events, then the protocol.
   A third of the draws are protocol-defective (one round short, one
   channel missing), so compliance rules them out. *)
let service st shape loc =
  let price = 30 + (5 * Random.State.int st 13)
  and rating = 60 + (5 * Random.State.int st 9)
  and defective = Random.State.int st 3 = 0 in
  let protocol =
    match shape with
    | Deep -> pong (if defective then deep_rounds - 1 else deep_rounds)
    | Wide ->
        wide_server
          ~missing:(if defective then Some (Random.State.int st wide_channels) else None)
  in
  Hexpr.seq_all
    [
      Hexpr.ev ~arg:(Usage.Value.str loc) "sgn";
      Hexpr.ev ~arg:(Usage.Value.int price) "price";
      Hexpr.ev ~arg:(Usage.Value.int rating) "rating";
      protocol;
    ]

(* A client session under a fresh φ(blacklist, price, rating). *)
let client_body st ~rid shape =
  let blacklist =
    List.init 3 (fun _ ->
        loc_of shape (1 + Random.State.int st candidates_per_shape))
  in
  let policy =
    Usage.Policy_lib.hotel_policy ~blacklist
      ~price:(40 + (5 * Random.State.int st 4))
      ~rating:(85 + (5 * Random.State.int st 3))
  in
  Hexpr.open_ ~rid ~policy
    (match shape with Deep -> ping deep_rounds | Wide -> wide_client)

let churn_miss ~seed ~requests =
  let st = Testkit.Rng.make ~seed () in
  let repo_st = Testkit.Rng.derive st and load_st = Testkit.Rng.derive st in
  (* deep and wide candidates interleaved, so every site scans both *)
  let repo =
    List.concat
      (List.init candidates_per_shape (fun i ->
           let d = loc_of Deep (i + 1) and w = loc_of Wide (i + 1) in
           [ (d, service repo_st Deep d); (w, service repo_st Wide w) ]))
  in
  let client_shape i = if i mod 2 = 0 then Deep else Wide in
  let client_name i = Printf.sprintf "k%02d" i in
  let clients =
    List.init churn_clients (fun i ->
        (client_name i, client_body repo_st ~rid:(i + 1) (client_shape i)))
  in
  let stream =
    List.init requests (fun _ ->
        let r = Random.State.float load_st 1.0 in
        let i = Random.State.int load_st churn_clients in
        if r < 0.16 then
          let shape = if Random.State.bool load_st then Deep else Wide in
          let loc = loc_of shape (1 + Random.State.int load_st candidates_per_shape) in
          Broker.Update { loc; service = service load_st shape loc }
        else if r < 0.2 then
          Broker.Open
            {
              client = client_name i;
              body = client_body load_st ~rid:(i + 1) (client_shape i);
            }
        else Broker.Serve { client = client_name i })
  in
  {
    spec = spec_text;
    prologue = publish_all repo @ opens clients;
    streams =
      Broker.Script.partition ~streams:connections
        (List.map (fun r -> Broker.Script.Submit r) stream);
    recover_entries = 4_000;
    rss_after = 8_000;
  }

(* ---- the ladder scenario ----------------------------------------------

   Not a workload: coalition search, controller synthesis and adapter
   synthesis cost milliseconds to tens of milliseconds a request, so a
   socket workload of them completes too few requests a run for steady
   figures. The traced run of every workload probes these layers cold,
   in-process, on this fixed scenario instead (Layers). Supply chains of
   3, 4 and 6 parties (each chain on its own channels, so a retailer
   needs its whole chain) beside the Scenarios.Mismatched pairs and a
   reversed pipe, all in one repository. *)

(* Give chain [k] its own channel names: ord1 -> ord3_1 and so on. *)
let rename_chain k h =
  let s = Hexpr.to_string h in
  let b = Buffer.create (String.length s + 16) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else if i + 3 <= n && (String.sub s i 3 = "ord" || String.sub s i 3 = "inv")
    then begin
      Buffer.add_string b (Printf.sprintf "%s%d_" (String.sub s i 3) k);
      go (i + 3)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Syntax.Parser.hexpr_of_string (Buffer.contents b)

(* Sized so a mediate explores thousands of coalitions, not tens of
   thousands: with 14 services a failed coalition search costs about
   3500 syntheses. *)
let chain_parties = [ 3; 4; 6 ]
let reversed_pipes = [ 2 ]

type ladder = {
  ladder_repo : Core.Network.repo;
  orchestrated : (string * Hexpr.t) list;  (** clients an orchestrator serves *)
  mediated : (string * Hexpr.t) list;  (** clients only an adapter can serve *)
}

let ladder =
  let chains =
    List.map
      (fun k ->
        let repo, (_, client) = Scenarios.Supply_chain.chain ~parties:k in
        ( List.map
            (fun (loc, h) -> (Printf.sprintf "p%d_%s" k loc, rename_chain k h))
            repo,
          (Printf.sprintf "retailer%d" k, rename_chain k client) ))
      chain_parties
  in
  let pipes =
    List.map
      (fun n ->
        let c, s = Scenarios.Mismatched.reversed n in
        ( (Printf.sprintf "rev%d" n, Mediator.Synthesis.hexpr_of_contract s),
          ( Printf.sprintf "piper%d" n,
            Hexpr.open_ ~rid:(90 + n) (Mediator.Synthesis.hexpr_of_contract c) ) ))
      reversed_pipes
  in
  {
    ladder_repo =
      List.concat_map fst chains @ Scenarios.Mismatched.repo @ List.map fst pipes;
    orchestrated = List.map snd chains;
    mediated =
      [
        ("reorder", Scenarios.Mismatched.reorder_client);
        ("buffer", Scenarios.Mismatched.buffer_client);
        ("rename", Scenarios.Mismatched.rename_client);
      ]
      @ List.map snd pipes;
  }

(* Stream lengths: comfortably more than the fastest observed rate
   (requests per second) times the run length. *)
let make ~name ~seed ~seconds =
  let budget rate = max 1000 (rate * (seconds + 1)) in
  match name with
  | "hot-serve" -> hot_serve ~seed ~requests:(budget 45_000)
  | "churn-miss" -> churn_miss ~seed ~requests:(budget 20_000)
  | _ -> invalid_arg ("unknown workload " ^ name)
