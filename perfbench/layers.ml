(* The traced half of a run: the measured journal replayed in-process
   with the shipped engine, with wall-clock spans opened around the
   benchmark's own calls into each layer's public functions. Nothing in
   lib/ or bin/ is instrumented: Obs.Metrics never holds wall time and
   Obs.Trace is a logical clock the tests diff, so the spans live in
   this module's buffer and are written once, at the end. *)

let now = Monotonic_clock.now

(* ---- the span buffer ---------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  start : int64;
  stop : int64;
  parent : int;  (** -1 at the root *)
  rid : int;  (** the request (journal seq) the span belongs to *)
}

let spans = ref []
let next_id = ref 0
let open_stack = ref []

let with_span ~rid name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  open_stack := id :: !open_stack;
  let start = now () in
  let finish () =
    spans := { id; name; start; stop = now (); parent; rid } :: !spans;
    open_stack := List.tl !open_stack
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Self time: a span's duration minus the part its children cover
   (children run inside their parent, one at a time). *)
let self_times () =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (Int64.add (Int64.sub s.stop s.start)
             (Option.value ~default:0L (Hashtbl.find_opt covered s.parent))))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        Int64.sub (Int64.sub s.stop s.start)
          (Option.value ~default:0L (Hashtbl.find_opt covered s.id))
      in
      Hashtbl.replace by_name s.name
        (Int64.to_float self
        :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
    !spans;
  by_name

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tname\tstart_ns\tend_ns\tparent\trid\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%s\t%Ld\t%Ld\t%d\t%d\n" s.id s.name s.start s.stop
            s.parent s.rid)
        (List.rev !spans))

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* ---- inputs the engine saw ---------------------------------------------- *)

(* [k] evenly spaced elements: cold probes run on a sample spread over
   the whole run, not just its start. *)
let spread k l =
  let a = Array.of_list (List.rev l) in
  let n = Array.length a in
  if n <= k then Array.to_list a else List.init k (fun i -> a.(i * n / k))

let has_body = function
  | Broker.Open _ | Broker.Publish _ | Broker.Update _ -> true
  | _ -> false

(* Deep or wide: a contract with a state offering four or more moves is
   wide; otherwise it is deep. *)
let wide c =
  List.exists
    (fun s -> List.length (Core.Contract.transitions s) >= 4)
    (Core.Contract.reachable ~limit:10_000 c)

let projections h =
  match Core.Contract.project h with c -> [ c ] | exception _ -> []

(* ---- the traced replay -------------------------------------------------- *)

(* The hand-off cost of the shard pool: submit each request to a
   one-shard pool in-process, wait for its callback, and subtract the
   engine step the plain replay measured for the same seq. Only steps
   under [short_step_ns] count: on longer ones the step's own jitter,
   and the caches the plain replay left warm, swamp the difference.
   Bounded in time (the pool repeats the engine's work). *)
let short_step_ns = 50_000L

let shard_handoff ~spec ~entries ~steps =
  let pool = Broker.Shard.create ~shards:1 (Syntax.Spec.repo spec) in
  let fired = Atomic.make 0L in
  let deadline = Int64.add (now ()) 2_000_000_000L in
  let rec go acc = function
    | [] -> acc
    | _ when Int64.compare (now ()) deadline > 0 -> acc
    | (e : Broker.Journal.entry) :: rest ->
        Atomic.set fired 0L;
        let t0 = now () in
        Broker.Shard.submit pool e.Broker.Journal.request ~callback:(fun ~shard:_ _ ->
            Atomic.set fired (now ()));
        while Atomic.get fired = 0L do
          Domain.cpu_relax ()
        done;
        let rtt = Int64.sub (Atomic.get fired) t0 in
        let acc =
          match Hashtbl.find_opt steps e.Broker.Journal.seq with
          | Some step when Int64.compare step short_step_ns < 0 ->
              Int64.to_float (Int64.sub rtt step) :: acc
          | _ -> acc
        in
        go acc rest
  in
  let out = go [] entries in
  Broker.Shard.stop pool;
  out


let us ns = ns /. 1e3

let run ~dir =
  let spec = Gate.load_spec dir in
  let entries = Gate.read_journal dir spec in
  let hexpr_of_string = Gate.hexpr_of_string spec in
  let hexpr_to_string = Core.Hexpr.to_string in
  Repr.Cache.clear_all ();
  let lowered0 = Compile.Backend.lower_count () in
  let b = Gate.fresh_broker spec in
  let jpath = Filename.concat dir "trace-journal" in
  (* a batch no run reaches: append only encodes and buffers, the
     explicit flush does the write, as the shard's group commit does *)
  let w = Broker.Journal.create ~hexpr_to_string ~batch:max_int jpath in
  let journal_ns = ref 0L in
  Broker.set_journal b
    (Some
       (fun ~seq ~level request ->
         let t0 = now () in
         with_span ~rid:seq "journal.append" (fun () ->
             Broker.Journal.append w
               { Broker.Journal.seq; submit = seq; shed = false; rescued = false; level;
                 request });
         with_span ~rid:seq "journal.flush" (fun () -> Broker.Journal.flush w);
         journal_ns := Int64.add !journal_ns (Int64.sub (now ()) t0)));
  let misses = ref [] in
  (* engine step time without the journal, by seq, for the shard hand-off *)
  let steps = Hashtbl.create 4096 in
  let writes = ref 0 in
  List.iter
    (fun (e : Broker.Journal.entry) ->
      let rid = e.Broker.Journal.seq in
      let line = Broker.Script.request_line ~hexpr_to_string e.Broker.Journal.request in
      let request =
        with_span ~rid
          (if has_body e.Broker.Journal.request then "script.parse.body"
           else "script.parse.short")
          (fun () -> Broker.Script.request_of_line ~hexpr_of_string line)
        |> function
        | Ok r -> r
        | Error msg -> failwith msg
      in
      let st = Broker.stats b in
      let hits0 = st.Broker.hits and misses0 = st.Broker.misses in
      let repo = Broker.repo b and sessions = Broker.clients b in
      journal_ns := 0L;
      let t0 = now () in
      let resp =
        with_span ~rid "engine.step" (fun () ->
            match Broker.submit b request with
            | Some r -> r
            | None -> Option.get (Broker.step b))
      in
      Hashtbl.replace steps rid (Int64.sub (Int64.sub (now ()) t0) !journal_ns);
      let kind =
        if Workloads.is_write request then (incr writes; "engine.step.write")
        else if st.Broker.misses > misses0 then "engine.step.miss"
        else if st.Broker.hits > hits0 then "engine.step.hit"
        else "engine.step.other"
      in
      (* the step span (the newest one) is named by its class, now that
         the response is known *)
      (match !spans with s :: tl -> spans := { s with name = kind } :: tl | [] -> ());
      (match request with
      | Broker.Serve { client } when kind = "engine.step.miss" ->
          Option.iter (fun body -> misses := (repo, (client, body)) :: !misses)
            (List.assoc_opt client sessions)
      | _ -> ());
      ignore
        (with_span ~rid "engine.render" (fun () -> Fmt.str "%a" Broker.pp_response resp)))
    entries;
  Broker.Journal.close w;
  let lowerings = Compile.Backend.lower_count () - lowered0 in
  let cache name =
    match List.assoc_opt name (Repr.Cache.stats ()) with
    | Some s -> (s.Repr.Cache.hits, s.Repr.Cache.misses)
    | None -> (0, 0)
  in
  let ratio (a, b) = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let intern_hits, intern_misses = cache "contract.intern" in
  let tables = cache "compile.tables" in
  (* ---- cold probes on the sampled inputs ---- *)
  let cold name f =
    Repr.Cache.clear_all ();
    with_span ~rid:(-1) name f
  in
  List.iter
    (fun (repo, client) ->
      let plans = Core.Planner.enumerate repo ~client in
      let rec analyzed = function
        | [] -> ()
        | p :: rest ->
            let r =
              cold "probe.analyze" (fun () -> Core.Planner.analyze repo ~client p)
            in
            if Result.is_ok r.Core.Planner.verdict then
              ignore
                (cold "probe.netcheck" (fun () ->
                     Core.Netcheck.check_client repo p client))
            else analyzed rest
      in
      analyzed plans;
      let sites = Core.Planner.client_sites client in
      List.iter
        (fun (site : Core.Planner.site) ->
          List.iter
            (fun cb ->
              List.iter
                (fun (_, h) ->
                  List.iter
                    (fun cs ->
                      let shape = if wide cs then "wide" else "deep" in
                      ignore
                        (cold ("probe.compliant." ^ shape) (fun () ->
                             Core.Product.compliant cb cs)))
                    (projections h))
                repo)
            (projections site.Core.Planner.body))
        sites;
      List.iter
        (fun (_, h) ->
          ignore (cold "probe.project" (fun () -> projections h));
          List.iter
            (fun c -> ignore (cold "probe.compile.get" (fun () -> Compile.Backend.get c)))
            (projections h))
        (client :: repo))
    (spread 16 !misses);
  (* The ladder scenario, with and without the noise services published,
     through the rungs a broker's orchestrate and mediate run: coalition
     search and controller synthesis for every client, then adapter
     synthesis for the mediated ones, whose coalition search fails. The
     work counts come from Obs.Metrics, on in this process only for these
     probes. *)
  let { Workloads.ladder_repo; orchestrated; mediated } = Workloads.ladder in
  Obs.Metrics.install ();
  List.iter
    (fun repo ->
      List.iter
        (fun client ->
          ignore
            (cold "probe.orchestrate" (fun () ->
                 Orchestration.Orchestrate.synthesize_client repo ~client)))
        (orchestrated @ mediated);
      List.iter
        (fun client ->
          ignore (cold "probe.heal" (fun () -> Mediator.Repair.heal repo ~client)))
        mediated)
    [ ladder_repo; ladder_repo @ Scenarios.Churn.noise ];
  let counts = (Obs.Metrics.snapshot ()).Obs.Metrics.counters in
  Obs.Metrics.uninstall ();
  let count name = Option.value ~default:0 (List.assoc_opt name counts) in
  let per name den = float_of_int (count name) /. float_of_int (max 1 den) in
  (* ---- recovery and the shard hand-off ---- *)
  let t0 = now () in
  (match
     Broker.Recovery.recover ~hexpr_of_string ~journal:(Filename.concat dir "journal.0")
       (Syntax.Spec.repo spec)
   with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let recover_ns = Int64.to_float (Int64.sub (now ()) t0) in
  let handoff = shard_handoff ~spec ~entries ~steps in
  let self = self_times () in
  (* engine spans report the median call; cold probes run on a spread of
     very different inputs, so they report the mean call *)
  let med name = us (median (Option.value ~default:[] (Hashtbl.find_opt self name))) in
  let avg name = us (mean (Option.value ~default:[] (Hashtbl.find_opt self name))) in
  let n name = List.length (Option.value ~default:[] (Hashtbl.find_opt self name)) in
  write_spans (Filename.concat dir "spans.tsv");
  let entries_n = List.length entries in
  [
    ("script.parse_us.short", med "script.parse.short", n "script.parse.short");
    ("script.parse_us.body", med "script.parse.body", n "script.parse.body");
    ("shard.handoff_us", us (median handoff), List.length handoff);
    ("engine.step_us.hit", med "engine.step.hit", n "engine.step.hit");
    ("engine.step_us.miss", med "engine.step.miss", n "engine.step.miss");
    ("engine.step_us.write", med "engine.step.write", n "engine.step.write");
    ("engine.render_us", med "engine.render", n "engine.render");
    ("planner.analyze_us", avg "probe.analyze", n "probe.analyze");
    ("netcheck.check_us", avg "probe.netcheck", n "probe.netcheck");
    ("product.compliant_us.deep", avg "probe.compliant.deep", n "probe.compliant.deep");
    ("product.compliant_us.wide", avg "probe.compliant.wide", n "probe.compliant.wide");
    ("repr.project_us", avg "probe.project", n "probe.project");
    ( "contract.intern.miss_ratio",
      1. -. ratio (intern_hits, intern_misses),
      intern_hits + intern_misses );
    ("compile.get_us", avg "probe.compile.get", n "probe.compile.get");
    ("compile.lowerings", float_of_int lowerings, entries_n);
    ("compile.tables.hit_ratio", ratio tables, fst tables + snd tables);
    ("journal.append_us", med "journal.append", n "journal.append");
    ("journal.flush_us", med "journal.flush", n "journal.flush");
    ( "recovery.replay_us_per_entry",
      us recover_ns /. float_of_int (max 1 entries_n),
      entries_n );
    ("orchestration.request_us", avg "probe.orchestrate", n "probe.orchestrate");
    ( "orchestration.coalitions_per_request",
      per "orchestration.coalitions.explored" (n "probe.orchestrate"),
      n "probe.orchestrate" );
    ( "orchestration.synthesis_runs_per_request",
      per "orchestration.synthesis.runs" (n "probe.orchestrate"),
      n "probe.orchestrate" );
    ("mediator.heal_us", avg "probe.heal", n "probe.heal");
    ( "mediator.states_per_synthesis",
      per "mediator.synthesis.states" (count "mediator.synthesis.runs"),
      count "mediator.synthesis.runs" );
    ("replay.writes", float_of_int !writes, entries_n);
  ]

let write ~dir rows =
  Out_channel.with_open_text (Filename.concat dir "layers.json") (fun oc ->
      output_string oc "{";
      List.iteri
        (fun i (k, v, n) ->
          Printf.fprintf oc "%s\n %S: [%.17g, %d]" (if i = 0 then "" else ",") k v n)
        rows;
      output_string oc "\n}\n")
