(* The correctness gate, run on every measured journal:

   - replay the journal in-process with the shipped (compiled) engine
     and require every socket reply to equal the replayed response with
     the same seq, byte for byte;
   - require every replayed Serve verdict to equal Broker.Oracle.serve
     at its recorded level, on the repository as it stood then;
   - replay again with the compiled engine off and require identical
     renderings (compiled = interpreted); this replay runs in a forked
     child beside the first one, and compares against the socket replies,
     which the first replay requires equal to the compiled renderings;
   - assert the workload's floors, so generator drift that stops a
     workload exercising its layer fails loudly. *)

let one_line s =
  String.split_on_char '\n' s
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> String.concat " "

(* The socket front end's rendering of a response, single shard. *)
let render (r : Broker.response) =
  let tag =
    match Broker.target ~shards:1 r.Broker.request with
    | Broker.Broadcast -> "*"
    | Broker.Shard i -> string_of_int i
  in
  Fmt.str "ok %s %d %s" tag r.Broker.seq
    (one_line (Fmt.str "%a" Broker.pp_outcome r.Broker.outcome))

let load_spec dir = Syntax.Parser.spec_of_file (Filename.concat dir "spec.susf")

let hexpr_of_string (spec : Syntax.Spec.t) src =
  Syntax.Parser.hexpr_of_string ~automata:spec.Syntax.Spec.automata src

let read_journal dir spec =
  match
    Broker.Journal.read ~hexpr_of_string:(hexpr_of_string spec)
      (Filename.concat dir "journal.0")
  with
  | Ok r -> r.Broker.Journal.entries
  | Error e -> failwith (Fmt.str "%a" Broker.Journal.pp_error e)

(* Apply one journal entry exactly as recovery does. *)
let replay_entry b (e : Broker.Journal.entry) =
  let open Broker.Journal in
  if e.shed then Broker.replay_shed b ~seq:e.seq e.request
  else if e.rescued then Broker.replay_rescue b ~seq:e.seq ~level:e.level e.request
  else Broker.replay b ~seq:e.seq ~level:e.level e.request

let fresh_broker spec = Broker.create (Syntax.Spec.repo spec)

(* Replies by seq, from the prologue file and the measured records. *)
let read_replies dir =
  let tbl = Hashtbl.create 4096 in
  let add reply =
    match String.split_on_char ' ' reply with
    | "ok" :: _ :: seq :: _ -> (
        match int_of_string_opt seq with
        | Some s -> Hashtbl.replace tbl s reply
        | None -> ())
    | _ -> ()
  in
  In_channel.with_open_text (Filename.concat dir "prologue.txt") (fun ic ->
      In_channel.fold_lines (fun () l -> add l) () ic);
  In_channel.with_open_text (Filename.concat dir "requests.tsv") (fun ic ->
      In_channel.fold_lines
        (fun () l ->
          match String.split_on_char '\t' l with
          | [ _; _; _; _; _; reply ] -> add reply
          | _ -> ())
        () ic);
  tbl

type report = {
  entries : int;
  reply_mismatches : int;
  unreplied : int;
  oracle_checked : int;
  oracle_mismatches : int;
  interp_mismatches : int;
  hits : int;
  misses : int;
  deep_bound : int;
  wide_bound : int;
  floor : string;  (** "ok" or what failed *)
}

let is_mutation = function
  | Broker.Open _ | Broker.Close _ | Broker.Publish _ | Broker.Retract _
  | Broker.Update _ | Broker.Set_policy _ ->
      true
  | _ -> false

(* The interpreted replay: renderings that differ from the socket reply
   with the same seq. Entries without a reply are counted by the compiled
   replay as unreplied. *)
let interp_mismatches spec entries replies =
  Compile.Backend.set_enabled false;
  let bi = fresh_broker spec in
  List.fold_left
    (fun n e ->
      let r = replay_entry bi e in
      match Hashtbl.find_opt replies r.Broker.seq with
      | Some got when got <> render r -> n + 1
      | _ -> n)
    0 entries

(* [f ()] in a forked child, whose int result the parent collects with
   [join]; the gate runs no other domain, so forking is safe. *)
let in_child f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        match f () with
        | n ->
            let oc = Unix.out_channel_of_descr w in
            output_string oc (string_of_int n);
            close_out oc;
            0
        | exception e ->
            prerr_endline (Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      fun () ->
        let ic = Unix.in_channel_of_descr r in
        let out = In_channel.input_all ic in
        close_in ic;
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> int_of_string out
        | _ -> failwith "the interpreted replay failed"

let check ~workload ~dir =
  let spec = load_spec dir in
  let entries = read_journal dir spec in
  let replies = read_replies dir in
  let join_interp = in_child (fun () -> interp_mismatches spec entries replies) in
  let b = fresh_broker spec in
  (* Oracle answers only change when the repository or the sessions do,
     so they are memoized per (client, level) between mutations. *)
  let memo = Hashtbl.create 64 in
  let reply_mm = ref 0 and unreplied = ref 0 in
  let checked = ref 0 and oracle_mm = ref 0 in
  let deep = ref 0 and wide = ref 0 in
  List.iter
    (fun (e : Broker.Journal.entry) ->
      let r = replay_entry b e in
      let text = render r in
      (match Hashtbl.find_opt replies r.Broker.seq with
      | None -> incr unreplied
      | Some got -> if got <> text then incr reply_mm);
      if is_mutation r.Broker.request then Hashtbl.reset memo;
      (match (r.Broker.request, r.Broker.outcome) with
      | ( Broker.Serve { client },
          ((Broker.Served _ | Broker.Rejected Broker.No_plan) as o) ) -> (
          match List.assoc_opt client (Broker.clients b) with
          | None -> incr oracle_mm
          | Some body ->
              incr checked;
              let level = e.Broker.Journal.level in
              let expect =
                match Hashtbl.find_opt memo (client, level) with
                | Some v -> v
                | None ->
                    let v =
                      Broker.Oracle.serve ~level (Broker.repo b)
                        ~client:(client, body)
                    in
                    Hashtbl.replace memo (client, level) v;
                    v
              in
              let got =
                match o with
                | Broker.Served { report; _ } -> Broker.Index.Valid report
                | _ -> Broker.Index.No_plan
              in
              if not (Broker.verdict_equal got expect) then incr oracle_mm)
      | _ -> ());
      match r.Broker.outcome with
      | Broker.Served { report; _ } ->
          List.iter
            (fun (_, loc) ->
              if Workloads.(shape_of_loc loc = Deep) then incr deep else incr wide)
            (Core.Plan.bindings report.Core.Planner.plan)
      | _ -> ())
    entries;
  let stats = Broker.stats b in
  (* every reply must belong to a journaled request *)
  let orphans = Hashtbl.length replies - (List.length entries - !unreplied) in
  let reply_mm = !reply_mm + max 0 orphans in
  let interp_mm = join_interp () in
  let hits = stats.Broker.hits and misses = stats.Broker.misses in
  let hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  let floor =
    match workload with
    | "hot-serve" when hit_ratio < 0.8 ->
        Printf.sprintf "index.hit_ratio %.3f < 0.8" hit_ratio
    | "churn-miss" when hit_ratio > 0.3 ->
        Printf.sprintf "index.hit_ratio %.3f > 0.3" hit_ratio
    | "churn-miss" when !deep = 0 || !wide = 0 ->
        Printf.sprintf "served plans bind %d deep and %d wide services" !deep !wide
    | _ -> "ok"
  in
  {
    entries = List.length entries;
    reply_mismatches = reply_mm;
    unreplied = !unreplied;
    oracle_checked = !checked;
    oracle_mismatches = !oracle_mm;
    interp_mismatches = interp_mm;
    hits;
    misses;
    deep_bound = !deep;
    wide_bound = !wide;
    floor;
  }

let write ~dir r =
  Out_channel.with_open_text (Filename.concat dir "gate.json") (fun oc ->
      Printf.fprintf oc
        "{\"entries\": %d, \"reply_mismatches\": %d, \"unreplied\": %d, \
         \"oracle_checked\": %d, \"oracle_mismatches\": %d, \
         \"interp_mismatches\": %d, \"hits\": %d, \"misses\": %d, \
         \"deep_bound\": %d, \"wide_bound\": %d, \"floor\": %S}\n"
        r.entries r.reply_mismatches r.unreplied r.oracle_checked
        r.oracle_mismatches r.interp_mismatches r.hits r.misses r.deep_bound
        r.wide_bound r.floor)
