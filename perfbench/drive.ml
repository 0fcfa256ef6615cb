(* The closed-loop load generator: spawns the shipped [susf serve
   --listen] binary, applies the workload prologue (timed as set-up),
   drives the two request streams with one request in flight per
   connection until the run's time is up, timing recovery of a prefix
   of the server's journal in the pauses between the measured segments,
   then samples the server's peak RSS and shuts it down. Everything is
   written under the run directory for the gate and the reporter. *)

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let hexpr_to_string = Core.Hexpr.to_string
let line_of request = Broker.Script.request_line ~hexpr_to_string request

type server = {
  pid : int;
  err : in_channel;  (** the server's stderr, drained at exit *)
  port : int;
  argv : string array;
}

let listening_prefix = "-- listening on 127.0.0.1:"

(* Spawn [susf serve SPEC --listen 0 --journal J ...] and wait for the
   line naming its port. *)
let spawn ~susf ~spec ~journal ~extra ~out =
  let r, w = Unix.pipe ~cloexec:true () in
  let outfd = Unix.openfile out [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let argv =
    Array.of_list
      ([ susf; "serve"; spec; "--listen"; "0"; "--journal"; journal ] @ extra)
  in
  let pid = Unix.create_process susf argv Unix.stdin outfd w in
  Unix.close w;
  Unix.close outfd;
  let err = Unix.in_channel_of_descr r in
  let rec await () =
    match In_channel.input_line err with
    | None -> failwith "server exited before listening"
    | Some l ->
        let n = String.length listening_prefix in
        if String.length l > n && String.sub l 0 n = listening_prefix then
          let rest = String.sub l n (String.length l - n) in
          let digits = List.hd (String.split_on_char ' ' rest) in
          int_of_string digits
        else await ()
  in
  match await () with
  | port -> { pid; err; port; argv }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr err;
      raise e

type conn = { fd : Unix.file_descr; ic : in_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd }

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write c.fd b off (n - off)) in
  go 0

let recv c = match In_channel.input_line c.ic with Some l -> l | None -> ""

let call c line =
  send c line;
  recv c

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> failwith (Printf.sprintf "server exited with %d" n)
  | _ -> failwith "server killed"

let shutdown srv conns =
  let bye = call conns.(0) "shutdown" in
  Array.iter (fun c -> close_in_noerr c.ic) conns;
  wait_exit srv.pid;
  (* drain what the server still wrote to stderr *)
  ignore (In_channel.input_all srv.err);
  close_in_noerr srv.err;
  if bye <> "ok bye" then failwith ("shutdown answered " ^ bye)

let kill srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] srv.pid) with Unix.Unix_error _ -> ());
  close_in_noerr srv.err

(* One measured request: connection, segment, write or read, send time
   relative to the start of the measured phase, latency, and the reply
   line ([""] when none came). *)
type record = {
  conn : int;
  segment : int;
  write : bool;
  sent_ns : int64;
  latency_ns : int64;
  reply : string;
}

let reply_timeout_s = 30.

(* One segment of the closed loop: one request in flight per connection,
   the next one sent as soon as its predecessor's reply is read, none
   sent after [deadline]. [rest] holds each connection's unsent requests
   and is advanced in place; send times are relative to [t0];
   [at_reply n] runs after the n-th reply of the run, which [replies]
   counts. Returns the segment's records and whether a reply never
   came. *)
let closed_loop conns rest ~t0 ~deadline ~segment ~replies ~at_reply =
  let k = Array.length conns in
  let inflight = Array.make k None in
  let records = ref [] and stalled = ref false in
  let fire i =
    match rest.(i) with
    | r :: tl when Int64.compare (now_ns ()) deadline < 0 ->
        rest.(i) <- tl;
        let line = line_of r in
        let t = now_ns () in
        send conns.(i) line;
        inflight.(i) <- Some (Workloads.is_write r, t)
    | _ -> inflight.(i) <- None
  in
  let record i write sent ~latency_ns reply =
    records :=
      { conn = i; segment; write; sent_ns = Int64.sub sent t0; latency_ns; reply }
      :: !records
  in
  for i = 0 to k - 1 do
    fire i
  done;
  let last_progress = ref (now_ns ()) in
  let rec loop () =
    let live = List.filter (fun i -> inflight.(i) <> None) (List.init k Fun.id) in
    if live <> [] then begin
      let fds = List.map (fun i -> conns.(i).fd) live in
      let ready, _, _ =
        try Unix.select fds [] [] 1.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun i ->
          if List.mem conns.(i).fd ready then begin
            let reply = recv conns.(i) in
            let t = now_ns () in
            last_progress := t;
            incr replies;
            at_reply !replies;
            (match inflight.(i) with
            | Some (write, sent) -> record i write sent ~latency_ns:(Int64.sub t sent) reply
            | None -> ());
            fire i
          end)
        live;
      if ready = [] && secs_since !last_progress > reply_timeout_s then begin
        (* a reply that never comes: record it as missing and stop *)
        stalled := true;
        Array.iteri
          (fun i f ->
            match f with
            | Some (write, sent) ->
                record i write sent ~latency_ns:0L "";
                inflight.(i) <- None
            | None -> ())
          inflight
      end
      else loop ()
    end
  in
  loop ();
  (List.rev !records, !stalled)

(* The measured phase is cut into this many segments of equal length.
   After each one the connections stay idle while recovery is timed, so
   the recovery samples spread over the whole phase rather than bunch
   after it: a shared host's speed drifts over tens of seconds, and
   samples taken at one moment all read that moment's speed. *)
let segments = 4

(* Wall time of one [susf serve SPEC --listen 0 --journal PREFIX
   --recover --check] on the recovery prefix, from spawn to exit. *)
let time_recovery ~susf ~spec ~prefix =
  let argv =
    [| susf; "serve"; spec; "--listen"; "0"; "--journal"; prefix; "--recover"; "--check" |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now_ns () in
  let pid = Unix.create_process susf argv null null null in
  let _, status = Unix.waitpid [] pid in
  let dt = secs_since t0 in
  Unix.close null;
  match status with
  | Unix.WEXITED 0 -> dt
  | Unix.WEXITED n -> failwith (Printf.sprintf "recovery exited with %d" n)
  | _ -> failwith "recovery killed"

(* Copy the journal's header line and its first [entries] entries to
   [prefix ^ ".0"]; returns how many entries were copied. *)
let cut_prefix ~journal ~prefix ~entries =
  In_channel.with_open_text (journal ^ ".0") (fun ic ->
      Out_channel.with_open_text (prefix ^ ".0") (fun oc ->
          let rec copy n =
            match In_channel.input_line ic with
            | Some l when n <= entries ->
                output_string oc (l ^ "\n");
                copy (n + 1)
            | _ -> n - 1
          in
          copy 0))

let vm_hwm_kb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | Some _ -> go ()
      in
      go ())

let apply_prologue conn (w : Workloads.t) =
  List.map
    (fun r ->
      let reply = call conn (line_of r) in
      if String.length reply < 3 || String.sub reply 0 3 <> "ok " then
        failwith (Printf.sprintf "prologue %s answered %S" (line_of r) reply);
      reply)
    w.Workloads.prologue

type result = {
  setups : float list;
  prologue : string list;  (** the measured server's prologue replies *)
  records : record list;
  duration : float;  (** the measured segments' total length *)
  rss_kb : int;
  recovers : float list;  (** recovery wall times, in seconds *)
  recovered : int;  (** journal entries in the recovery prefix *)
  server_argv : string array;  (** the measured server's command line *)
  ping_rtt_ns : int64 list;
}

(* [setups] fresh servers are spawned and brought up to the end of the
   prologue; all but the last are shut down again, the last one is
   measured. Recovery is timed [recovers] times in all, spread over the
   pauses after the segments, on the journal's first [recover_entries]
   entries (cut into recover.0 once the server has acknowledged them). *)
let run ~susf ~dir ~(w : Workloads.t) ~seconds ~setups ~recovers ~pings ~metrics =
  let spec = Filename.concat dir "spec.susf" in
  Out_channel.with_open_text spec (fun oc -> output_string oc w.Workloads.spec);
  let journal i = Filename.concat dir (Printf.sprintf "journal%d" i) in
  let times = ref [] in
  let rec up i =
    let j = journal i in
    (try Sys.remove (j ^ ".0") with Sys_error _ -> ());
    let extra =
      if i = setups && metrics then
        [ "--metrics"; Filename.concat dir "metrics.json" ]
      else []
    in
    let t0 = now_ns () in
    let srv =
      spawn ~susf ~spec ~journal:j ~extra
        ~out:(Filename.concat dir (Printf.sprintf "server%d.out" i))
    in
    match
      let conns = Array.init Workloads.connections (fun _ -> connect srv.port) in
      let replies = apply_prologue conns.(0) w in
      times := secs_since t0 :: !times;
      (conns, replies)
    with
    | conns, _ when i < setups ->
        shutdown srv conns;
        up (i + 1)
    | conns, replies -> (srv, conns, j, replies)
    | exception e ->
        kill srv;
        raise e
  in
  let srv, conns, j, prologue = up 1 in
  let server_argv = srv.argv in
  let prefix = Filename.concat dir "recover" in
  let entries = w.Workloads.recover_entries in
  let records, duration, rss_kb, recover_times, ping_rtt_ns =
    match
      (* peak RSS after a fixed number of replies, so it measures the
         memory a fixed amount of work needs, not how far a run got *)
      let rss = ref None in
      let at_reply n =
        if n = w.Workloads.rss_after then rss := Some (vm_hwm_kb srv.pid)
      in
      let rest = Array.copy w.Workloads.streams in
      let replies = ref 0 and cut = ref false and recover_times = ref [] in
      let seg_ns = Int64.of_float (seconds *. 1e9 /. float_of_int segments) in
      let t0 = now_ns () in
      (* On a host slow enough that the planned segments end before the
         recovery prefix is journaled or the RSS is read, segments go on
         until both are done, so those fixed-work figures always exist. *)
      let rec measure segment acc duration =
        let start = now_ns () in
        let records, stalled =
          closed_loop conns rest ~t0 ~deadline:(Int64.add start seg_ns) ~segment ~replies
            ~at_reply
        in
        let duration = duration +. secs_since start in
        (* every acknowledged entry is flushed, so the prefix is whole
           once the server has acknowledged that many *)
        if (not !cut) && List.length prologue + !replies >= entries then begin
          if cut_prefix ~journal:j ~prefix ~entries < entries then
            failwith "the journal is shorter than its acknowledged entries";
          cut := true
        end;
        if !cut then
          while
            List.length !recover_times < recovers * min segment segments / segments
          do
            recover_times := time_recovery ~susf ~spec ~prefix :: !recover_times
          done;
        let acc = records :: acc in
        let finished = segment >= segments && !cut && !rss <> None in
        if stalled || records = [] || finished then (List.concat (List.rev acc), duration)
        else measure (segment + 1) acc duration
      in
      let records, duration = measure 1 [] 0. in
      if not !cut then
        failwith
          (Printf.sprintf "the run journaled %d entries; recovery is timed on %d"
             (List.length prologue + !replies) entries);
      let rss_kb =
        match !rss with
        | Some kb -> kb
        | None ->
            failwith
              (Printf.sprintf "the run completed %d requests; peak RSS is read after %d"
                 (List.length records) w.Workloads.rss_after)
      in
      let ping_rtt_ns =
        List.init pings (fun _ ->
            let t = now_ns () in
            let r = call conns.(0) "ping" in
            if r <> "ok pong" then failwith ("ping answered " ^ r);
            Int64.sub (now_ns ()) t)
      in
      shutdown srv conns;
      (records, duration, rss_kb, List.rev !recover_times, ping_rtt_ns)
    with
    | v -> v
    | exception e ->
        kill srv;
        raise e
  in
  (* the gate and the trace read the measured journal under a fixed name *)
  Sys.rename (j ^ ".0") (Filename.concat dir "journal.0");
  {
    setups = List.rev !times;
    prologue;
    records;
    duration;
    rss_kb;
    recovers = recover_times;
    recovered = entries;
    server_argv;
    ping_rtt_ns;
  }

let write_outputs ~dir r =
  Out_channel.with_open_text (Filename.concat dir "prologue.txt") (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) r.prologue);
  Out_channel.with_open_text (Filename.concat dir "requests.tsv") (fun oc ->
      List.iter
        (fun x ->
          Printf.fprintf oc "%d\t%d\t%c\t%Ld\t%Ld\t%s\n" x.conn x.segment
            (if x.write then 'w' else 'r')
            x.sent_ns x.latency_ns x.reply)
        r.records);
  let floats l = String.concat ", " (List.map (Printf.sprintf "%.9f") l) in
  Out_channel.with_open_text (Filename.concat dir "drive.json") (fun oc ->
      Printf.fprintf oc
        "{\"setups_s\": [%s], \"recovers_s\": [%s], \"recovered_entries\": %d, \
         \"duration_s\": %.9f, \"rss_kb\": %d, \"server_argv\": [%s], \
         \"ping_rtt_ns\": [%s]}\n"
        (floats r.setups) (floats r.recovers) r.recovered r.duration r.rss_kb
        (String.concat ", "
           (List.map (Printf.sprintf "%S") (Array.to_list r.server_argv)))
        (String.concat ", " (List.map Int64.to_string r.ping_rtt_ns)))
