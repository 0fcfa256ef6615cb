(** The incremental orchestration broker: a long-lived serving layer
    that owns a mutable repository and answers a stream of requests
    through one deterministic event loop.

    Where the one-shot tools ([Planner.valid_plans], [susf plan])
    recompute everything per invocation, the broker caches each
    client's verdict in an {!Index} with reverse-dependency maps, and a
    repository mutation invalidates {e only} the dependent entries —
    re-serving an unaffected client is a cache hit that never calls
    [Planner.analyze]. The invalidation contract (which mutations drop
    which entries, and the argument that this is exactly the set a
    cold restart could answer differently on) is documented in
    [docs/BROKER.md].

    Admission control keeps the loop answerable under load: a bounded
    queue sheds excess submissions, and each cache-missing [Serve] gets
    a budget of fresh [Planner.analyze] calls — exceeding it degrades
    the request instead of stalling the loop.

    {b The degradation ladder.} With a non-strict admission {e floor}
    ([admission.floor], settable live via [Set_policy]), queue pressure
    loosens the {e compliance level} requests are served at before any
    submission is shed: depth within half the capacity serves
    [Compliance.Strict], within three quarters at a middle [Skip_k]
    rung, beyond that at the floor itself — and a [Serve] arriving at a
    {e full} queue is {e rescued} (answered immediately, uncached, at
    the floor level) instead of shed. Shedding is the last resort.
    Security is never loosened: a weaker level relaxes only the
    communication-stuck tolerance of [Netcheck]'s exploration — its
    security conditions stay fatal at every level, so a degraded
    verdict cannot admit a policy violation. The default
    [floor = Strict] disables the ladder entirely — the broker behaves
    exactly as earlier releases. See [docs/BROKER.md].

    Everything is deterministic: requests are processed in submission
    order, repository order is append/replace-in-place, and [Run]
    executions are driven by explicit seeds — replaying a
    {!Script} yields byte-identical responses. *)

open Core

(** {1 Admission policy} *)

type admission = {
  queue_capacity : int;  (** submissions beyond this are shed *)
  plan_budget : int;
      (** fresh [Planner.analyze] calls allowed per cache-missing
          [Serve] before it degrades *)
  floor : Compliance.level;
      (** the weakest compliance level the degradation ladder may
          serve at; [Strict] (the default) disables degradation *)
}

val default_admission : admission
(** [{ queue_capacity = 16; plan_budget = 64; floor = Strict }] *)

type policy_delta = {
  queue : int option;
  budget : int option;
  floor : Compliance.level option;
}
(** A [Set_policy] payload: each [Some] field replaces the matching
    admission field, [None] leaves it alone. A delta with [queue] or
    [budget] below 1 is rejected whole ([Invalid_policy]) — never
    clamped. *)

(** {1 Requests and responses} *)

type request =
  | Open of { client : string; body : Hexpr.t }
      (** register a client session (idempotent re-registration
          replaces the body and evicts any cached verdict) *)
  | Close of { client : string }  (** deregister and evict *)
  | Serve of { client : string }
      (** answer with the client's first valid plan, from cache when
          the index still holds a live entry *)
  | Run of { client : string; seed : int }
      (** execute the client's served plan under the supervised runtime
          with this seed (requires a cached [Serve] verdict) *)
  | Publish of { loc : string; service : Hexpr.t }
      (** append a service to the repository *)
  | Retract of { loc : string }  (** remove a service *)
  | Update of { loc : string; service : Hexpr.t }
      (** replace a service in place (repository order preserved) *)
  | Set_policy of policy_delta
  | Orchestrate of { client : string }
      (** serve-first admission: answer with the client's first valid
          1:1 plan when one exists (identical to [Serve]); only on
          [Rejected No_plan] fall back to most-permissive controller
          synthesis over service coalitions
          ([Orchestration.Orchestrate.synthesize_client]). Synthesis is
          deterministic and recomputed per request — orchestrated
          verdicts are never cached in the index, so the invalidation
          contract is untouched. *)
  | Mediate of { client : string }
      (** the full repair ladder as one admission path: first the
          cached 1:1 serve, then coalition synthesis, then mediator
          synthesis ([Mediator.Repair.heal]) — an adapter that
          reorders, buffers or renames-within-policy, published and
          re-verified through the strict pipeline. Only when every rung
          declines is the request rejected ([No_mediation]), carrying
          both decline traces. Like [Orchestrate], the synthesis rungs
          are deterministic, recomputed per request and never cached. *)

type reject =
  | Shed  (** the bounded queue was full at submission *)
  | No_plan  (** no valid plan exists for the client (cacheable) *)
  | Not_served of string  (** [Run] before a successful [Serve] *)
  | Unknown_client of string
  | Unknown_location of string
  | Duplicate_location of string
  | Invalid_policy of string
      (** a [Set_policy] delta with an out-of-range field, named in the
          message; the admission policy is left untouched *)
  | No_orchestration of string
      (** an [Orchestrate] found neither a 1:1 plan nor a coalition
          controller; the message renders the synthesis decline,
          counterexample trace included *)
  | No_mediation of string
      (** a [Mediate] exhausted the whole repair ladder; the message
          renders the coalition decline and the mediation decline,
          counterexample traces included *)

type outcome =
  | Served of {
      report : Planner.report;
      cached : bool;
      level : Compliance.level;
          (** the admission level the verdict holds at — equal to what
              a cold planner run at the same level answers *)
    }
  | Degraded of { analyzed : int; enumerated : int; level : Compliance.level }
      (** the plan budget ran out after [analyzed] of [enumerated]
          candidate plans; nothing is cached *)
  | Rejected of reject
  | Ran of { completed : bool; steps : int }
  | Ack  (** mutation/registration accepted *)
  | Orchestrated of {
      coalitions : (int * string list) list;
          (** per open request: rid and coalition member locations *)
      states : int;  (** controller states, summed over coalitions *)
      transitions : int;  (** controller transitions, summed *)
    }
      (** an [Orchestrate] with no 1:1 plan settled by controller
          synthesis; counts as a serve in [stats.served] *)
  | Mediated of {
      healed : (int * string * string) list;
          (** per repaired request: rid, the mismatched service, and
              the location its synthesized adapter was published at *)
      direct : (int * string) list;
          (** request sites that bound directly, no adapter needed *)
      states : int;  (** mediated configurations, summed over adapters *)
      steps : int;  (** repair steps, summed over adapters *)
    }
      (** a [Mediate] settled by adapter synthesis after both the 1:1
          and coalition rungs declined; the mediated triple was
          re-verified through the strict pipeline. Counts as a serve in
          [stats.served] *)

type response = { seq : int; request : request; outcome : outcome }
(** [seq] numbers processed requests from 0 in processing order (shed
    submissions are numbered too — shedding is an answer). *)

(** {1 Statistics} *)

type stats = {
  mutable requests : int;  (** responses produced, shed included *)
  mutable served : int;  (** [Served] outcomes *)
  mutable hits : int;  (** [Serve]s answered from the index *)
  mutable misses : int;  (** [Serve]s that recomputed (incl. degraded) *)
  mutable shed : int;
  mutable degraded : int;
  mutable rejected : int;  (** [Rejected] outcomes other than [Shed] *)
  mutable invalidations : int;  (** index entries dropped by mutations *)
  mutable analyzed : int;
      (** plans examined by cache-missing serves — fresh
          [Planner.analyze] calls and plan-verdict memo hits alike, so
          the count (and the plan budget it is charged to) never
          depends on what the memo holds *)
  mutable queue_peak : int;
  mutable rescued : int;
      (** full-queue [Serve]s answered at the floor level instead of
          shed *)
  mutable served_strict : int;  (** [Served] outcomes at [Strict] *)
  mutable served_skip : int;  (** [Served] outcomes at some [Skip_k] *)
  mutable served_affectible : int;  (** [Served] outcomes at [Affectible] *)
  mutable memo_hits : int;
      (** plans of [analyzed] answered by the plan-verdict memo *)
  mutable memo_misses : int;
      (** plans analysed afresh and stored in the plan-verdict memo *)
}

(** {1 The broker} *)

type t

val create : ?admission:admission -> Network.repo -> t
(** A broker owning (a copy of the list structure of) this repository.
    Locations must be distinct. *)

val repo : t -> Network.repo
(** The current repository, in its deterministic order. *)

val admission : t -> admission
val stats : t -> stats
val index_size : t -> int

val plan_memo_size : t -> int
(** Entries in the plan-verdict memo: the verdicts of plans the
    first-valid search has analysed, kept across serves and checked on
    every use against stamps of the client's session, each bound
    location and the policy universe (see [docs/BROKER.md]). Open and
    Close drop the client's entries, Retract every entry binding the
    location, so the memo holds at most, per live client, the plans
    the current repository enumerates, once per admission level
    served at. *)

val clients : t -> (string * Hexpr.t) list
(** Registered client sessions, in registration order. *)

(** {1 The event loop} *)

val submit : t -> request -> response option
(** Enqueue a request. [Some response] is returned {e only} when the
    queue is full: the submission is shed ([Rejected Shed]) — or, for a
    [Serve] under a non-strict floor, {e rescued}: answered immediately
    at the floor level, uncached, bumping [broker.rescued]. Otherwise
    the request waits for {!step}/{!drain}. Mirrors [broker.shed] /
    [broker.queue.depth] / [broker.admission.level] to [Obs.Metrics]. *)

val ladder : t -> Compliance.level
(** The admission level the next dequeued request would be processed
    at, as a function of queue depth and the floor (see the module
    header). Always [Strict] when [admission.floor] is [Strict]. *)

val refresh_gauges : t -> unit
(** Re-emit the [broker.queue.depth] and [broker.admission.level]
    gauges from current state — recovery calls this so a freshly
    restored broker does not report the crashed process's last
    values. *)

val step : t -> response option
(** Process the oldest queued request, if any. Each processed request
    runs under a [broker.request] span and bumps [broker.requests],
    [broker.cache.hit] / [broker.cache.miss] and friends. *)

val drain : t -> response list
(** {!step} until the queue is empty. *)

val process : t -> request -> response
(** [submit] + immediate processing, bypassing the queue's capacity
    check — the synchronous convenience used by tests. *)

(** {1 Durability hooks}

    The primitives {!Journal} and {!Recovery} are built on. Shed
    submissions never reach the hook — they mutate nothing — but they
    {e do} consume a sequence number and a script submission, so a
    journaling serve loop records them itself, at submit time, from the
    [Rejected Shed] response ({!submit}'s [Some] return); recovery
    restores their numbering with {!replay_shed}. *)

val seq : t -> int
(** The sequence number the next processed request will be answered
    with. *)

val set_journal :
  t -> (seq:int -> level:Compliance.level -> request -> unit) option -> unit
(** Install (or remove) the write-ahead hook. Each processed request
    calls it with the sequence number it is about to be answered with
    and the admission level it is about to be processed at, {e before}
    [apply] mutates any state; an exception raised by the hook (an
    injected crash, a full disk) propagates and the event is never
    applied — the journal can lead the applied state by at most the
    entry being written, never lag it. The level must be journaled:
    replay runs against an empty queue, where the ladder cannot
    reproduce the original pressure. *)

val served_clients : t -> (string * Compliance.level) list
(** Clients with a live index entry and the level their verdict was
    settled at, sorted — what a snapshot records so {!restore} knows
    which verdicts to rebuild, and at which level. *)

val cached_verdict : t -> string -> (Index.verdict * Compliance.level) option
(** The live index entry for this client, if any — what recovery
    verification compares against {!Oracle.serve} at the recorded
    level. *)

val restore :
  ?admission:admission ->
  sessions:(string * Hexpr.t) list ->
  served:(string * Compliance.level) list ->
  seq:int ->
  Network.repo ->
  t
(** Rebuild a broker from snapshot data: [create] on the snapshot
    repository, re-open [sessions] in order, recompute an index entry
    for every [served] client at its recorded level (unbudgeted — the
    snapshot only records settled verdicts, and the oracle property
    makes the recomputation byte-identical), and resume numbering at
    [seq]. The queue starts empty: queued-but-unprocessed submissions
    are not durable. Raises [Invalid_argument] on a served client
    without a session. *)

val replay : t -> seq:int -> level:Compliance.level -> request -> response
(** Process a journal entry during recovery: force the response
    sequence number to the recorded [seq], process at the recorded
    [level], and bypass the write-ahead hook (a recovering broker must
    not re-journal what it reads). *)

val replay_shed : t -> seq:int -> request -> response
(** Reproduce a journaled shed marker during recovery: restore the
    sequence number the shed submission consumed and answer
    [Rejected Shed] without touching the queue or applying anything —
    sheds mutate no state, but they number (and count toward) the
    response stream, so a recovered broker resumes numbering exactly
    where the crashed one stopped. *)

val replay_rescue :
  t -> seq:int -> level:Compliance.level -> request -> response
(** Reproduce a journaled rescue marker during recovery: restore the
    sequence number and re-run the floor-level uncached serve the
    crashed broker answered with. The broker state at the rescue point
    is a function of the applied prefix — which recovery has just
    reconstructed in order — so the re-run answer is byte-identical.
    Raises [Invalid_argument] on a non-[Serve] request (only [Serve]s
    are ever rescued). *)

(** {1 Shard routing}

    The routing rule of the sharded broker ({!Shard}), kept here so the
    engine and its tests own the contract: it is part of the serving
    protocol (per-shard journals are replayed against it after a
    crash), so it must stay stable across releases. *)

val route : shards:int -> string -> int
(** [route ~shards key] maps a routing key (client name, location,
    contract id) to its owning shard: FNV-1a/32 of the key, mod
    [shards]. Total — every key maps to exactly one shard in
    [\[0, shards)] — and deterministic across runs and OCaml versions.
    Raises [Invalid_argument] when [shards < 1]. *)

type target = Shard of int | Broadcast

val target : shards:int -> request -> target
(** Where a request goes: session-scoped requests ([Open] / [Close] /
    [Serve] / [Run]) to [Shard (route ~shards client)]; repository
    mutations and [Set_policy] to every shard ([Broadcast]) — each
    shard replicates the repository, which is what keeps per-shard
    serves equal to the unsharded oracle. *)

(** {1 The cold oracle} *)

module Oracle : sig
  val serve :
    ?level:Compliance.level ->
    Network.repo ->
    client:string * Hexpr.t ->
    Index.verdict
  (** What a from-scratch planner answers on this repository at this
      admission level (default [Strict]): the first [Planner.enumerate]d
      plan whose verdict is [Ok], with no broker cache involved. The
      broker's invalidation contract promises [Serve] at level [L]
      always equals this at level [L] on the current repository — the
      property test replays arbitrary interleavings against it, per
      level. *)
end

val verdict_equal : Index.verdict -> Index.verdict -> bool
(** Byte-identity of verdicts ([Planner.pp_report]-rendered). *)

val pp_request : request Fmt.t
val pp_reject : reject Fmt.t
val pp_outcome : outcome Fmt.t
val pp_response : response Fmt.t
val pp_stats : stats Fmt.t
