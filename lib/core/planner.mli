(** Construction of valid plans (paper §5): for a client [H] against a
    repository [R], enumerate the orchestrations [π] binding every
    (transitively reachable) request to a service, and keep those that
    drive executions that are both {e compliant} (per-request, Theorem 1
    via {!Product}) and {e secure} (whole-network, via {!Netcheck}).

    With a valid plan, “switch off any run-time monitor, and live
    happily: nothing bad will happen”. *)

type site = {
  req : Hexpr.req;
  body : Hexpr.t;  (** the client-side body of the [open] *)
  owner : string;  (** location of the expression containing the site *)
}

val sites : Network.repo -> string * Hexpr.t -> site list
(** All request sites reachable from a client: its own [open]s plus
    those of every repository service (any of which the plan might pull
    in). Sites are keyed by request identifier; a service shared by two
    requests contributes its sites once. *)

val repo_sites : Network.repo -> site list
(** The request sites of every repository service, duplicate-free by
    request identifier: the repository's part of {!sites}, for callers
    that check many clients against one repository. *)

val sites_with : site list -> string * Hexpr.t -> site list
(** [sites_with (repo_sites repo) client] is [sites repo client], with
    the repository walked once rather than once per client. *)

val client_sites : string * Hexpr.t -> site list
(** Only the client's own [open]s (nested ones included), duplicate-free
    by request identifier — the sites the orchestration tier
    ([lib/orchestration]) binds to coalitions. *)

type reason =
  | Unserved of int  (** a request that no plan entry covers *)
  | Not_compliant of {
      rid : int;
      loc : string;
      counterexample : Product.counterexample;
    }
  | Insecure of Netcheck.stuck
  | Outside_fragment of { rid : int; loc : string; reason : string }
      (** a projection fell outside the paper's §4 fragment (an
          unguarded [Choice] whose branches communicate differently) *)

type report = { plan : Plan.t; verdict : (Netcheck.stats, reason) result }

val analyze :
  ?cache:Product.survey Repr.Key.Pair_tbl.t ->
  ?universe:Usage.Policy.t list ->
  ?level:Compliance.level ->
  Network.repo ->
  client:string * Hexpr.t ->
  Plan.t ->
  report
(** Validate one plan: per-request compliance first (cheap, local), then
    the global security/progress exploration. [cache] memoises the
    per-pair {!Product.survey} across calls, keyed on the hash-consing
    ids of the projected (client-body, service) contract pair —
    {!valid_plans} shares one over the whole enumeration, requests whose
    bodies project to the same contracts share a single survey, and one
    cached survey answers {e every} admission level. [level] (default
    [Strict]) is threaded to both the per-request compliance check and
    the {!Netcheck} exploration, but only their communication-stuck
    tolerance loosens: the security conditions (security stucks,
    unplanned requests) stay fatal at every level, so a verdict
    admitted at a weaker level can never hide a policy violation.

    [universe] is the policy universe handed to
    {!Netcheck.check_client}; omitted, it defaults to every policy of
    the repository and the client, recomputed on each call. A caller
    analysing many plans of one client against one repository (the
    broker's first-valid search) computes that same list once and passes
    it: sorted by {!Usage.Policy.compare} and duplicate-free, it gives
    the verdict the default would. *)

val enumerate : Network.repo -> client:string * Hexpr.t -> Plan.t list
(** All complete plans for the client: every reachable request bound to
    some repository location (closed under the requests of the services
    chosen). Exponential in the number of requests — intended for
    repository-scale inputs like the paper's. *)

val valid_plans :
  ?all:bool -> Network.repo -> client:string * Hexpr.t -> report list
(** Reports for the enumerated plans. With [all] (default), include
    invalid plans with their failure reason; otherwise only valid ones. *)

val pp_reason : reason Fmt.t
val pp_report : report Fmt.t
