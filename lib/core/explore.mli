(** The one exploration of a product [H₁ ⊗ H₂] (paper Definition 5):
    the reachability pass Theorem 1 decides compliance with, and the
    measures every loosened {!Compliance.level} is decided on.

    The pass is written once, over a small {!STEP} signature, and
    instantiated per representation: on hash-consed contract pairs in
    {!Product}, and on dense table pairs in [Compile.Check]. Both
    instances therefore visit states in the same order, count the same
    stuck states and find the same shortest counterexample by
    construction, as long as their steps agree. *)

module type STEP = sig
  type ctx
  (** The two parties whose product is explored. *)

  type state
  type label  (** what a synchronisation is tagged with *)

  type reason  (** why a state is stuck *)

  type index
  (** The visited store, mapping a reached state to its discovery
      number (the root is [0]). *)

  val index : ctx -> index
  (** A fresh, empty store. *)

  val find : index -> state -> int
  (** The state's discovery number, [-1] when it has not been reached. *)

  val add : index -> state -> int -> unit

  val root : ctx -> state

  val final_reason : ctx -> state -> reason option
  (** The state-local finality predicate: [Some r] iff the state is
      stuck. Stuck states are never expanded. *)

  val client_terminated : ctx -> state -> bool

  val iter_successors : ctx -> state -> (label -> state -> unit) -> unit
  (** The synchronised successors, in [Compliance.sync_successors]
      order — the order fixes discovery numbers and hence which
      shortest counterexample is reported. *)
end

module Make (S : STEP) : sig
  type stuck = {
    path : S.label list;  (** synchronisations from the root, in order *)
    state : S.state;
    reason : S.reason;
  }

  type survey = {
    stuck_states : int;  (** distinct reachable stuck states *)
    successful : bool;
        (** a client-terminated state is reachable, or the reachable
            product has a cycle (a live loop: stuck states have no
            successors) *)
    first_stuck : stuck option;
        (** the first stuck state in breadth-first order, hence one at
            the end of a shortest path *)
  }

  val survey : S.ctx -> survey
  (** The whole breadth-first pass, then the three-colour cycle walk
      when no client-terminated state was reached. *)

  val first_stuck : S.ctx -> stuck option
  (** The same pass, stopped at the first stuck state: [None] iff the
      product's language is empty (Theorem 1). Agrees with
      [(survey ctx).first_stuck]. *)
end
