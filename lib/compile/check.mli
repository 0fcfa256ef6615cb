(** Table-driven pair analyses: the compiled backends for
    [Product.survey] and [Product.compliant].

    Both run the exploration kernel {!Core.Explore} on table pairs, the
    same kernel [Product] runs on contract pairs, with a step that
    follows [Product.final_reason]'s probe order and
    [Compliance.sync_successors]' successor order. The survey runs on
    {e unminimized} lowered tables, whose states are the contracts'
    own, so its verdicts (counts, flags and the rendered
    counterexample) are byte-identical to the interpreted survey. The
    boolean check runs on {e minimized} tables: minimization preserves
    it (see {!Minimize}), and pair exploration shrinks quadratically.

    Both return [None] when the dense pair space would exceed the
    allocation guard — callers fall back to the interpreted path, never
    to a wrong verdict. *)

val survey :
  Table.t ->
  Table.t ->
  c1:Core.Contract.t ->
  c2:Core.Contract.t ->
  Core.Product.survey option
(** [survey l1 l2 ~c1 ~c2] with [l1 = lower c1], [l2 = lower c2]. The
    root contracts are only consulted to rebuild the (short)
    counterexample path: the kernel's symbol path is replayed on them
    to recover the stuck contract pair. *)

val product_compliant : Table.t -> Table.t -> bool option
(** Language emptiness of the product (Theorem 1) on minimized
    tables: the kernel's early-exit pass. *)
