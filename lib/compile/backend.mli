(** Wiring: compile contracts on demand, share canonical minimized
    tables, and install the compiled paths behind [Product.survey] and
    [Product.compliant].

    [core] cannot depend on this library (it would be a cycle), so
    those entry points dispatch through a backend record that
    executables install once at startup via {!install}. Every backend
    function returns an option: [None] means "fall back to the
    interpreted path" — the compiled engine can decline (open
    contracts, oversized pair spaces) but can never force a wrong
    verdict.

    Compiled tables are memoized per contract in a [Repr.Memo] named
    [compile.tables] (so [Repr.Cache.clear_all] and per-contract
    [invalidate] behave exactly like every other derived-result
    cache), and minimized tables are interned by their canonical
    encoding: equivalent contracts share one table in memory
    ([compile.minimize.shared] counts the coalesces). *)

val install : unit -> unit
(** Install the compiled backend into [Product] and enable it.
    Idempotent; call once at executable startup, before any domains
    are spawned. *)

val set_enabled : bool -> unit
(** Flip the compiled paths at runtime ([--compiled=no], tests and
    benchmarks). Installation is sticky; only dispatch is gated. *)

val enabled : unit -> bool

val get : Core.Contract.t -> (Table.t * Table.t) option
(** [(lowered, minimized)] for a closed contract, via memo or compiler;
    [None] for open contracts. *)

val lower_count : unit -> int
(** Process-wide count of actual lowerings performed (memo hits don't
    count) — lets tests and benchmarks assert "recompiled nothing"
    without scraping metrics. *)
