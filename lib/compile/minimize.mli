(** Hopcroft-style DFA minimization of lowered contract tables.

    Contract LTSs are deterministic per (direction, channel) and
    direction-homogeneous per state, so Hopcroft's partition
    refinement over the completed automaton (a virtual sink absorbs
    the missing transitions) computes the coarsest kind-respecting
    bisimulation. The quotient is renumbered canonically — alphabet
    sorted, states in BFS order over sorted symbols — so any two
    language-equivalent contracts minimize to byte-identical tables
    ({!Table.encode}) and can share one table in memory.

    Soundness boundary: minimization preserves the {e boolean} verdict
    the backend computes on minimized tables (product-language
    emptiness, which depends only on per-state kind and symbol sets,
    constant on blocks) but {e not} the
    stuck-state {e count} of [Product.survey] — merging equivalent
    states can merge distinct stuck configurations. Surveys therefore
    always run on the unminimized lowered table. *)

val minimize : Table.t -> Table.t
(** Increments [compile.minimizations],
    [compile.minimize.states_before] and
    [compile.minimize.states_after]. Idempotent: minimizing a minimized
    table returns a byte-identical encoding. *)

val bisimilar : Table.t -> Table.t -> bool
(** Do the two tables accept the same behaviour (kind-respecting
    bisimilarity from the roots, symbols matched by name)? Since both
    are deterministic this is exactly language equality; the
    minimization-preserves-language property tests are built on it. *)
