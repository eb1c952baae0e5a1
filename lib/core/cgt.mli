(** Code generation trees (CGTs).

    A CGT is a subgraph of the grammar graph, represented as the set of
    grammar-graph edges it uses plus any isolated nodes (a zero-length
    grammar path contributes a node but no edge). Candidate CGTs arise by
    merging grammar paths — merging fuses shared nodes and edges, which is
    exactly set union here.

    A CGT is {e well-formed} when (i) it is a tree: every used node has at
    most one incoming used edge and all nodes are reachable from a single
    root; and (ii) it is {e grammar-valid}: each node's outgoing used edges
    belong to a single production (one "or"-alternative per nonterminal,
    one production per head API). Its size is the number of API nodes it
    covers — the quantity both engines minimize. *)

type t

val empty : t
val is_empty : t -> bool
val of_paths : Dggt_grammar.Ggraph.t -> Dggt_grammar.Gpath.t list -> t
val merge : t -> t -> t
val merge_path : t -> Dggt_grammar.Gpath.t -> t
val edge_ids : t -> int list
val edge_count : t -> int
val mem_edge : t -> int -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val api_size : Dggt_grammar.Ggraph.t -> t -> int
(** Number of distinct API nodes covered. *)

(** {2 Well-formedness}

    All the checks below are one pass over the CGT's edges: each node's
    parent and outgoing production are recorded, and the pass stops at
    the first node with a second parent or a second production. With
    every in-degree at most 1, [|E| = |V| - 1] means a single root, and
    the CGT is then a tree unless a parent chain loops. *)

type scratch
(** Arrays indexed by grammar node id, stamped per check so they are
    never cleared. A scratch belongs to one walk (one synthesis run): it
    is mutable and must not be shared between concurrent runs. *)

val scratch : Dggt_grammar.Ggraph.t -> scratch

val check : scratch -> t -> int option
(** [check (scratch g) t] is [Some (api_size g t)] when
    [well_formed g t], [None] otherwise: the candidate check of both
    synthesis engines. *)

val is_tree : Dggt_grammar.Ggraph.t -> t -> bool
val is_grammar_valid : Dggt_grammar.Ggraph.t -> t -> bool
val well_formed : Dggt_grammar.Ggraph.t -> t -> bool
(** [is_tree && is_grammar_valid]. The empty CGT is well-formed. *)

val root : Dggt_grammar.Ggraph.t -> t -> int option
(** The unique node without an incoming edge, when the CGT is a nonempty
    tree; [None] otherwise. *)

val pp : Dggt_grammar.Ggraph.t -> Format.formatter -> t -> unit
