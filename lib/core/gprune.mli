(** Grammar-based pruning (paper §V-A).

    Given the candidate paths of a set of sibling dependency edges, two
    paths form a {e conflict pair} when they leave the same grammar node
    through edges of different productions ({!Dggt_grammar.Pathvote}). A
    combination containing a conflict pair can never merge into a
    grammatically valid CGT, so such combinations are pruned {e before}
    they are enumerated: the combination generator extends a partial
    combination only with paths that do not conflict with any already
    chosen one.

    Nothing pairwise is built. Each path carries a signature, the
    [(grammar node, production)] pairs of its edges. The paths of each
    sibling group are the bits of a bitset, and every group after the
    first is indexed by grammar node: the paths touching the node, and per
    production the paths leaving it through that production. Binding a
    path narrows every later group's live set with one AND per signature
    entry, so the search enumerates only compatible candidates (forward
    checking) and abandons a prefix as soon as some later group has none
    left. Candidates are taken in index order, so survivors come out in
    the lexicographic order of a plain product walk. *)

val combos :
  ?budget:Dggt_util.Budget.t ->
  ?visits:int ref ->
  Dggt_grammar.Ggraph.t ->
  enabled:bool ->
  Edge2path.epath list list ->
  Edge2path.epath list list * int
(** [combos g ~enabled groups] enumerates one-path-per-group combinations,
    skipping (when [enabled]) every combination containing a conflict pair.
    Returns the surviving combinations, in the order of the cartesian
    product, and the total combination count before pruning (the product
    of group sizes, saturating). Signatures are read off [g] once per
    call, for the given paths only, and only when [enabled] with two or
    more groups. The budget is ticked, and [visits] incremented, once per
    candidate enumerated at every level: with pruning on, every such
    candidate is compatible with the paths chosen before it. *)
