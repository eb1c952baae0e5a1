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
    [(grammar node, production)] pairs of its edges; the generator keeps a
    node -> production multiset of the paths chosen so far and checks a
    candidate against it in O(|path|). *)

val combos :
  ?budget:Dggt_util.Budget.t ->
  ?visits:int ref ->
  Dggt_grammar.Ggraph.t ->
  enabled:bool ->
  Edge2path.epath list list ->
  Edge2path.epath list list * int
(** [combos g ~enabled groups] enumerates one-path-per-group combinations,
    skipping (when [enabled]) every combination containing a conflict pair.
    Returns the surviving combinations and the total combination count
    before pruning (the product of group sizes, saturating). Signatures
    are read off [g] once per call, for the given paths only, and only
    when [enabled]. The budget is ticked, and [visits] incremented, once
    per candidate path tried at each position. *)
