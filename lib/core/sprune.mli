(** Size-based pruning (paper §V-C, "other optimizations").

    For a combination c = \{p_1, ..., p_n\} of grammar paths, before any
    merging happens its merged size is bounded by

    {v |union of the paths' APIs|  <=  size(c)  <=  sum(size(p_i)) - (n-1) v}

    (the lower bound when every shared API fuses, the upper when only the
    common root does — the bound presumes the combination's paths share
    their governor API, which holds for the sibling-edge combinations DGGT
    builds). With per-path extra weight [extra] (the dependent
    subtree's contribution in DGGT), both bounds shift by the same sum, so
    the bound stays sound. A combination whose lower bound exceeds the
    smallest upper bound among all combinations cannot be minimal and is
    dropped without building its prefix tree.

    The lower bound's distinct-API count scans each path's API names
    against the names before it; no set is built per combination. *)

type bounds = { lo : int; hi : int }

val bounds_of :
  extra:(Edge2path.epath -> int) -> Edge2path.epath list -> bounds
(** Bounds for one combination. [extra p] is added to both bounds (0 for
    the plain HISyn setting; the dependent's [min_size - 1] in DGGT). *)

val prune :
  enabled:bool ->
  extra:(Edge2path.epath -> int) ->
  Edge2path.epath list list ->
  Edge2path.epath list list
(** Keep only combinations whose lower bound does not exceed the global
    minimum upper bound. Order is preserved. When [enabled] is false the
    input is returned unchanged. *)
