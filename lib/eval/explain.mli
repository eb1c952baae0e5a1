(** The [dggt explain] narrative: run one query with stage tracing on and
    render the pipeline's decisions stage by stage — the dependency parse,
    what pruning dropped, each word's candidate APIs with scores, per-edge
    grammar path counts, relocation variants, DGG [min_size] updates, and
    the final linearization. The CLI and the e2e test share this renderer
    so what's tested is exactly what users see. *)

val run :
  Format.formatter ->
  ?timeout_s:float ->
  ?algorithm:Dggt_core.Engine.algorithm ->
  ?top:int ->
  Dggt_domains.Domain.t ->
  string ->
  Dggt_core.Engine.outcome
(** Synthesize [query] against the domain with a fresh trace sink, print
    the narrative, and return the outcome (the caller decides exit codes).
    With [top > 1] (DGGT engine, successful synthesis) a rank-narration
    section follows: the query runs as a [Ranked top] request (the
    {!Dggt_core.Semiring.Top_k} chart, same codelet and trace) and the
    n-best candidates the chart kept are listed, head first. Defaults: 20 s
    timeout, DGGT engine, [top = 1] (no rank section). *)
