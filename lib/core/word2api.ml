open Dggt_nlu

type candidate = { api : string; score : float }

type t = {
  by_node : (int * candidate list) list; (* in token order *)
}

let name_len_penalty api = 0.001 *. float_of_int (String.length api)

(* A hit on the API's own name subtokens is stronger evidence than a hit
   on its description prose ("operator" names binaryOperator; it merely
   appears in hasLHS's description). *)
let desc_factor = 0.92

(* The keywords [Similarity.word_score w k] can score above 0, tier by
   tier (DESIGN.md, "WordToAPI"), possibly repeated:
   - exact: [k = w];
   - stems: [stem k = stem w];
   - synonyms: [k] in [related w];
   - synonym of stem / stem of synonym: [k] in [related (stem w)],
     [stem k] in [related w], or [stem k = stem r] for [r] in [related w];
   - typo: [|w|, |k| >= 5], same first letter, and a length gap small
     enough that Levenshtein similarity can still reach the threshold
     (the distance is at least the gap; the float test mirrors
     [Levenshtein.similarity] so rounding cannot exclude a match). *)
let candidate_keywords doc w =
  let exact k = Option.to_list (Apidoc.keyword_id doc k) in
  let with_stem = Apidoc.keywords_with_stem doc in
  let sw = Porter.stem w in
  let typo =
    let n = String.length w in
    if n < Similarity.typo_min_length then []
    else
      let in_band len =
        1. -. (float_of_int (abs (n - len)) /. float_of_int (max n len))
        >= Similarity.typo_threshold
      in
      List.init
        (max 0 (Apidoc.max_keyword_length doc - Similarity.typo_min_length + 1))
        (fun i -> Similarity.typo_min_length + i)
      |> List.concat_map (fun len ->
             if in_band len then Apidoc.typo_bucket doc w.[0] len else [])
  in
  List.concat
    (exact w :: with_stem sw :: typo
    :: List.concat_map
         (fun r -> [ exact r; with_stem r; with_stem (Porter.stem r) ])
         (Synonyms.related w)
    @ List.map exact (Synonyms.related sw))

(* Per-entry score of one word, by entry position: the best name-keyword
   score against the description factor times the best description-keyword
   score, 0 for entries no candidate keyword reaches. Scaling each keyword's
   score by [desc_factor] before taking the max gives the same float as
   scaling the max (rounding is monotone). *)
let score_entries ~desc_only ~kw_scored ~touched doc lemma =
  let scores = Float.Array.make (Apidoc.size doc) 0.0 in
  let raise_to s users =
    Array.iter
      (fun e ->
        let cur = Float.Array.get scores e in
        if s > cur then begin
          if cur = 0.0 then incr touched;
          Float.Array.set scores e s
        end)
      users
  in
  List.iter
    (fun id ->
      incr kw_scored;
      let s = Similarity.word_score lemma (Apidoc.keyword doc id) in
      if s > 0.0 then begin
        if not desc_only then raise_to s (Apidoc.name_users doc id);
        raise_to (desc_factor *. s) (Apidoc.desc_users doc id)
      end)
    (List.sort_uniq Int.compare (candidate_keywords doc lemma));
  scores

let build ?(top_k = 4) ?(threshold = Similarity.min_score) ?lookup ?trace doc
    (g : Depgraph.t) =
  let lit_apis = Apidoc.literal_apis doc in
  let num_apis = Apidoc.number_apis doc in
  let kw_scored = ref 0 and touched = ref 0 in
  let compute (n : Depgraph.node) =
    match n.pos with
    | Pos.LIT | Pos.CD ->
        (* literal tokens map to the literal-bearing APIs; numerals
           prefer number APIs when the document distinguishes them *)
        let pool =
          match n.pos with
          | Pos.CD when num_apis <> [] -> num_apis
          | _ -> lit_apis
        in
        List.map (fun api -> { api; score = 1.0 -. name_len_penalty api }) pool
    | _ ->
        let admissible (e : Apidoc.entry) =
          match e.Apidoc.pos_pref with
          | Apidoc.Any -> true
          | Apidoc.Verbish -> not (Pos.is_noun n.pos)
          | Apidoc.Nounish -> not (Pos.is_verb n.pos)
        in
        (* a quantifying determiner matching a fragment of a camelCase
           name ("all" in isCatchAll) is coincidence; determiners carry
           meaning only through descriptions *)
        let desc_only = n.pos = Pos.DT in
        let scores = score_entries ~desc_only ~kw_scored ~touched doc n.lemma in
        (* document order, so the stable sort breaks exact ties as before *)
        let scored = ref [] in
        for i = Apidoc.size doc - 1 downto 0 do
          let e = Apidoc.entry_at doc i in
          if admissible e then begin
            let s = Float.Array.get scores i in
            let s = if s > 0.0 then s -. name_len_penalty e.Apidoc.api else 0.0 in
            if s >= threshold then scored := { api = e.Apidoc.api; score = s } :: !scored
          end
        done;
        let sorted =
          List.sort
            (fun a b ->
              match compare b.score a.score with
              | 0 -> compare a.api b.api
              | c -> c)
            !scored
        in
        Dggt_util.Listutil.take top_k sorted
  in
  let cands_of (n : Depgraph.node) =
    match lookup with
    | None -> compute n
    | Some f -> f ~lemma:n.Depgraph.lemma ~pos:n.Depgraph.pos (fun () -> compute n)
  in
  let by_node = List.map (fun (n : Depgraph.node) -> (n.Depgraph.id, cands_of n)) g.Depgraph.nodes in
  Dggt_obs.Trace.int trace "keywords_scored" !kw_scored;
  Dggt_obs.Trace.int trace "entries_touched" !touched;
  { by_node }

let candidates t id =
  match List.assoc_opt id t.by_node with Some cs -> cs | None -> []

let score t id api =
  match List.find_opt (fun c -> c.api = api) (candidates t id) with
  | Some c -> c.score
  | None -> 0.0

let assignment_score t asg =
  List.fold_left (fun acc (id, api) -> acc +. score t id api) 0.0 asg

let apis t id = List.map (fun c -> c.api) (candidates t id)
let has_candidates t id = candidates t id <> []

let uncovered t =
  List.filter_map (fun (id, cs) -> if cs = [] then Some id else None) t.by_node

let restrict_list t node apis =
  {
    by_node =
      List.map
        (fun (id, cs) ->
          if id = node then (id, List.filter (fun c -> List.mem c.api apis) cs)
          else (id, cs))
        t.by_node;
  }

let merge_modifier t ~head ~modifier apis =
  let mod_score api =
    match List.find_opt (fun c -> c.api = api) (candidates t modifier) with
    | Some c -> c.score
    | None -> 0.0
  in
  {
    by_node =
      List.map
        (fun (id, cs) ->
          if id = head then
            ( id,
              List.filter_map
                (fun c ->
                  if List.mem c.api apis then
                    Some { c with score = c.score +. mod_score c.api }
                  else None)
                cs
              |> List.sort (fun a b ->
                     match compare b.score a.score with
                     | 0 -> compare a.api b.api
                     | c -> c) )
          else (id, cs))
        t.by_node;
  }

let cap t k =
  { by_node = List.map (fun (id, cs) -> (id, Dggt_util.Listutil.take k cs)) t.by_node }

let restrict t node api =
  {
    by_node =
      List.map
        (fun (id, cs) ->
          if id = node then
            (id, List.filter (fun c -> c.api = api) cs)
          else (id, cs))
        t.by_node;
  }

let pp fmt t =
  List.iter
    (fun (id, cs) ->
      Format.fprintf fmt "%d -> {%s}@ " id
        (String.concat ", "
           (List.map (fun c -> Printf.sprintf "%s:%.2f" c.api c.score) cs)))
    t.by_node
