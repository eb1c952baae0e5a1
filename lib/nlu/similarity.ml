open Dggt_util

let typo_threshold = 0.65
let min_score = 0.5
let typo_min_length = 5

let word_score a b =
  if a = b then 1.0
  else begin
    let sa = Porter.stem a and sb = Porter.stem b in
    if sa = sb then 0.95
    else if Synonyms.share_ring a b then 0.85
    else if
      Synonyms.share_ring sa b || Synonyms.share_ring a sb
      || List.exists (fun syn -> Porter.stem syn = sb) (Synonyms.related a)
    then 0.8
    else if
      String.length a >= typo_min_length
      && String.length b >= typo_min_length
      && a.[0] = b.[0]
    then begin
      (* Typo backoff: transposition-style typos score Levenshtein 2, so a
         6-letter word has similarity 0.67 — the threshold must sit below
         that. Requiring length >= 5 and an equal first letter keeps short
         near-words ("line"/"like") from matching. Scores land in
         [0.55, 0.7], below every semantic tier. *)
      let s = Levenshtein.similarity a b in
      if s >= typo_threshold then
        0.55 +. (0.15 *. (s -. typo_threshold) /. (1.0 -. typo_threshold))
      else 0.0
    end
    else 0.0
  end

let word_score a b =
  let s = word_score a b in
  if s < min_score then 0.0 else s

let best_against w keywords =
  List.fold_left (fun acc k -> Float.max acc (word_score w k)) 0.0 keywords
