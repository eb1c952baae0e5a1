(* The revisions an as-you-type client sends for one query: the text cut
   after each word (the original bytes, so quoted runs of spaces
   survive), the whole text, then the whole text with a full stop — a
   punctuation-only edit. "a  b" gives ["a"; "a  b"; "a  b."]. *)
let revisions text =
  let n = String.length text in
  let cuts =
    List.filter_map
      (fun j ->
        if text.[j] <> ' ' && j + 1 < n && text.[j + 1] = ' ' then
          Some (String.sub text 0 (j + 1))
        else None)
      (List.init n Fun.id)
  in
  cuts @ [ text; text ^ "." ]
