open Dggt_util
open Dggt_nlu

type lit_kind = Lit_none | Lit_str | Lit_num

type pos_pref = Any | Verbish | Nounish

type entry = {
  api : string;
  description : string;
  name_keywords : string list;
  keywords : string list;
  lit : lit_kind;
  pos_pref : pos_pref;
}

(* The keyword index WordToAPI walks instead of scoring every entry.
   Keywords (name and description alike) get dense ids; postings hold
   entry positions in document order. *)
type index = {
  kw : string array;                      (* id -> keyword *)
  kw_id : (string, int) Hashtbl.t;
  by_stem : (string, int list) Hashtbl.t;
  by_shape : (char * int, int list) Hashtbl.t; (* (first letter, length); length >= 5 *)
  max_len : int;                          (* longest keyword *)
  name_users : int array array;           (* id -> entries naming it *)
  desc_users : int array array;           (* id -> entries describing with it *)
}

type t = {
  entries : entry list;
  entry_arr : entry array;
  by_api : (string, entry) Hashtbl.t;
  index : index;
  literal_apis : string list;
  number_apis : string list;
  has_noun_apis : bool;
}

let function_words =
  [ "the"; "a"; "an"; "of"; "to"; "in"; "on"; "at"; "by"; "for"; "with";
    "and"; "or"; "that"; "which"; "this"; "it"; "its"; "is"; "are"; "be";
    "as"; "into"; "from"; "when"; "where"; "whether"; "can"; "may"; "will";
    "given"; "etc"; "eg"; "ie"; "also"; "used"; "use"; "uses"; "any";
    "some"; "one"; "two"; "such"; "other"; "no"; "only"; "over";
    "under"; "whose"; "than"; "then"; "them"; "these"; "those"; "but" ]

let derive_keywords ~api ~description =
  ignore api;
  let desc_words =
    Tokenizer.tokenize description
    |> List.filter_map (fun (tk : Token.t) ->
           match tk.Token.kind with
           | Token.Word ->
               let w = Token.lower tk in
               if List.mem w function_words || String.length w <= 1 then None
               else
                 (* lemmatize with a nominal-first guess; the verb lemma is
                    added too when it differs, so "matches" indexes both
                    "match" (v) and "match" (n) equivalently *)
                 Some (Lemmatizer.lemma_noun w)
           | _ -> None)
  in
  let verb_lemmas =
    List.filter_map
      (fun w ->
        let v = Lemmatizer.lemma_verb w in
        if v <> w then Some v else None)
      desc_words
  in
  Listutil.uniq (desc_words @ verb_lemmas)

(* Conventional identifier abbreviations, expanded so that "variables"
   finds varDecl and "expressions" finds callExpr by name. *)
let abbreviations =
  [ ("var", "variable"); ("decl", "declaration"); ("expr", "expression");
    ("stmt", "statement"); ("parm", "parameter"); ("ref", "reference");
    ("init", "initializer"); ("arg", "argument"); ("ptr", "pointer");
    ("num", "number"); ("func", "function"); ("str", "string");
    ("record", "class") ]

let name_keywords_of api =
  let subtokens =
    (* single-letter fragments ("c" in isExternC) are noise *)
    List.filter (fun t -> String.length t > 1) (Strutil.split_camel api)
  in
  let lemmas = List.map Lemmatizer.lemma_noun subtokens in
  let verb_lemmas = List.map Lemmatizer.lemma_verb subtokens in
  let expanded =
    List.filter_map (fun t -> List.assoc_opt t abbreviations) subtokens
  in
  Listutil.uniq (subtokens @ lemmas @ verb_lemmas @ expanded)

let entry_of ?(literal_apis = []) ?(number_apis = []) ?(verb_apis = [])
    ?(noun_apis = []) (api, description) =
  let lit =
    if List.mem api number_apis then Lit_num
    else if List.mem api literal_apis then Lit_str
    else Lit_none
  in
  let pos_pref =
    if List.mem api verb_apis then Verbish
    else if List.mem api noun_apis then Nounish
    else Any
  in
  {
    api;
    description;
    name_keywords = name_keywords_of api;
    keywords = derive_keywords ~api ~description;
    lit;
    pos_pref;
  }

let build_index entry_arr =
  let kw_id = Hashtbl.create 1024 and kws = ref [] in
  let id_of k =
    match Hashtbl.find_opt kw_id k with
    | Some i -> i
    | None ->
        let i = Hashtbl.length kw_id in
        Hashtbl.add kw_id k i;
        kws := k :: !kws;
        i
  in
  (* bindings are prepended: filling in descending order leaves every
     list ascending *)
  let push tbl key v =
    Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
  in
  let name_tbl = Hashtbl.create 1024 and desc_tbl = Hashtbl.create 1024 in
  for e = Array.length entry_arr - 1 downto 0 do
    List.iter (fun k -> push name_tbl (id_of k) e) entry_arr.(e).name_keywords;
    List.iter (fun k -> push desc_tbl (id_of k) e) entry_arr.(e).keywords
  done;
  let kw = Array.of_list (List.rev !kws) in
  let by_stem = Hashtbl.create 1024 and by_shape = Hashtbl.create 256 in
  for id = Array.length kw - 1 downto 0 do
    push by_stem (Porter.stem kw.(id)) id;
    let len = String.length kw.(id) in
    if len >= Similarity.typo_min_length then push by_shape (kw.(id).[0], len) id
  done;
  let users tbl =
    Array.init (Array.length kw) (fun id ->
        Array.of_list (Option.value (Hashtbl.find_opt tbl id) ~default:[]))
  in
  {
    kw;
    kw_id;
    by_stem;
    by_shape;
    max_len = Array.fold_left (fun m k -> max m (String.length k)) 0 kw;
    name_users = users name_tbl;
    desc_users = users desc_tbl;
  }

let make_entries entries =
  let by_api = Hashtbl.create (List.length entries) in
  List.iter (fun e -> Hashtbl.replace by_api e.api e) entries;
  let entry_arr = Array.of_list entries in
  let apis_with lit =
    List.filter_map (fun e -> if e.lit = lit then Some e.api else None) entries
  in
  {
    entries;
    entry_arr;
    by_api;
    (* built eagerly: an immutable index needs no lock when server worker
       domains share the document, where a [Lazy.force] race would raise *)
    index = build_index entry_arr;
    literal_apis = apis_with Lit_str;
    number_apis = apis_with Lit_num;
    has_noun_apis = List.exists (fun e -> e.pos_pref = Nounish) entries;
  }

let make ?(literal_apis = []) ?(number_apis = []) ?(verb_apis = [])
    ?(noun_apis = []) pairs =
  make_entries (List.map (entry_of ~literal_apis ~number_apis ~verb_apis ~noun_apis) pairs)

let entries t = t.entries
let find t api = Hashtbl.find_opt t.by_api api

let keywords_of t api =
  match find t api with Some e -> e.keywords | None -> []

let literal_apis t = t.literal_apis
let number_apis t = t.number_apis
let has_noun_apis t = t.has_noun_apis
let size t = Array.length t.entry_arr
let entry_at t i = t.entry_arr.(i)

let keyword_count t = Array.length t.index.kw
let keyword t id = t.index.kw.(id)
let keyword_id t k = Hashtbl.find_opt t.index.kw_id k

let keywords_with_stem t stem =
  Option.value (Hashtbl.find_opt t.index.by_stem stem) ~default:[]

let typo_bucket t c len =
  Option.value (Hashtbl.find_opt t.index.by_shape (c, len)) ~default:[]

let max_keyword_length t = t.index.max_len
let name_users t id = t.index.name_users.(id)
let desc_users t id = t.index.desc_users.(id)
