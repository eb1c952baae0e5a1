(** API reference documents (input item (ii) of the pipeline).

    WordToAPI matches query words against the {e keywords} of each API:
    the subtokens of the API's name ("hasOperatorName" -> has, operator,
    name) plus the content words of its prose description. Keyword lists
    are precomputed at document construction, together with an immutable
    keyword index (see {!section-index}), so the per-query matching loop
    scores only the keywords a word can match instead of every entry's. *)

type lit_kind = Lit_none | Lit_str | Lit_num

type pos_pref = Any | Verbish | Nounish
(** Some APIs only make sense for verb-form mentions (commands,
    condition predicates) or noun-form mentions (entities, positions);
    WordToAPI filters candidates by the query word's part of speech. *)

type entry = {
  api : string;             (** canonical API name as used in the grammar *)
  description : string;     (** prose, as in the reference manual *)
  name_keywords : string list; (** the API name's subtokens *)
  keywords : string list;   (** description lemmas; deduplicated *)
  lit : lit_kind;           (** which literal payloads the API absorbs *)
  pos_pref : pos_pref;
}

type t

val make :
  ?literal_apis:string list ->
  ?number_apis:string list ->
  ?verb_apis:string list ->
  ?noun_apis:string list ->
  (string * string) list ->
  t
(** [make pairs] builds a document from (api, description) pairs, deriving
    keywords from name subtokens and description content words.
    [literal_apis] marks APIs accepting quoted-string payloads,
    [number_apis] those accepting numeric payloads. *)

val make_entries : entry list -> t
(** Use pre-built entries (for domains that curate keywords by hand).
    Every constructor ends here: it builds the keyword index and the
    per-document constants below eagerly, so a document shared by
    several domains (server workers) is immutable and needs no lock. *)

val entries : t -> entry list
val find : t -> string -> entry option
val keywords_of : t -> string -> string list
(** [] for unknown APIs. *)

val literal_apis : t -> string list
(** APIs with [lit = Lit_str], in document order. *)

val number_apis : t -> string list
(** APIs with [lit = Lit_num], in document order. *)

val has_noun_apis : t -> bool
(** Whether any entry has [pos_pref = Nounish]. *)

val size : t -> int

val entry_at : t -> int -> entry
(** The entry at a position, [0 <= i < size t], in document order. *)

(** {1:index Keyword index}

    Every distinct keyword of the document, name and description alike,
    has a dense id. The lookups below are what {!Word2api} needs to
    enumerate the keywords a query word can score above 0 against; the
    postings map a keyword back to the entries (by position) using it. *)

val keyword_count : t -> int
val keyword : t -> int -> string

val keyword_id : t -> string -> int option
(** The id of a keyword, if the document has it. *)

val keywords_with_stem : t -> string -> int list
(** Ids of the keywords whose Porter stem is the given string. *)

val typo_bucket : t -> char -> int -> int list
(** [typo_bucket t c len]: ids of the keywords of exactly [len]
    characters starting with [c]. Only keywords of at least
    {!Dggt_nlu.Similarity.typo_min_length} characters are bucketed: the
    edit-distance tier never scores shorter ones. *)

val max_keyword_length : t -> int

val name_users : t -> int -> int array
(** Positions of the entries with the keyword among their
    [name_keywords], ascending (an entry listing it twice appears
    twice). *)

val desc_users : t -> int -> int array
(** Positions of the entries with the keyword among their (description)
    [keywords], ascending, likewise. *)

val derive_keywords : api:string -> description:string -> string list
(** The description-keyword extraction rule, exposed for tests: content
    words minus stopwords/function words, lemmatized, deduplicated, order
    preserved. Name subtokens are kept separately in [name_keywords]. *)
