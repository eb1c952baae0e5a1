(* Cross-module property tests on the invariants the algorithms rely on:
   path well-formedness, pruning soundness, CGT size bounds, and engine
   determinism. The fixture is the Figure 4 grammar from test_core. *)

open Dggt_grammar
open Dggt_core
module Nlu = Dggt_nlu

let fig4_bnf =
  {|
cmd        ::= insert ;
insert     ::= INSERT insert_arg ;
insert_arg ::= string pos iter ;
string     ::= STRING ;
pos        ::= position | START ;
position   ::= POSITION pos_arg ;
pos_arg    ::= after | startfrom ;
after      ::= AFTER string ;
startfrom  ::= STARTFROM string ;
iter       ::= iterscope | ALL ;
iterscope  ::= ITERATIONSCOPE scope ;
scope      ::= linescope | DOCSCOPE ;
linescope  ::= LINESCOPE ;
|}

let graph =
  lazy (Ggraph.build (Result.get_ok (Cfg.of_text ~start:"cmd" fig4_bnf)))

let api_names =
  [ "INSERT"; "STRING"; "START"; "POSITION"; "AFTER"; "STARTFROM"; "ALL";
    "ITERATIONSCOPE"; "LINESCOPE"; "DOCSCOPE" ]

let api_pair_gen = QCheck.(pair (oneofl api_names) (oneofl api_names))

(* Every path returned by the search is a well-formed top-down chain:
   endpoints match, consecutive edges link, apis match the API nodes. *)
let prop_path_well_formed =
  QCheck.Test.make ~name:"grammar paths are well-formed chains" ~count:200
    api_pair_gen (fun (a, b) ->
      let g = Lazy.force graph in
      let ps = Gpath.search_between_apis g ~src_api:a ~dst_api:b in
      List.for_all
        (fun (p : Gpath.t) ->
          let n = Array.length p.Gpath.nodes in
          n >= 1
          && Array.length p.Gpath.edges = n - 1
          && Ggraph.node_name g p.Gpath.nodes.(0) = a
          && Ggraph.node_name g p.Gpath.nodes.(n - 1) = b
          && Array.for_all
               (fun i ->
                 let e = Ggraph.edge g p.Gpath.edges.(i) in
                 e.Ggraph.src = p.Gpath.nodes.(i)
                 && e.Ggraph.dst = p.Gpath.nodes.(i + 1))
               (Array.init (n - 1) Fun.id)
          && Gpath.size p
             = Array.length
                 (Array.of_list
                    (List.filter (Ggraph.is_api g) (Array.to_list p.Gpath.nodes))))
        ps)

(* Paths are simple: no node repeats. *)
let prop_path_simple =
  QCheck.Test.make ~name:"grammar paths are simple (no repeated node)" ~count:200
    api_pair_gen (fun (a, b) ->
      let g = Lazy.force graph in
      Gpath.search_between_apis g ~src_api:a ~dst_api:b
      |> List.for_all (fun (p : Gpath.t) ->
             let l = Array.to_list p.Gpath.nodes in
             List.length l = List.length (List.sort_uniq compare l)))

(* The search never returns two identical paths. *)
let prop_path_distinct =
  QCheck.Test.make ~name:"path sets are duplicate-free" ~count:200 api_pair_gen
    (fun (a, b) ->
      let g = Lazy.force graph in
      let ps = Gpath.search_between_apis g ~src_api:a ~dst_api:b in
      let keys = List.map (fun (p : Gpath.t) -> Array.to_list p.Gpath.nodes) ps in
      List.length keys = List.length (List.sort_uniq compare keys))

(* Size-based pruning is sound: the true merged API size of any combination
   lies within the precomputed bounds. *)
(* The paper's size bound presumes sibling paths: they share the governor
   API (DGGT groups combinations by governor, so the precondition always
   holds in the engine). The generator respects it — dropping the shared
   root makes the upper bound unsound, which this suite verified the hard
   way. *)
let random_paths_gen =
  QCheck.Gen.(
    list_size (1 -- 3)
      (oneofl
         [ ("INSERT", "STRING"); ("INSERT", "START"); ("INSERT", "LINESCOPE");
           ("INSERT", "ALL"); ("INSERT", "POSITION"); ("INSERT", "AFTER") ]))

let mk_epath i (p : Gpath.t) =
  {
    Edge2path.id = i;
    label = string_of_int i;
    edge = { Nlu.Depgraph.gov = 0; dep = i + 1; label = Nlu.Dep.Dep };
    gov_api = Some p.Gpath.apis.(0);
    dep_api = p.Gpath.apis.(Array.length p.Gpath.apis - 1);
    path = p;
  }

let prop_sprune_bounds_sound =
  QCheck.Test.make ~name:"size bounds contain the true merged size" ~count:200
    (QCheck.make random_paths_gen) (fun pairs ->
      let g = Lazy.force graph in
      let paths =
        List.concat_map
          (fun (a, b) ->
            match Gpath.search_between_apis g ~src_api:a ~dst_api:b with
            | p :: _ -> [ p ]
            | [] -> [])
          pairs
      in
      paths = []
      ||
      let combo = List.mapi mk_epath paths in
      let b = Sprune.bounds_of ~extra:(fun _ -> 0) combo in
      let merged = Cgt.of_paths g paths in
      let size = Cgt.api_size g merged in
      b.Sprune.lo <= size && size <= b.Sprune.hi)

(* Grammar-based pruning only removes combinations that are guaranteed
   grammar-invalid: every pruned combination, if merged, violates
   one-production-per-node. *)
let prop_gprune_lossless =
  QCheck.Test.make ~name:"grammar pruning removes only invalid combinations"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair
           (oneofl [ ("INSERT", "STRING"); ("INSERT", "START") ])
           (oneofl [ ("INSERT", "LINESCOPE"); ("INSERT", "ALL"); ("INSERT", "POSITION") ])))
    (fun ((a1, b1), (a2, b2)) ->
      let g = Lazy.force graph in
      let ps1 = Gpath.search_between_apis g ~src_api:a1 ~dst_api:b1 in
      let ps2 = Gpath.search_between_apis g ~src_api:a2 ~dst_api:b2 in
      let g1 = List.mapi mk_epath ps1 in
      let g2 = List.mapi (fun i p -> mk_epath (100 + i) p) ps2 in
      g1 = [] || g2 = []
      ||
      let survivors, total = Gprune.combos g ~enabled:true [ g1; g2 ] in
      let all, _ = Gprune.combos g ~enabled:false [ g1; g2 ] in
      let pruned =
        List.filter (fun c -> not (List.mem c survivors)) all
      in
      total = List.length all
      && List.for_all
           (fun combo ->
             let cgt =
               Cgt.of_paths g (List.map (fun (p : Edge2path.epath) -> p.Edge2path.path) combo)
             in
             not (Cgt.is_grammar_valid g cgt))
           pruned)

(* Grammar-based pruning against its oracle, the pairwise conflict table:
   [combos ~enabled:true] must return exactly the [~enabled:false]
   combinations, in the same order, minus every combination holding a
   pair the table lists, and report the same total. Sibling groups are
   drawn from real paths of both built-in graphs. On ASTMatcher some
   candidates are walks through recursive nonterminals (a path to an API,
   continued by a path out of that API), so one candidate can leave the
   same grammar node twice, through one production or through two. *)
type oracle_graph = {
  og : Ggraph.t;
  limits : Gpath.limits;
  govs : int array;  (** API nodes with at least one API below them *)
  walks : bool;      (** draw recursive walks as well as paths *)
  memo : (int * int, Gpath.t list) Hashtbl.t;
}

let apis_below og a =
  List.filter_map
    (fun (_, b) -> if b <> a && Ggraph.distance og a b < max_int then Some b else None)
    (Ggraph.api_nodes og)

let oracle_graph (dom : Dggt_domains.Domain.t) ~walks =
  let og = Lazy.force dom.Dggt_domains.Domain.graph in
  {
    og;
    limits =
      Option.value dom.Dggt_domains.Domain.path_limits ~default:Gpath.default_limits;
    govs =
      Ggraph.api_nodes og
      |> List.filter_map (fun (_, a) -> if apis_below og a <> [] then Some a else None)
      |> Array.of_list;
    walks;
    memo = Hashtbl.create 64;
  }

let te_oracle = lazy (oracle_graph Dggt_domains.Text_editing.domain ~walks:false)
let am_oracle = lazy (oracle_graph Dggt_domains.Astmatcher.domain ~walks:true)

let oracle_paths o a b =
  match Hashtbl.find_opt o.memo (a, b) with
  | Some ps -> ps
  | None ->
      let ps = Gpath.search ~limits:o.limits o.og ~src:a ~dst:b in
      Hashtbl.add o.memo (a, b) ps;
      ps

let pick st l = List.nth l (Random.State.int st (List.length l))

(* A real path from [a] down to some API below it. *)
let draw_step o st a =
  match apis_below o.og a with
  | [] -> None
  | bs -> (
      match oracle_paths o a (pick st bs) with [] -> None | ps -> Some (pick st ps))

(* [p] continued by [q], which starts where [p] ends. *)
let walk (p : Gpath.t) (q : Gpath.t) =
  let tail a = Array.sub a 1 (Array.length a - 1) in
  {
    Gpath.nodes = Array.append p.Gpath.nodes (tail q.Gpath.nodes);
    edges = Array.append p.Gpath.edges q.Gpath.edges;
    apis = Array.append p.Gpath.apis (tail q.Gpath.apis);
  }

(* A real path from [a], or (on a [walks] graph, one draw in three) that
   path continued by a real path further down. *)
let draw_path o st a =
  match draw_step o st a with
  | Some p when o.walks && Random.State.int st 3 = 0 -> (
      match draw_step o st (Gpath.bottom p) with
      | Some q -> Some (walk p q)
      | None -> Some p)
  | r -> r

let number_groups groups =
  let next_id = ref 0 in
  List.map
    (List.map (fun p ->
         let e = mk_epath !next_id p in
         incr next_id;
         e))
    groups

(* 2-4 sibling groups of 1-4 candidates, all below one governor API. *)
let draw_groups o st =
  let a = o.govs.(Random.State.int st (Array.length o.govs)) in
  List.init
    (2 + Random.State.int st 3)
    (fun _ ->
      List.init (1 + Random.State.int st 4) Fun.id
      |> List.filter_map (fun _ -> draw_path o st a))
  |> List.filter (fun g -> g <> [])
  |> number_groups

let ids combos =
  List.map (List.map (fun (p : Edge2path.epath) -> p.Edge2path.id)) combos

let oracle_combos g groups =
  let eps = List.concat groups in
  let tbl =
    Pathvote.conflict_table g
      (List.map (fun (p : Edge2path.epath) -> (p.Edge2path.id, p.Edge2path.path)) eps)
  in
  let all, total = Gprune.combos g ~enabled:false groups in
  let rec clean = function
    | [] -> true
    | p :: rest ->
        List.for_all (fun q -> not (Hashtbl.mem tbl (min p q, max p q))) rest
        && clean rest
  in
  (List.filter clean (ids all), total)

let matches_oracle g groups =
  let survivors, total =
    Gprune.combos g ~enabled:true groups
  in
  (ids survivors, total) = oracle_combos g groups

let prop_gprune_oracle =
  QCheck.Test.make ~name:"grammar pruning = conflict-table oracle (both domains)"
    ~count:300
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (am, seed) ->
      let o = Lazy.force (if am then am_oracle else te_oracle) in
      matches_oracle o.og (draw_groups o (Random.State.make [| seed |])))

(* The case a plain path cannot reach: one candidate leaving a grammar
   node through two different productions. Each such ASTMatcher walk must
   conflict with both of its own segments, whichever group comes first. *)
let test_gprune_oracle_walks () =
  let o = Lazy.force am_oracle in
  let two_prods_at_a_node (p : Gpath.t) =
    let prods = Hashtbl.create 16 in
    Array.iter
      (fun eid ->
        let e = Ggraph.edge o.og eid in
        Hashtbl.replace prods (e.Ggraph.src, e.Ggraph.prod) ())
      p.Gpath.edges;
    let nodes = Hashtbl.to_seq_keys prods |> Seq.map fst |> List.of_seq in
    List.length nodes > List.length (List.sort_uniq compare nodes)
  in
  let seen = ref 0 in
  for seed = 0 to 199 do
    let st = Random.State.make [| seed |] in
    let a = o.govs.(Random.State.int st (Array.length o.govs)) in
    match draw_step o st a with
    | None -> ()
    | Some p -> (
        match draw_step o st (Gpath.bottom p) with
        | Some q when two_prods_at_a_node (walk p q) ->
            incr seen;
            let w = walk p q in
            List.iter
              (fun groups ->
                let groups = number_groups groups in
                let survivors, _ =
                  Gprune.combos o.og ~enabled:true groups
                in
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d: walk vs segment" seed)
                  true (matches_oracle o.og groups);
                Alcotest.(check int)
                  (Printf.sprintf "seed %d: walk conflicts with its segment" seed)
                  0 (List.length survivors))
              [ [ [ w ]; [ p ] ]; [ [ p ]; [ w ] ]; [ [ w ]; [ q ] ]; [ [ q ]; [ w ] ] ]
        | _ -> ())
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some walks leave a node through two productions (%d)" !seen)
    true (!seen > 0)

(* CGT merging is commutative and associative in its effect. *)
let prop_cgt_merge_acI =
  QCheck.Test.make ~name:"CGT merge is commutative/associative/idempotent"
    ~count:200
    (QCheck.make random_paths_gen) (fun pairs ->
      let g = Lazy.force graph in
      let paths =
        List.concat_map
          (fun (a, b) ->
            match Gpath.search_between_apis g ~src_api:a ~dst_api:b with
            | p :: _ -> [ Cgt.of_paths g [ p ] ]
            | [] -> [])
          pairs
      in
      match paths with
      | [ x ] -> Cgt.equal (Cgt.merge x x) x
      | x :: y :: rest ->
          let z = List.fold_left Cgt.merge Cgt.empty rest in
          Cgt.equal (Cgt.merge x y) (Cgt.merge y x)
          && Cgt.equal
               (Cgt.merge (Cgt.merge x y) z)
               (Cgt.merge x (Cgt.merge y z))
          && Cgt.equal (Cgt.merge x x) x
      | [] -> true)

(* Engine determinism: synthesizing twice gives the identical codelet. *)
let te_query_gen =
  QCheck.Gen.(
    map
      (fun (v, o, w) -> Printf.sprintf "%s %s %s" v o w)
      (triple
         (oneofl [ "delete"; "select"; "print"; "count" ])
         (oneofl [ "all numbers"; "every line"; "the first word"; "\"x\"" ])
         (oneofl [ ""; "in every sentence"; "of each line"; "containing \"y\"" ])))

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine is deterministic" ~count:40
    (QCheck.make te_query_gen ~print:Fun.id) (fun q ->
      let dom = Dggt_domains.Text_editing.domain in
      let ses =
        Dggt_domains.Domain.configure dom
          { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some 5.0 }
      in
      let a = Req.plain ses q in
      let b = Req.plain ses q in
      a.Engine.code = b.Engine.code)

(* Streaming delivery changes when candidates arrive, never what they
   are: a ranked run with an [on_candidate] hook must end on exactly the
   list a [Ranked k] request without the hook returns, with interim revisions
   strictly monotone and every emitted rank inside the top-k window. *)
let te_session =
  lazy
    (Dggt_domains.Domain.configure Dggt_domains.Text_editing.domain
       { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some 10.0 })

let am_session =
  lazy
    (Dggt_domains.Domain.configure Dggt_domains.Astmatcher.domain
       { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some 10.0 })

let am_queries =
  lazy
    (Dggt_domains.Astmatcher.domain.Dggt_domains.Domain.queries
    |> List.filter (fun (q : Dggt_domains.Domain.query) ->
           not q.Dggt_domains.Domain.hard)
    |> List.filteri (fun i _ -> i < 4)
    |> List.map (fun (q : Dggt_domains.Domain.query) ->
           q.Dggt_domains.Domain.text))

let stream_case_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun q -> (`Te, q)) te_query_gen);
        (1, map (fun q -> (`Am, q)) (oneofl (Lazy.force am_queries)));
      ])

let prop_stream_equivalent =
  QCheck.Test.make
    ~name:"streamed final candidates are byte-identical to run_ranked"
    ~count:24
    (QCheck.make stream_case_gen ~print:snd)
    (fun (which, q) ->
      let ses =
        Lazy.force (match which with `Te -> te_session | `Am -> am_session)
      in
      let k = 5 in
      let emitted = ref [] in
      let o =
        Engine.respond
          ~on_candidate:(fun c -> emitted := c :: !emitted)
          ses
          { Engine.input = Engine.Text q; mode = Engine.Ranked k }
      in
      let baseline = Req.ranked ~k ses q in
      let emitted = List.rev !emitted in
      let revisions_monotone =
        fst
          (List.fold_left
             (fun (ok, prev) (c : Engine.candidate) ->
               (ok && c.Engine.revision > prev, c.Engine.revision))
             (true, 0) emitted)
      in
      o.Engine.ranked = baseline
      && revisions_monotone
      && List.for_all
           (fun (c : Engine.candidate) ->
             c.Engine.rank >= 1 && c.Engine.rank <= k)
           emitted
      && (baseline = [] || emitted <> []))

(* Tree2expr parses whatever it prints (beyond the unit cases). *)
let expr_gen =
  let open QCheck.Gen in
  let api = oneofl [ "A"; "Bb"; "Ccc"; "hasName"; "STRING" ] in
  let lit = opt (oneofl [ "x"; "14"; ":"; "a b" ]) in
  fix (fun self depth ->
      if depth = 0 then
        map2 (fun api lit -> { Tree2expr.api; lit; args = [] }) api lit
      else
        map3
          (fun api lit args -> { Tree2expr.api; lit; args })
          api lit
          (list_size (0 -- 3) (self (depth - 1))))
    2

let prop_expr_print_parse =
  QCheck.Test.make ~name:"expr print/parse round-trip" ~count:300
    (QCheck.make expr_gen) (fun e ->
      match Tree2expr.parse (Tree2expr.to_string e) with
      | Ok e' -> Tree2expr.equal e e'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* WordToAPI: keyword index = full scan                               *)
(* ------------------------------------------------------------------ *)

(* The full scan WordToAPI ran before the keyword index, kept verbatim as
   the oracle: every word against every entry's keywords. The scan is
   computed once per word; POS classes and thresholds derive from it. *)
let oracle_desc_factor = 0.92
let oracle_penalty api = 0.001 *. float_of_int (String.length api)

let oracle_scan doc lemma =
  List.map
    (fun (e : Apidoc.entry) ->
      ( e,
        Nlu.Similarity.best_against lemma e.Apidoc.name_keywords,
        oracle_desc_factor *. Nlu.Similarity.best_against lemma e.Apidoc.keywords ))
    (Apidoc.entries doc)

let oracle_rank scan ~threshold (pos : Nlu.Pos.t) =
  List.filter_map
    (fun ((e : Apidoc.entry), name_s, desc_s) ->
      let admissible =
        match e.Apidoc.pos_pref with
        | Apidoc.Any -> true
        | Apidoc.Verbish -> not (Nlu.Pos.is_noun pos)
        | Apidoc.Nounish -> not (Nlu.Pos.is_verb pos)
      in
      if not admissible then None
      else
        let name_s = if pos = Nlu.Pos.DT then 0.0 else name_s in
        let s = Float.max name_s desc_s in
        let s = if s > 0.0 then s -. oracle_penalty e.Apidoc.api else 0.0 in
        if s >= threshold then Some { Word2api.api = e.Apidoc.api; score = s }
        else None)
    scan
  |> List.sort (fun (a : Word2api.candidate) (b : Word2api.candidate) ->
         match compare b.Word2api.score a.Word2api.score with
         | 0 -> compare a.Word2api.api b.Word2api.api
         | c -> c)

(* The exact words, the near-misses every tier is built for (inflections,
   typos that keep the first letter), over both built-in vocabularies and
   the synonym lexicon. *)
let w2a_words docs =
  let mutations k =
    let n = String.length k in
    let shift c = if c >= 'a' && c < 'z' then Char.chr (Char.code c + 1) else 'a' in
    [ k; k ^ "s"; k ^ "ing"; k ^ "ed" ]
    @ (if n >= 2 then
         [ String.sub k 0 (n - 1); String.sub k 0 (n - 1) ^ String.make 1 (shift k.[n - 1]) ]
       else [])
    @
    if n >= 4 then
      [ String.init n (fun i -> if i = 1 then k.[2] else if i = 2 then k.[1] else k.[i]) ]
    else []
  in
  let keywords doc =
    List.concat_map
      (fun (e : Apidoc.entry) -> e.Apidoc.name_keywords @ e.Apidoc.keywords)
      (Apidoc.entries doc)
  in
  let words ws =
    List.concat_map mutations ws |> List.filter (fun w -> w <> "") |> List.sort_uniq compare
  in
  (words (List.concat_map keywords docs), words (List.concat Nlu.Synonyms.rings))

let rec find_packs d =
  let packs = Filename.concat d "examples/packs" in
  if Sys.file_exists (Filename.concat packs "astmatcher") then Some packs
  else
    let p = Filename.dirname d in
    if p = d then None else find_packs p

(* Indexed WordToAPI equals the full scan on every (word, POS, threshold)
   over both built-in documents and both example packs' documents: whole
   candidate lists, so score ties and every top_k cut agree too. A seeded
   sample of the words by default; all of them under DGGT_GOLDEN_FULL=1. *)
let test_w2a_index_equivalence () =
  let builtins =
    [ ("te", Lazy.force Dggt_domains.Text_editing.domain.Dggt_domains.Domain.doc);
      ("am", Lazy.force Dggt_domains.Astmatcher.domain.Dggt_domains.Domain.doc) ]
  in
  let packs =
    match find_packs (Sys.getcwd ()) with
    | None -> [] (* not running from a checkout *)
    | Some dir ->
        List.map
          (fun sub ->
            match Dggt_pack.Loader.load (Filename.concat dir sub) with
            | Ok l -> ("pack " ^ sub, Lazy.force l.Dggt_pack.Loader.domain.Dggt_domains.Domain.doc)
            | Error e -> Alcotest.fail (Dggt_pack.Err.to_string e))
          [ "textediting"; "astmatcher" ]
  in
  let doc_words, ring_words = w2a_words (List.map snd builtins) in
  let words =
    if Sys.getenv_opt "DGGT_GOLDEN_FULL" = Some "1" then
      List.sort_uniq compare (doc_words @ ring_words)
    else
      (* the synonym tiers need ring members: sample both halves *)
      let rng = Random.State.make [| 0x1dec5 |] in
      let sample n ws =
        let a = Array.of_list ws in
        List.init n (fun _ -> a.(Random.State.int rng (Array.length a)))
      in
      sample 30 doc_words @ sample 30 ring_words
  in
  let one_word w pos =
    {
      Nlu.Depgraph.nodes = [ { Nlu.Depgraph.id = 0; text = w; lemma = w; pos; lit = None } ];
      edges = [];
      root = 0;
    }
  in
  List.iter
    (fun (name, doc) ->
      List.iter
        (fun w ->
          let scan = oracle_scan doc w in
          List.iter
            (fun pos ->
              List.iter
                (fun threshold ->
                  let w2a = Word2api.build ~top_k:max_int ~threshold doc (one_word w pos) in
                  if Word2api.candidates w2a 0 <> oracle_rank scan ~threshold pos then
                    Alcotest.failf "%s: %S as %s at threshold %g differs from the full scan"
                      name w (Nlu.Pos.to_string pos) threshold)
                [ Nlu.Similarity.min_score; 0.0; 0.9 ])
            Nlu.Pos.[ NN; VB; DT; JJ ])
        words)
    (builtins @ packs)

(* ------------------------------------------------------------------ *)
(* CGT well-formedness: one scan = the definitional checks            *)
(* ------------------------------------------------------------------ *)

(* The checks [Cgt] made before its one-scan rewrite, spelled out from the
   definition and kept here only: in-degree per node, root count, a DFS
   from the root, and a production table per source node. Quadratic, and
   independent of [Cgt] (it reads the edge and lone-node lists the test
   built the CGT from). *)
type cgt_verdict = {
  v_tree : bool;
  v_valid : bool;
  v_api_size : int;
  v_root : int option;
  v_roots : int;     (* nodes without an incoming edge *)
  v_max_indeg : int;
  v_spare : int;     (* |V| - |E| *)
}

let definitional_check g ~edges ~lone =
  let edges = List.sort_uniq compare edges in
  let es = List.map (Ggraph.edge g) edges in
  let nodes =
    List.sort_uniq compare
      (lone @ List.concat_map (fun (e : Ggraph.edge) -> [ e.Ggraph.src; e.Ggraph.dst ]) es)
  in
  let in_degree n = List.length (List.filter (fun (e : Ggraph.edge) -> e.Ggraph.dst = n) es) in
  let roots = List.filter (fun n -> in_degree n = 0) nodes in
  let max_indeg = List.fold_left (fun m n -> max m (in_degree n)) 0 nodes in
  let reaches_all r =
    let seen = Hashtbl.create 16 in
    let rec dfs n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.add seen n ();
        List.iter
          (fun (e : Ggraph.edge) -> if e.Ggraph.src = n then dfs e.Ggraph.dst)
          es
      end
    in
    dfs r;
    List.for_all (Hashtbl.mem seen) nodes
  in
  let tree =
    nodes = []
    || (match roots with [ r ] -> max_indeg <= 1 && reaches_all r | _ -> false)
  in
  let prods = Hashtbl.create 16 in
  List.iter
    (fun (e : Ggraph.edge) ->
      let ps = Option.value (Hashtbl.find_opt prods e.Ggraph.src) ~default:[] in
      if not (List.mem e.Ggraph.prod ps) then
        Hashtbl.replace prods e.Ggraph.src (e.Ggraph.prod :: ps))
    es;
  {
    v_tree = tree;
    v_valid = Hashtbl.fold (fun _ ps ok -> ok && List.length ps <= 1) prods true;
    v_api_size = List.length (List.filter (Ggraph.is_api g) nodes);
    v_root = (if nodes <> [] && tree then Some (List.hd roots) else None);
    v_roots = List.length roots;
    v_max_indeg = max_indeg;
    v_spare = List.length nodes - List.length edges;
  }

let cgt_of ~edges ~lone =
  let one_path nodes edges = { Gpath.nodes; edges; apis = [||] } in
  let t =
    if edges = [] then Cgt.empty
    else Cgt.merge_path Cgt.empty (one_path [||] (Array.of_list edges))
  in
  List.fold_left (fun t n -> Cgt.merge_path t (one_path [| n |] [||])) t lone

(* BFS over edges: the edge ids of a shortest path from [a] to [b]. *)
let shortest_edges g a b =
  let prev = Hashtbl.create 64 in
  let q = Queue.create () in
  Hashtbl.replace prev a None;
  Queue.add a q;
  while (not (Queue.is_empty q)) && not (Hashtbl.mem prev b && b <> a) do
    let n = Queue.pop q in
    List.iter
      (fun (e : Ggraph.edge) ->
        if not (Hashtbl.mem prev e.Ggraph.dst) then begin
          Hashtbl.replace prev e.Ggraph.dst (Some e);
          Queue.add e.Ggraph.dst q
        end)
      (Ggraph.out_edges g n)
  done;
  let rec back n acc =
    match Hashtbl.find_opt prev n with
    | Some (Some (e : Ggraph.edge)) when n <> a -> back e.Ggraph.src (e.Ggraph.id :: acc)
    | _ -> acc
  in
  if Hashtbl.mem prev b then Some (back b []) else None

(* The graph's cycles through recursive nonterminals: for an edge u -> v
   with a way back from v to u, that edge plus the shortest way back. *)
let graph_cycles g =
  Array.to_list (Array.init (Ggraph.edge_count g) (Ggraph.edge g))
  |> List.filter_map (fun (e : Ggraph.edge) ->
         if e.Ggraph.src = e.Ggraph.dst then Some [ e.Ggraph.id ]
         else if Ggraph.distance g e.Ggraph.dst e.Ggraph.src = max_int then None
         else
           Option.map (fun back -> e.Ggraph.id :: back)
             (shortest_edges g e.Ggraph.dst e.Ggraph.src))
  |> List.sort_uniq compare |> Array.of_list

(* A random tree grown from [r]: repeatedly hang an out-edge of a tree
   node whose target is new, usually one of the production the node
   already uses, so that most trees are grammar-valid. *)
let grow_tree g st r =
  let in_tree = Hashtbl.create 16 in
  Hashtbl.replace in_tree r ();
  let nodes = ref [ r ] and edges = ref [] in
  let target = Random.State.int st 12 in
  for _ = 1 to 4 * target do
    if List.length !edges < target then begin
      let n = pick st !nodes in
      let used =
        List.filter_map
          (fun eid ->
            let e = Ggraph.edge g eid in
            if e.Ggraph.src = n then Some e.Ggraph.prod else None)
          !edges
      in
      let fresh =
        List.filter
          (fun (e : Ggraph.edge) -> not (Hashtbl.mem in_tree e.Ggraph.dst))
          (Ggraph.out_edges g n)
      in
      let same = List.filter (fun (e : Ggraph.edge) -> List.mem e.Ggraph.prod used) fresh in
      let choice = if same <> [] && Random.State.int st 4 > 0 then same else fresh in
      if choice <> [] then begin
        let e = pick st choice in
        Hashtbl.replace in_tree e.Ggraph.dst ();
        nodes := e.Ggraph.dst :: !nodes;
        edges := e.Ggraph.id :: !edges
      end
    end
  done;
  (!nodes, !edges)

(* Variants of one grown tree that hit each way a CGT can fail. *)
let cgt_variants g st cycles r =
  let nodes, edges = grow_tree g st r in
  let nn = Ggraph.node_count g in
  let some_node () = Random.State.int st nn in
  let out_of n = Ggraph.out_edges g n in
  let cycle () =
    if Array.length cycles = 0 then []
    else cycles.(Random.State.int st (Array.length cycles))
  in
  let extra_edge keep =
    match List.filter keep (List.concat_map out_of nodes) with
    | [] -> []
    | es -> [ (pick st es).Ggraph.id ]
  in
  let in_tree n = List.mem n nodes in
  let used_prod n =
    List.find_map
      (fun eid ->
        let e = Ggraph.edge g eid in
        if e.Ggraph.src = n then Some e.Ggraph.prod else None)
      edges
  in
  [
    (edges, []);
    (edges, [ pick st nodes ]);
    (edges, [ some_node () ]);
    ([], [ r ]);
    ([], [ r; some_node () ]);
    ([], []);
    ((match edges with [] -> [] | _ :: rest -> rest), []);
    (* a second parent, or a cycle through the tree *)
    (edges @ extra_edge (fun e -> in_tree e.Ggraph.dst), []);
    (* a second parent from outside the tree: |E| = |V| - 1 still holds *)
    ( edges
      @ (match
           List.concat_map
             (fun n ->
               if n = r then []
               else
                 List.filter
                   (fun (e : Ggraph.edge) -> not (in_tree e.Ggraph.src))
                   (Ggraph.in_edges g n))
             nodes
         with
        | [] -> []
        | es -> [ (pick st es).Ggraph.id ]),
      [] );
    (* a source left through a second production *)
    ( edges
      @ extra_edge (fun e ->
            match used_prod e.Ggraph.src with
            | Some p -> p <> e.Ggraph.prod
            | None -> false),
      [] );
    (* one root, in-degree <= 1 everywhere, plus a disjoint cycle *)
    (edges @ cycle (), []);
    (cycle (), []);
    (cycle (), [ r ]);
    (edges @ extra_edge (fun _ -> true) @ extra_edge (fun _ -> true), []);
  ]

(* [Cgt]'s one scan agrees with the definitional checks on random edge
   subsets of both built-in graphs: trees grown from a seeded sample of
   start nodes (three per node under DGGT_GOLDEN_FULL=1), each with variants
   that add lone nodes, drop an edge, add a second parent, a second
   production or a disjoint cycle. One scratch serves the whole sweep, so
   stale stamps from earlier CGTs would show. *)
let test_cgt_scan_oracle () =
  let full = Sys.getenv_opt "DGGT_GOLDEN_FULL" = Some "1" in
  let cases = Hashtbl.create 8 in
  let seen k = Hashtbl.replace cases k (1 + Option.value (Hashtbl.find_opt cases k) ~default:0) in
  List.iter
    (fun (name, (dom : Dggt_domains.Domain.t)) ->
      let g = Lazy.force dom.Dggt_domains.Domain.graph in
      let cycles = graph_cycles g in
      let st = Random.State.make [| 0xc67; Ggraph.node_count g |] in
      let starts =
        if full then List.concat (List.init 3 (fun _ -> List.init (Ggraph.node_count g) Fun.id))
        else List.init 150 (fun _ -> Random.State.int st (Ggraph.node_count g))
      in
      let scratch = Cgt.scratch g in
      List.iter
        (fun r ->
          List.iter
            (fun (edges, lone) ->
              let v = definitional_check g ~edges ~lone in
              let t = cgt_of ~edges ~lone in
              let wf = v.v_tree && v.v_valid in
              let fail what =
                Alcotest.failf "%s: %s differs on edges [%s] lone [%s]" name what
                  (String.concat " " (List.map string_of_int edges))
                  (String.concat " " (List.map string_of_int lone))
              in
              if Cgt.check scratch t <> (if wf then Some v.v_api_size else None) then
                fail "check";
              if Cgt.well_formed g t <> wf then fail "well_formed";
              if Cgt.is_tree g t <> v.v_tree then fail "is_tree";
              if Cgt.is_grammar_valid g t <> v.v_valid then fail "is_grammar_valid";
              if Cgt.api_size g t <> v.v_api_size then fail "api_size";
              if Cgt.root g t <> v.v_root then fail "root";
              seen (if wf then "well-formed" else "rejected");
              if v.v_tree && not v.v_valid then seen "tree, two productions";
              if v.v_roots >= 2 then seen "two roots";
              if v.v_roots = 0 && edges <> [] then seen "no root";
              if v.v_max_indeg >= 2 then seen "second parent";
              if v.v_max_indeg >= 2 && v.v_spare = 1 then seen "second parent, |E| = |V| - 1";
              if v.v_roots = 1 && v.v_max_indeg <= 1 && not v.v_tree then
                seen "one root, cycle";
              if lone <> [] && edges <> [] then seen "edges and lone nodes")
            (cgt_variants g st cycles r))
        starts)
    [ ("te", Dggt_domains.Text_editing.domain); ("am", Dggt_domains.Astmatcher.domain) ];
  List.iter
    (fun k ->
      if not (Hashtbl.mem cases k) then Alcotest.failf "no %s case was generated" k)
    [ "well-formed"; "rejected"; "tree, two productions"; "two roots"; "no root";
      "second parent"; "second parent, |E| = |V| - 1"; "one root, cycle";
      "edges and lone nodes" ]

(* Grammar pruning against the same oracle on groups wide enough to span
   several 63-bit words: 2-6 sibling groups below one governor API, one
   (sometimes two) of them drawing 60-300 candidates, so bits 62 and 63
   of a group's sets are in play at every position; the other groups draw
   1-3. Group sizes are clamped so the product stays under [cap], which
   keeps the oracle's full enumeration cheap. *)
let draw_large_groups o st =
  let cap = 20_000 in
  let a = o.govs.(Random.State.int st (Array.length o.govs)) in
  let n = 2 + Random.State.int st 5 in
  let large = Random.State.int st n in
  let big = 60 + Random.State.int st 241 in
  let room = ref (cap / big) in
  let sizes =
    Array.init n (fun i ->
        if i = large then big
        else
          let s = max 1 (min (1 + Random.State.int st 3) !room) in
          room := !room / s;
          s)
  in
  (* a second wide group where the product still allows one *)
  (match List.filter (fun i -> i <> large && sizes.(i) = 1) (List.init n Fun.id) with
  | i :: _ when !room >= 60 && Random.State.bool st ->
      sizes.(i) <- 60 + Random.State.int st (min 241 (!room - 59))
  | _ -> ());
  Array.to_list sizes
  |> List.map (fun m -> List.init m Fun.id |> List.filter_map (fun _ -> draw_path o st a))
  |> List.filter (fun g -> g <> [])
  |> number_groups

let prop_gprune_oracle_wide =
  QCheck.Test.make
    ~name:"grammar pruning = conflict-table oracle on 60-300-path groups (both domains)"
    ~count:40
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (am, seed) ->
      let o = Lazy.force (if am then am_oracle else te_oracle) in
      matches_oracle o.og (draw_large_groups o (Random.State.make [| seed |])))

(* Size pruning's lower bound counts each API of a combination once:
   against a string set over real sibling paths of both graphs. *)
let prop_sprune_distinct_apis =
  QCheck.Test.make ~name:"size bound lo = distinct APIs of the combination (both domains)"
    ~count:200
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (am, seed) ->
      let o = Lazy.force (if am then am_oracle else te_oracle) in
      let combo = List.map List.hd (draw_groups o (Random.State.make [| seed |])) in
      let module SS = Set.Make (String) in
      let apis =
        List.fold_left
          (fun acc (p : Edge2path.epath) ->
            Array.fold_left (fun acc a -> SS.add a acc) acc p.Edge2path.path.Gpath.apis)
          SS.empty combo
      in
      (Sprune.bounds_of ~extra:(fun _ -> 0) combo).Sprune.lo = SS.cardinal apis)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_path_well_formed;
      prop_path_simple;
      prop_path_distinct;
      prop_sprune_bounds_sound;
      prop_gprune_lossless;
      prop_cgt_merge_acI;
      prop_engine_deterministic;
      prop_stream_equivalent;
      prop_expr_print_parse;
      prop_gprune_oracle;
    ]
  @ [ Alcotest.test_case "gprune oracle: recursive walks" `Quick test_gprune_oracle_walks;
      Alcotest.test_case "WordToAPI index = full-scan oracle (sampled; DGGT_GOLDEN_FULL=1 for all)"
        `Quick test_w2a_index_equivalence;
      Alcotest.test_case "CGT one scan = definitional checks (sampled; DGGT_GOLDEN_FULL=1 for all)"
        `Quick test_cgt_scan_oracle ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_gprune_oracle_wide; prop_sprune_distinct_apis ]
