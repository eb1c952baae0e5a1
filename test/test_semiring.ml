(* Tests for the PathMerge semiring: cell semantics per objective, the
   soundness of the Top_k n-best (sorted, bounded, duplicate-free, head =
   the plain run's codelet), and the committed golden transcripts that pin
   the chart walk's answers and statistics byte for byte — from scratch
   and through lib/inc sessions typed word by word. DGGT_GOLDEN_FULL=1
   widens the sweeps to every word prefix of every benchmark query. *)

module Semiring = Dggt_core.Semiring
module Cgt = Dggt_core.Cgt
module Engine = Dggt_core.Engine
module Stats = Dggt_core.Stats
module Gpath = Dggt_grammar.Gpath
module Session = Dggt_inc.Session
module Domain = Dggt_domains.Domain

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let te = Dggt_domains.Text_editing.domain
let am = Dggt_domains.Astmatcher.domain

let full_sweep () = Sys.getenv_opt "DGGT_GOLDEN_FULL" = Some "1"

(* no wall-clock budget: every answer is the machine-independent one *)
let golden_session dom =
  Domain.configure dom
    { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = None }

(* structural singleton CGTs; node ids and API names only need to be
   distinct, no grammar is involved at the cell level *)
let leaf_cgt nid api =
  Cgt.merge_path Cgt.empty
    { Gpath.nodes = [| nid |]; edges = [||]; apis = [| api |] }

let cand ?(nid = 1) ?(api = "A") ~size ~cov ~score () =
  {
    Semiring.size;
    cgt = leaf_cgt nid api;
    assignment = List.init cov (fun i -> (i, api));
    score;
  }

(* ------------------------------------------------------------------ *)
(* cells                                                              *)
(* ------------------------------------------------------------------ *)

let test_cell_min_size () =
  let c = Semiring.zero Semiring.Min_size in
  check_b "fresh cell unsolved" false (Semiring.Cell.solved c);
  check_b "fresh cell has no best" true (Semiring.Cell.best c = None);
  let a = cand ~size:3 ~cov:2 ~score:1.0 () in
  check_b "first insert improves" true (Semiring.plus c a);
  check_b "solved after insert" true (Semiring.Cell.solved c);
  (* higher coverage beats smaller size *)
  let b = cand ~size:5 ~cov:3 ~score:0.5 () in
  check_b "coverage wins" true (Semiring.plus c b);
  check_i "best is the 3-cover" 3
    (match Semiring.Cell.best c with
    | Some x -> Semiring.coverage x
    | None -> -1);
  (* same coverage, bigger size: rejected, incumbent kept *)
  check_b "bigger size loses" false
    (Semiring.plus c (cand ~size:9 ~cov:3 ~score:9.0 ()));
  check_i "incumbent size kept" 5
    (match Semiring.Cell.best c with Some x -> x.Semiring.size | None -> -1);
  (* same coverage, smaller size: replaces *)
  check_b "smaller size wins" true
    (Semiring.plus c (cand ~size:4 ~cov:3 ~score:0.1 ()));
  (* a tie on every key keeps the incumbent (update_min's strictness) *)
  check_b "exact tie keeps incumbent" false
    (Semiring.plus c (cand ~size:4 ~cov:3 ~score:0.1 ()));
  check_i "min-size retains one" 1 (List.length (Semiring.Cell.choices c))

let test_cell_top_k () =
  let c = Semiring.zero (Semiring.Top_k 3) in
  let xs =
    [
      cand ~api:"A" ~size:5 ~cov:2 ~score:1.0 ();
      cand ~api:"B" ~size:3 ~cov:2 ~score:1.0 ();
      cand ~api:"C" ~size:4 ~cov:2 ~score:1.0 ();
      cand ~api:"D" ~size:2 ~cov:1 ~score:9.0 ();
      cand ~api:"E" ~size:6 ~cov:2 ~score:1.0 ();
    ]
  in
  List.iter (fun x -> ignore (Semiring.plus c x)) xs;
  let kept = Semiring.Cell.choices c in
  check_i "bounded at k" 3 (List.length kept);
  (* sorted best-first under compare_cand *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        Semiring.compare_cand a b <= 0 && sorted rest
    | _ -> true
  in
  check_b "choices sorted" true (sorted kept);
  check_i "head is the size-3 candidate" 3
    (match Semiring.Cell.best c with Some x -> x.Semiring.size | None -> -1);
  (* the low-coverage candidate never outranks a 2-cover, whatever its
     score; with k=3 it fell off the end *)
  check_b "low coverage evicted" true
    (List.for_all (fun x -> Semiring.coverage x = 2) kept);
  (* exact duplicates are dropped, not accumulated *)
  let n = List.length (Semiring.Cell.choices c) in
  ignore (Semiring.plus c (cand ~api:"B" ~size:3 ~cov:2 ~score:1.0 ()));
  check_i "duplicate dropped" n (List.length (Semiring.Cell.choices c))

let sample_queries dom =
  let qs =
    List.filter (fun q -> not q.Domain.hard) dom.Domain.queries
    |> List.map (fun q -> q.Domain.text)
  in
  if full_sweep () then qs
  else List.filteri (fun i _ -> i < 4) qs

(* ------------------------------------------------------------------ *)
(* transcript lines                                                   *)
(* ------------------------------------------------------------------ *)

let transcript_line q (o : Engine.outcome) (ranked : Engine.ranked list) =
  let opt f = function None -> "-" | Some x -> f x in
  let s = o.Engine.stats in
  String.concat "\t"
    ([
       q;
       opt Fun.id o.Engine.code;
       opt string_of_int o.Engine.cgt_size;
       opt Fun.id o.Engine.failure;
       Stats.(
         Printf.sprintf
           "dep_edges=%d orig_paths=%d paths_after_reloc=%d orphan_count=%d \
            reloc_graphs=%d combos_total=%d combos_after_gprune=%d \
            combos_after_sprune=%d combos_merged=%d hisyn_combos_enumerated=%d \
            hisyn_combos_possible=%d dgg_nodes=%d dgg_edges=%d \
            dgg_improvements=%d"
           s.dep_edges s.orig_paths s.paths_after_reloc s.orphan_count
           s.reloc_graphs s.combos_total s.combos_after_gprune
           s.combos_after_sprune s.combos_merged s.hisyn_combos_enumerated
           s.hisyn_combos_possible s.dgg_nodes s.dgg_edges s.dgg_improvements);
     ]
    @ List.map (fun (r : Engine.ranked) -> r.Engine.code) ranked)

(* A [Ranked 5] request runs the same chart walk as [Plain]: same codelet,
   CGT size and counters. *)
let check_same_walk q (plain : Engine.outcome) (ranked : Engine.outcome) =
  check_b (q ^ ": Ranked 5 walk = Plain walk") true
    (transcript_line q plain [] = transcript_line q ranked [])

let scratch_line ses q =
  let plain = Req.plain ses q in
  let ranked = Req.respond ses (Engine.Ranked 5) q in
  check_same_walk q plain ranked;
  transcript_line q plain ranked.Engine.ranked

(* ------------------------------------------------------------------ *)
(* Top_k soundness and Plain/Ranked invariance                       *)
(* ------------------------------------------------------------------ *)

(* the documented ranking order on what a Ranked request exposes *)
let ranked_le (a : Engine.ranked) (b : Engine.ranked) =
  a.Engine.coverage > b.Engine.coverage
  || (a.Engine.coverage = b.Engine.coverage
     && (a.Engine.size < b.Engine.size
        || (a.Engine.size = b.Engine.size && a.Engine.score >= b.Engine.score -. 1e-9)))

let test_topk_soundness () =
  List.iter
    (fun dom ->
      let ses = golden_session dom in
      List.iter
        (fun q ->
          let o = Req.plain ses q in
          let rk = Req.ranked ~k:5 ses q in
          check_b (q ^ ": at most k") true (List.length rk <= 5);
          let codes = List.map (fun (r : Engine.ranked) -> r.Engine.code) rk in
          check_b (q ^ ": no duplicate codes") true
            (List.length (List.sort_uniq compare codes) = List.length codes);
          let rec sorted = function
            | a :: (b :: _ as rest) -> ranked_le a b && sorted rest
            | _ -> true
          in
          check_b (q ^ ": sorted best-first") true (sorted rk);
          (match (o.Engine.code, rk) with
          | Some c, h :: _ ->
              check_b (q ^ ": head = plain run") true (h.Engine.code = c)
          | Some _, [] ->
              Alcotest.fail (q ^ ": plain run succeeded but ranked is empty")
          | None, _ -> check_b (q ^ ": no code, no ranked") true (rk = []));
          (* k = 1 degenerates to the Min_size chart byte-for-byte *)
          match (o.Engine.code, Req.ranked ~k:1 ses q) with
          | Some c, [ only ] ->
              check_b (q ^ ": k=1 equals run") true
                (only.Engine.code = c
                && Some only.Engine.size = o.Engine.cgt_size)
          | None, [] -> ()
          | _ -> Alcotest.fail (q ^ ": k=1 shape mismatch"))
        (sample_queries dom))
    [ te; am ]

(* the candidate stream into every cell is the same under Min_size and
   Top_k, so a Ranked 5 request must reproduce the Plain outcome bytes —
   codelet, CGT size, failure and statistics alike *)
let test_objective_outcome_invariance () =
  List.iter
    (fun dom ->
      let ses = golden_session dom in
      List.iter
        (fun q ->
          check_same_walk q (Req.plain ses q) (Req.respond ses (Engine.Ranked 5) q))
        (sample_queries dom))
    [ te; am ]

(* ------------------------------------------------------------------ *)
(* golden transcripts                                                 *)
(* ------------------------------------------------------------------ *)

(* The committed oracle: one line per input under test/golden/, produced
   by [Engine.respond] with no wall-clock budget (so no line depends on
   the machine). [<domain>.txt] holds every benchmark query in domain
   order, [<domain>.prefixes.txt] every other word prefix of those
   queries — the revisions an as-you-type client sends. A line is the
   input, the Plain codelet, CGT size, failure, all Stats counters and
   the codes of the [Ranked 5] list, tab-separated. On a mismatch the
   actual transcript is written under _build and the first differing
   line printed; to re-pin after a deliberate change of answers, copy
   that file over the golden one. *)

(* golden/ next to the test binary's cwd under dune, test/golden/ from the
   repo root *)
let golden_dir () =
  match List.find_opt Sys.file_exists [ "golden"; "test/golden" ] with
  | Some d -> d
  | None -> Alcotest.fail "golden transcripts not found (test/golden/)"

let golden_file dom suffix = String.lowercase_ascii dom.Domain.name ^ suffix ^ ".txt"

let read_golden file =
  let path = Filename.concat (golden_dir ()) file in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")

(* Compare a computed transcript with its golden file; on a mismatch
   write the actual one under _build and fail on the first differing
   line. *)
let check_transcript file actual =
  let expected = read_golden file in
  if actual <> expected then begin
    let out_dir =
      if golden_dir () = "golden" then "golden.actual" else "_build/golden.actual"
    in
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let out = Filename.concat out_dir file in
    Out_channel.with_open_bin out (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff i = function
      | e :: es, a :: as_ when e = a -> first_diff (i + 1) (es, as_)
      | es, as_ ->
          let hd = function l :: _ -> l | [] -> "(missing)" in
          (i, hd es, hd as_)
    in
    let i, e, a = first_diff 1 (expected, actual) in
    Alcotest.failf
      "%s differs at line %d:\n  golden: %s\n  actual: %s\nactual transcript \
       written to %s (copy it over test/golden/%s to re-pin)"
      file i e a out file
  end

(* word-prefix revisions of a query, never breaking a quoted literal; the
   last revision is the query itself *)
let revisions q =
  let chunks = Test_inc.edit_chunks q in
  let n = List.length chunks in
  List.init (n - 1) (fun k ->
      String.concat " " (List.filteri (fun i _ -> i <= k) chunks))
  @ [ q ]

let query_texts dom = List.map (fun q -> q.Domain.text) dom.Domain.queries

(* the proper prefixes, first appearance first, without repeats and
   without inputs that are themselves benchmark queries *)
let prefix_inputs dom =
  let seen = Hashtbl.create 256 in
  List.iter (fun q -> Hashtbl.replace seen q ()) (query_texts dom);
  List.concat_map revisions (query_texts dom)
  |> List.filter (fun r ->
         (not (Hashtbl.mem seen r)) && (Hashtbl.replace seen r (); true))

let test_golden_queries () =
  List.iter
    (fun dom ->
      let ses = golden_session dom in
      let lines = List.map (scratch_line ses) (query_texts dom) in
      check_transcript (golden_file dom "") lines;
      if full_sweep () then
        check_transcript
          (golden_file dom ".prefixes")
          (List.map (scratch_line ses) (prefix_inputs dom)))
    [ te; am ]

(* Every revision typed word by word through one lib/inc session per query
   must answer the golden line of that input: Plain through
   [Session.query] (splices and memo-table reuse included), the n-best
   through [Session.ranked]. The first 4 queries per domain by default,
   all of them under DGGT_GOLDEN_FULL=1. *)
let test_golden_session () =
  List.iter
    (fun dom ->
      let golden = Hashtbl.create 1024 in
      List.iter
        (fun l -> Hashtbl.replace golden (List.hd (String.split_on_char '\t' l)) l)
        (read_golden (golden_file dom "") @ read_golden (golden_file dom ".prefixes"));
      let ses = golden_session dom in
      let queries = query_texts dom in
      let queries =
        if full_sweep () then queries else List.filteri (fun i _ -> i < 4) queries
      in
      List.iter
        (fun q ->
          let s = Session.create ses in
          List.iter
            (fun rev ->
              let o, _ = Session.query s rev in
              Alcotest.(check string)
                (Printf.sprintf "session typing %S, revision %S" q rev)
                (Option.value (Hashtbl.find_opt golden rev) ~default:"(missing)")
                (transcript_line rev o (Session.ranked ~k:5 s rev)))
            (revisions q))
        queries)
    [ te; am ]

let suite =
  [
    Alcotest.test_case "cell: Min_size semantics" `Quick test_cell_min_size;
    Alcotest.test_case "cell: Top_k semantics" `Quick test_cell_top_k;
    Alcotest.test_case "Top_k soundness" `Quick test_topk_soundness;
    Alcotest.test_case "objective outcome invariance" `Quick
      test_objective_outcome_invariance;
    Alcotest.test_case "golden transcripts: every query, Plain and Ranked 5"
      `Quick test_golden_queries;
    Alcotest.test_case "golden transcripts: inc session typed word by word"
      `Quick test_golden_session;
  ]
