(* The engine's layers, measured from outside the same way on every
   workload: boot (grammar parse, graph build, automaton compile, pack
   load) of the workload's domain, and the stages of Engine.respond over
   the queries the workload runs in-process — am_batch's own queries,
   the TextEditing workloads' reference answers. *)

open Dggt_core
open Perfbench_core
module Autom = Dggt_autom.Autom

type boot = { cfg_s : float; ggraph_s : float; autom_s : float }

let span rec_ name f =
  match rec_ with None -> f () | Some r -> Spans.time r ~name ~rid:(-1) (fun _ -> f ())

(* grammar text -> CFG -> grammar graph -> automaton, each step timed *)
let boot ?rec_ ~start bnf =
  let t0 = Unix.gettimeofday () in
  let cfg =
    span rec_ "Cfg.of_text" (fun () ->
        match Dggt_grammar.Cfg.of_text ~start bnf with
        | Ok c -> c
        | Error e -> failwith (Format.asprintf "%a" Dggt_grammar.Cfg.pp_error e))
  in
  let t1 = Unix.gettimeofday () in
  let g = span rec_ "Ggraph.build" (fun () -> Dggt_grammar.Ggraph.build cfg) in
  let t2 = Unix.gettimeofday () in
  let autom = span rec_ "Autom.compile" (fun () -> Autom.compile g) in
  let t3 = Unix.gettimeofday () in
  ({ cfg_s = t1 -. t0; ggraph_s = t2 -. t1; autom_s = t3 -. t2 }, g, autom)

(* the boot layers: the median of [boots], plus the median of
   [Out.setup_reps] loads of the domain's pack directory *)
let boot_metrics ?rec_ ~pack_dir boots =
  let loads =
    List.init Out.setup_reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        (match span rec_ "Loader.load" (fun () -> Dggt_pack.Loader.load pack_dir) with
        | Ok _ -> ()
        | Error e -> failwith (Dggt_pack.Err.to_string e));
        Unix.gettimeofday () -. t0)
  in
  let med f = Sample.median (List.map f boots) in
  [
    Out.ms "cfg.of_text_ms" (med (fun b -> b.cfg_s));
    Out.ms "ggraph.build_ms" (med (fun b -> b.ggraph_s));
    Out.ms "autom.compile_ms" (med (fun b -> b.autom_s));
    Out.ms "pack.load_ms" (Sample.median loads);
  ]

type call = {
  stats : Stats.t;
  minor_words : float;
  majors : int;  (** major collections during the call *)
}

(* One Engine.respond, with the GC counters around it; traced, it is an
   "Engine.respond" span with the engine's own stage spans below it. *)
let respond ?rec_ ~rid (session : Engine.session) req =
  let g0 = Gc.quick_stat () in
  let o =
    match rec_ with
    | None -> Engine.respond session req
    | Some r ->
        Spans.time r ~name:"Engine.respond" ~rid (fun sid ->
            let t0 = Unix.gettimeofday () in
            let sink = Layers.engine_sink t0 in
            let o = Engine.respond (Engine.with_cfg (fun c -> { c with Engine.trace = Some sink }) session) req in
            Layers.import r ~parent:sid ~rid ~t0 sink;
            o)
  in
  let g1 = Gc.quick_stat () in
  ( o,
    {
      stats = Stats.copy o.Engine.stats;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      majors = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* The stage layers from the traced calls' spans; the counts come from
   [calls] (one per distinct query, so they repeat exactly run to run),
   the automaton's path-memo counters from the two snapshots. *)
let stage_metrics spans ~calls ~(memo0 : Autom.memo_counters) ~(memo1 : Autom.memo_counters) =
  let sum f = List.fold_left (fun acc c -> acc + f c.stats) 0 calls in
  let respond_total = Layers.total spans "Engine.respond" in
  let share name = Layers.total spans name /. respond_total in
  let combos = sum (fun s -> s.Stats.combos_total) and merged = sum (fun s -> s.Stats.combos_merged) in
  let hits = memo1.Autom.hits - memo0.Autom.hits and misses = memo1.Autom.misses - memo0.Autom.misses in
  let count name n = Out.m name "count" (float_of_int n) in
  Layers.p50_p99 spans ~span:"DependencyParse" ~prefix:"depparser"
  @ [ Out.m "queryprune.p50_ms" "ms" (Layers.pct spans "QueryPrune" 50.0) ]
  @ Layers.p50_p99 spans ~span:"WordToAPI" ~prefix:"word2api"
  @ [ Out.m "word2api.share" "ratio" (share "WordToAPI") ]
  @ Layers.p50_p99 spans ~span:"EdgeToPath" ~prefix:"edge2path"
  @ [
      count "edge2path.paths" (sum (fun s -> s.Stats.orig_paths));
      Out.m "autom.memo_hit_ratio" "ratio" (Sample.ratio hits (hits + misses));
    ]
  @ Layers.p50_p99 spans ~span:"PathMerge" ~prefix:"pathmerge"
  @ [
      Out.m "pathmerge.share" "ratio" (share "PathMerge");
      Out.m "orphan.p50_ms" "ms" (Layers.pct spans "OrphanRelocation" 50.0);
      count "pathmerge.combos_total" combos;
      count "pathmerge.combos_after_gprune" (sum (fun s -> s.Stats.combos_after_gprune));
      count "pathmerge.combos_after_sprune" (sum (fun s -> s.Stats.combos_after_sprune));
      count "pathmerge.combos_merged" merged;
      count "dgg.improvements" (sum (fun s -> s.Stats.dgg_improvements));
      count "orphan.reloc_graphs" (sum (fun s -> s.Stats.reloc_graphs));
      Out.m "pathmerge.merged_per_combo" "ratio" (Sample.ratio merged combos);
      Out.m "tree2expr.p50_ms" "ms" (Layers.pct spans "TreeToExpr" 50.0);
      Out.m "gc.minor_words_per_query" "words" (Sample.mean (List.map (fun c -> c.minor_words) calls));
      count "gc.major_collections" (List.fold_left (fun a c -> a + c.majors) 0 calls);
    ]
  @ Layers.self_metrics spans ~requests:(List.length (Spans.durations_of spans "Engine.respond"))
      [ "Engine.respond"; "DependencyParse"; "QueryPrune"; "WordToAPI"; "EdgeToPath"; "PathMerge"; "OrphanRelocation"; "TreeToExpr" ]
