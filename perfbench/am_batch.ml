(* am_batch: the ASTMatcher query set through Engine.respond in Plain
   mode, in-process, one closed-loop caller, the paper's 20 s budget.

   Set-up (process start, grammar parse, graph build, automaton compile,
   first answered warm-up) is timed [Out.setup_reps] times, each in a
   fresh child (this program, run with --setup-only), and reports its
   median: one-time costs a fresh process pays are in every sample. The
   timed region runs whole passes over the 100 queries, each pass in a
   seeded order, until at least --seconds have passed: every run does
   the same work, so its figures compare across seeds. Every answer must
   equal the codelet pinned for its query in [expected_file]. *)

open Dggt_core
open Perfbench_core
module D = Dggt_domains
module J = Dggt_server.Jsonio
module Autom = Dggt_autom.Autom

let timeout_s = 20.0
let dom = D.Astmatcher.domain

(* fixed, and not one of the measured queries *)
let warmup_query = "find call expressions"

let () =
  assert (not (List.exists (fun (q : D.Domain.query) -> q.D.Domain.text = warmup_query) dom.D.Domain.queries))

let warmup = { Engine.input = Engine.Text warmup_query; mode = Engine.Plain }

(* The codelet every query must answer, by query id ([null] where the
   engine finds none). To re-pin after a deliberate change of answers,
   copy the [answers_file] a run writes over it. *)
let expected_file = "perfbench/am_batch.expected.json"
let answers_file ctx = Filename.concat ctx.Out.out_dir "am_batch-answers.json"

let answers_json answers =
  J.Obj (List.map (fun (id, code) -> (string_of_int id, J.opt (fun s -> J.Str s) code)) answers)

let load_expected () =
  let ic = open_in_bin expected_file in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match J.of_string s with
  | Ok (J.Obj kvs) ->
      List.map (fun (id, v) -> (int_of_string id, match v with J.Str c -> Some c | _ -> None)) kvs
  | Ok _ | Error _ -> failwith (expected_file ^ ": not a JSON object")

(* boot, configure, answer the warm-up: what a fresh process pays before
   its first ASTMatcher answer *)
let setup ?rec_ () =
  let boot, g, autom = Engine_layers.boot ?rec_ ~start:D.Am_grammar.start (Lazy.force D.Am_grammar.bnf) in
  let session =
    D.Domain.configure ~autom { dom with D.Domain.graph = Lazy.from_val g }
      { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some timeout_s }
  in
  if (Engine.respond session warmup).Engine.timed_out then failwith "warm-up query timed out";
  (boot, session, autom)

(* the --setup-only child: set up, then print the boot steps' times *)
let setup_only () =
  let b, _, _ = setup () in
  Printf.printf "%.9f %.9f %.9f\n%!" b.Engine_layers.cfg_s b.Engine_layers.ggraph_s b.Engine_layers.autom_s

(* one set-up in a fresh child: spawn to the child's answered warm-up *)
let setup_in_child (ctx : Out.ctx) =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () ->
        Unix.create_process exe [| exe; "--workload"; "am_batch"; "--setup-only"; "--out"; ctx.Out.out_dir |]
          Unix.stdin w Unix.stderr)
  in
  Server.live := pid :: !Server.live;
  let ic = Unix.in_channel_of_descr r in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> try input_line ic with End_of_file -> "") in
  let t1 = Unix.gettimeofday () in
  Server.terminate pid;
  match Scanf.sscanf_opt line "%f %f %f" (fun c g a -> { Engine_layers.cfg_s = c; ggraph_s = g; autom_s = a }) with
  | Some boot -> (boot, t1 -. t0)
  | None -> failwith "the --setup-only child printed no boot times"

type op = {
  pass : int;
  lat : float;       (** seconds; [Sample.failed] when the query failed *)
  correct : bool;    (** matches the hand-written expected codelet *)
  call : Engine_layers.call;
}

let run (ctx : Out.ctx) =
  let boots = List.init Out.setup_reps (fun _ -> setup_in_child ctx) in
  let rec_ = if ctx.Out.trace then Some (Spans.create ()) else None in
  let _, session, autom = setup ?rec_ () in
  let expected = load_expected () in
  let queries = dom.D.Domain.queries in
  let nq = List.length queries in
  let memo0 = Autom.memo_counters autom in
  let ops = ref [] and failed = ref 0 and answers = ref [] in
  let t_start = Unix.gettimeofday () in
  let pass = ref 0 in
  while !pass = 0 || Unix.gettimeofday () -. t_start < float_of_int ctx.Out.seconds do
    let order = Gen.shuffle (Gen.derive ctx.Out.seed (Printf.sprintf "am_batch.order.%d" !pass)) queries in
    List.iter
      (fun (q : D.Domain.query) ->
        let id = q.D.Domain.id in
        let t0 = Unix.gettimeofday () in
        let o, call =
          Engine_layers.respond ?rec_ ~rid:((!pass * nq) + id) session
            { Engine.input = Engine.Text q.D.Domain.text; mode = Engine.Plain }
        in
        let t1 = Unix.gettimeofday () in
        if !pass = 0 then answers := (id, o.Engine.code) :: !answers;
        let ok = (not o.Engine.timed_out) && List.assoc_opt id expected = Some o.Engine.code in
        if not ok then begin
          incr failed;
          if !failed <= 5 then
            Printf.eprintf "perf: failed am_batch query %d %S: %s\n%!" id q.D.Domain.text
              (if o.Engine.timed_out then "timed out"
               else "answered " ^ Option.value o.Engine.code ~default:"nothing" ^ ", not the pinned codelet")
        end;
        ops :=
          {
            pass = !pass;
            lat = (if ok then t1 -. t0 else Sample.failed);
            correct = D.Domain.check dom o.Engine.expr q;
            call;
          }
          :: !ops)
      order;
    incr pass
  done;
  let wall = Unix.gettimeofday () -. t_start in
  (try Out.write_file (answers_file ctx) (J.to_string (answers_json (List.sort compare !answers)))
   with Sys_error e -> Printf.eprintf "perfbench: cannot write answers: %s\n" e);
  let ops = List.rev !ops in
  let n = List.length ops in
  let lats = List.map (fun o -> o.lat) ops in
  let first_pass = List.filter (fun o -> o.pass = 0) ops in
  let accuracy = Sample.ratio (List.length (List.filter (fun o -> o.correct) first_pass)) nq in
  let e2e =
    [
      Out.m "setup_s" "s" (Sample.median (List.map snd boots));
      Out.m "accuracy" "ratio" accuracy;
      Out.m "throughput_qps" "1/s" (float_of_int (n - !failed) /. wall);
      Out.ms "latency_p50_ms" (Sample.percentile lats 50.0);
      Out.ms "latency_p90_ms" (Sample.percentile lats 90.0);
      Out.m "peak_rss_mb" "MiB" (Server.peak_rss_mb 0);
    ]
  in
  let metrics =
    match rec_ with
    | None -> e2e
    | Some r ->
        let boot = Engine_layers.boot_metrics ~rec_:r ~pack_dir:"examples/packs/astmatcher" (List.map fst boots) in
        let spans = Spans.all r in
        Layers.write_spans ctx spans;
        let scratch = Spans.create () in
        boot
        @ Engine_layers.stage_metrics spans
            ~calls:(List.map (fun o -> o.call) first_pass)
            ~memo0 ~memo1:(Autom.memo_counters autom)
        @ [
            Out.ms "latency_p99_ms" (Sample.percentile lats 99.0);
            Layers.overhead ~batch:1 (fun ~traced ->
                let rec_ = if traced then Some scratch else None in
                ignore (Engine_layers.respond ?rec_ ~rid:(-1) session warmup));
          ]
  in
  {
    Out.attempted = n;
    failed = !failed;
    metrics;
    envelope =
      [
        ("timeout_s", J.Num timeout_s);
        ("samples", J.Num (float_of_int n));
        ("tail_percentile", Out.tail n);
        ("passes", J.Num (float_of_int !pass));
        ("timed_s", J.Num wall);
        ("generator_lateness_p99_ms", J.Null);
      ];
  }
