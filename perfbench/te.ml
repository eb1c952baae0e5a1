(* The TextEditing side of te_typing: the in-process reference answers
   the correctness gate compares against (computed before the timed
   region, with the server's own configuration), and the server set-up
   that [setup_s] measures. *)

open Dggt_core
open Perfbench_core
module D = Dggt_domains
module J = Dggt_server.Jsonio
module Wire = Dggt_server.Wire

let dom = D.Text_editing.domain
let queries = Array.of_list dom.D.Domain.queries

(* the server's default per-request budget (`dggt serve --timeout`) *)
let timeout_s = 10.0

(* fixed, and not one of the measured queries: the warm-up must not
   pre-fill a cache entry a sample could hit *)
let warmup_query = "remove every blank line"

let () =
  assert (not (Array.exists (fun (q : D.Domain.query) -> q.D.Domain.text = warmup_query) queries))

(* an Engine session configured exactly like the server's DGGT domain
   state: the domain defaults, the compiled automaton, the budget *)
let session () =
  let autom = Dggt_autom.Autom.compile (Lazy.force dom.D.Domain.graph) in
  ( D.Domain.configure ~autom dom { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some timeout_s },
    autom )

(* The reference answers are the workload's in-process Engine.respond
   calls; a traced run records them, and they give the engine's layers
   on this workload's queries. *)
type reference = {
  ses : Engine.session;
  autom : Dggt_autom.Autom.t;
  memo0 : Dggt_autom.Autom.memo_counters;
  rec_ : Spans.t option;
  mutable calls : Engine_layers.call list;
}

let reference ~traced =
  let ses, autom = session () in
  { ses; autom; memo0 = Dggt_autom.Autom.memo_counters autom; rec_ = (if traced then Some (Spans.create ()) else None); calls = [] }

let plain rf ~rid text =
  let o, call =
    Engine_layers.respond ?rec_:rf.rec_ ~rid rf.ses { Engine.input = Engine.Text text; mode = Engine.Plain }
  in
  rf.calls <- call :: rf.calls;
  o

(* the engine's layers for a traced run: the TextEditing boot, then the
   stages of the reference calls, less the names in [except] *)
let engine_metrics rf r ~except =
  let boots =
    List.init Out.setup_reps (fun _ ->
        let b, _, _ = Engine_layers.boot ~rec_:r ~start:D.Te_grammar.start D.Te_grammar.bnf in
        b)
  in
  Engine_layers.boot_metrics ~rec_:r ~pack_dir:"examples/packs/textediting" boots
  @ List.filter
      (fun m -> not (List.mem m.Out.name except))
      (Engine_layers.stage_metrics (Spans.all r) ~calls:rf.calls ~memo0:rf.memo0
         ~memo1:(Dggt_autom.Autom.memo_counters rf.autom))

let field name body = Option.value (J.member name body) ~default:J.Null
let code_json (o : Engine.outcome) = J.opt (fun s -> J.Str s) o.Engine.code

(* a served /synthesize (or session revision) body against the engine's
   outcome: codelet, timeout flag and every Stats counter *)
let same_outcome body (o : Engine.outcome) =
  field "code" body = code_json o
  && field "timed_out" body = J.Bool o.Engine.timed_out
  && field "stats" body = Wire.stats_json o.Engine.stats

let parse body = match J.of_string body with Ok v -> Some v | Error _ -> None

(* the first few failed operations are described on stderr *)
let reported = Atomic.make 0

let report_divergence ~what ~text ~status body =
  if Atomic.fetch_and_add reported 1 < 5 then
    Printf.eprintf "perf: failed %s for %S: status %d, body %s\n%!" what text status
      (if String.length body > 600 then String.sub body 0 600 ^ "..." else body)

type setup = { server : Server.t; setup_s : float }

let warm_body = J.to_string (J.Obj [ ("query", J.Str warmup_query); ("domain", J.Str "te") ])

(* spawn -> GET /healthz 200 -> one answered warm-up request *)
let start ~exe ~log =
  let t0 = Unix.gettimeofday () in
  let server = Server.spawn ~exe ~log in
  Server.await_healthy server;
  (match Http.once server.Server.port ~meth:"POST" ~path:"/synthesize" ~body:warm_body () with
  | 200, _ -> ()
  | status, _ -> failwith (Printf.sprintf "warm-up answered %d" status));
  { server; setup_s = Unix.gettimeofday () -. t0 }

(* set up [Out.setup_reps] times; keep the last server, report the median *)
let setup (ctx : Out.ctx) =
  let log = Filename.concat ctx.Out.out_dir (ctx.Out.workload ^ "-server.log") in
  let rec go i acc =
    let s = start ~exe:ctx.Out.dggt_exe ~log in
    if i + 1 = Out.setup_reps then (s, s.setup_s :: acc)
    else begin
      Server.stop s.server;
      go (i + 1) (s.setup_s :: acc)
    end
  in
  let s, times = go 0 [] in
  (s.server, Sample.median times)

(* cache hit ratio of one server cache between two /metrics snapshots *)
let hit_ratio m0 m1 cache =
  let get ms kind = Server.metric ms (Printf.sprintf "dggt_%s_total{cache=%S}" kind cache) in
  let h = get m1 "cache_hits" -. get m0 "cache_hits"
  and x = get m1 "cache_misses" -. get m0 "cache_misses" in
  Out.m (Printf.sprintf "cache.%s.hit_ratio" cache) "ratio" (if h +. x = 0.0 then 0.0 else h /. (h +. x))

(* Poll GET /healthz's queue depth ten times a second on a connection
   of its own (traced runs only); the returned function stops the
   poller and answers the deepest queue it saw. *)
let queue_depth_sampler ~port =
  let stop = Atomic.make false and deepest = ref 0 in
  let poll () =
    let c = Http.connect port in
    while not (Atomic.get stop) do
      (match Http.request c ~meth:"GET" ~path:"/healthz" () with
      | 200, body -> (
          match Option.bind (parse body) (J.int_field "queue_depth") with
          | Some d -> deepest := max !deepest d
          | None -> ())
      | _ -> ()
      | exception (Failure _ | Unix.Unix_error _) -> ());
      Thread.delay 0.1
    done;
    Http.close c
  in
  let t = Thread.create poll () in
  fun () ->
    Atomic.set stop true;
    Thread.join t;
    !deepest
