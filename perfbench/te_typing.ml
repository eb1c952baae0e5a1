(* te_typing: the as-you-type use. Two closed-loop session clients
   replay the TextEditing queries word by word against a spawned
   `dggt serve`: POST /session, one POST /session/<id>/query per
   word-prefix revision plus one punctuation-only revision, then
   DELETE /session/<id>. The timed region runs whole passes over the 200
   queries (each pass in a seeded order) until at least --seconds have
   passed. A session's whole-query revision and its final, punctuated
   revision must each equal a from-scratch Engine.respond run of the same
   text; accuracy is read on the whole-query revision, the text
   `dggt eval` runs. *)

open Dggt_core
open Perfbench_core
module D = Dggt_domains
module J = Dggt_server.Jsonio

let clients = 2

type rev = {
  status : int;
  lat : float;               (** seconds, [Sample.failed] on failure *)
  time_s : float option;     (** the engine time the server reported *)
  reuse : J.t option;        (** the response's [reuse] object (traced) *)
}

type session_result = {
  qi : int;
  create_s : float;
  revs : rev list;
  whole_ok : bool;           (** the whole-query revision equals the reference *)
  exchanges : int;           (** HTTP exchanges: create, revisions, delete *)
  failed : int;              (** exchanges that failed or diverged *)
}

let post_json c ~path fields =
  Http.request c ~meth:"POST" ~path ~body:(J.to_string (J.Obj fields)) ()

(* one query's session; raises on transport errors. [trace] is the
   recorder and the session span the exchanges nest under. *)
let replay ~trace ~rid c (q : D.Domain.query) ~(whole : Engine.outcome) ~(final : Engine.outcome) qi =
  let traced = trace <> None in
  let span name f =
    match trace with
    | None -> f ()
    | Some (r, parent) -> Spans.time r ~parent ~name ~rid (fun _ -> f ())
  in
  let t0 = Unix.gettimeofday () in
  let status, body = span "http.session_create" (fun () -> post_json c ~path:"/session" [ ("domain", J.Str "te") ]) in
  let create_s = Unix.gettimeofday () -. t0 in
  let id =
    match (status, Option.bind (Te.parse body) (J.str_field "session")) with
    | 201, Some id -> id
    | _ -> failwith (Printf.sprintf "POST /session answered %d" status)
  in
  let path = "/session/" ^ id ^ "/query" in
  let texts = Typing.revisions q.D.Domain.text in
  let last = List.length texts - 1 in
  let failed = ref 0 and whole_ok = ref false in
  let revs =
    List.mapi
      (fun i text ->
        let t0 = Unix.gettimeofday () in
        let status, body = span "http.session_query" (fun () -> post_json c ~path [ ("query", J.Str text) ]) in
        let t1 = Unix.gettimeofday () in
        let good = status = 200 in
        let parsed = if traced || i >= last - 1 then Te.parse body else None in
        (* the whole query and the final (punctuated) revision must both
           equal from-scratch runs of the same text *)
        let reference = if i = last then Some final else if i = last - 1 then Some whole else None in
        let good =
          good
          && match (reference, parsed) with
             | None, _ -> true
             | Some o, Some b -> Te.same_outcome b o
             | Some _, None -> false
        in
        if not good then begin
          incr failed;
          Te.report_divergence ~what:(Printf.sprintf "session revision %d" (i + 1)) ~text ~status body
        end
        else if i = last - 1 then whole_ok := true;
        {
          status;
          lat = (if good then t1 -. t0 else Sample.failed);
          time_s = Option.bind parsed (J.num_field "time_s");
          reuse = Option.bind parsed (J.member "reuse");
        })
      texts
  in
  (match span "http.session_delete" (fun () -> Http.request c ~meth:"DELETE" ~path:("/session/" ^ id) ()) with
  | 200, _ -> ()
  | status, body ->
      incr failed;
      Te.report_divergence ~what:"DELETE /session" ~text:q.D.Domain.text ~status body);
  { qi; create_s; revs; whole_ok = !whole_ok; exchanges = List.length revs + 2; failed = !failed }

let run (ctx : Out.ctx) =
  let traced = ctx.Out.trace in
  let rf = Te.reference ~traced in
  let rec_ = rf.Te.rec_ in
  let nq = Array.length Te.queries in
  let wholes = Array.mapi (fun qi (q : D.Domain.query) -> Te.plain rf ~rid:qi q.D.Domain.text) Te.queries in
  (* the punctuated finals stay out of the engine's layer figures, which
     the whole queries give *)
  let finals =
    Array.map
      (fun (q : D.Domain.query) ->
        Engine.respond rf.Te.ses
          { Engine.input = Engine.Text (List.hd (List.rev (Typing.revisions q.D.Domain.text))); mode = Engine.Plain })
      Te.queries
  in
  let server, setup_s = Te.setup ctx in
  let port = server.Server.port in
  let m0 = if traced then Server.metrics port else [] in
  let sampler = if traced then Some (Te.queue_depth_sampler ~port) else None in
  let results = ref [] and transport = ref 0 and res_mu = Mutex.create () in
  let t_start = Unix.gettimeofday () in
  let pass = ref 0 in
  while !pass = 0 || Unix.gettimeofday () -. t_start < float_of_int ctx.Out.seconds do
    let order =
      Array.of_list
        (Gen.shuffle (Gen.derive ctx.Out.seed (Printf.sprintf "te_typing.order.%d" !pass)) (List.init nq Fun.id))
    in
    let next = Atomic.make 0 in
    let p = !pass in
    let client () =
      let c = ref (Http.connect port) in
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < nq then begin
          let qi = order.(k) in
          let rid = ((p + 2) * nq) + qi in
          let q = Te.queries.(qi) in
          (match
             match rec_ with
             | None -> replay ~trace:None ~rid !c q ~whole:wholes.(qi) ~final:finals.(qi) qi
             | Some r ->
                 Spans.time r ~name:"session" ~rid (fun sid ->
                     replay ~trace:(Some (r, sid)) ~rid !c q ~whole:wholes.(qi) ~final:finals.(qi) qi)
           with
          | res ->
              Mutex.lock res_mu;
              results := (p, res) :: !results;
              Mutex.unlock res_mu
          | exception (Failure _ | Unix.Unix_error _) ->
              Mutex.lock res_mu;
              incr transport;
              Mutex.unlock res_mu;
              Http.close !c;
              c := Http.connect port);
          loop ()
        end
      in
      loop ();
      Http.close !c
    in
    List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
    incr pass
  done;
  let wall = Unix.gettimeofday () -. t_start in
  let depth = match sampler with Some stop -> stop () | None -> 0 in
  let m1 = if traced then Server.metrics port else [] in
  (* the tracing overhead on one session-less exchange, a cache hit *)
  let trace_overhead =
    match rec_ with
    | None -> []
    | Some _ ->
        let c = Http.connect port and scratch = Spans.create () in
        let warm () = ignore (Http.request c ~meth:"POST" ~path:"/synthesize" ~body:Te.warm_body ()) in
        Fun.protect
          ~finally:(fun () -> Http.close c)
          (fun () ->
            [
              Layers.overhead ~batch:50 (fun ~traced ->
                  if traced then Spans.time scratch ~name:"http.synthesize" ~rid:(-1) (fun _ -> warm ()) else warm ());
            ])
  in
  let peak = Server.peak_rss_mb server.Server.pid in
  Server.stop server;
  let results = List.rev !results in
  let revs = List.concat_map (fun (_, r) -> r.revs) results in
  let lats = List.map (fun r -> r.lat) revs in
  let n_rev = List.length revs in
  let first = List.filter_map (fun (p, r) -> if p = 0 && r.whole_ok then Some r.qi else None) results in
  let accuracy =
    Sample.ratio
      (List.length
         (List.filter (fun qi -> D.Domain.check Te.dom wholes.(qi).Engine.expr Te.queries.(qi)) first))
      nq
  in
  let e2e =
    [
      Out.m "setup_s" "s" setup_s;
      Out.m "accuracy" "ratio" accuracy;
      Out.m "throughput_qps" "1/s" (float_of_int n_rev /. wall);
      Out.ms "latency_p50_ms" (Sample.percentile lats 50.0);
      Out.ms "latency_p90_ms" (Sample.percentile lats 90.0);
      Out.m "peak_rss_mb" "MiB" peak;
    ]
  in
  let metrics =
    match rec_ with
    | None -> e2e
    | Some r ->
        (* the nlu layer, timed in-process over every revision text the
           clients sent: the server re-parses each one *)
        let texts = Array.to_list Te.queries |> List.concat_map (fun (q : D.Domain.query) -> Typing.revisions q.D.Domain.text) in
        let cfg = rf.Te.ses.Engine.cfg in
        List.iteri
          (fun i text ->
            let rid = -(i + 2) in
            let dg = Spans.time r ~name:"Engine.parse" ~rid (fun _ -> Engine.parse cfg text) in
            ignore (Spans.time r ~name:"Engine.prune" ~rid (fun _ -> Engine.prune cfg dg)))
          texts;
        let nlu = [ "depparser.p50_ms"; "depparser.p99_ms"; "queryprune.p50_ms" ] in
        let engine = Te.engine_metrics rf r ~except:nlu in
        let spans = Spans.all r in
        Layers.write_spans ctx spans;
        let reuse = List.filter_map (fun r -> r.reuse) revs in
        let stage name =
          let get k o = Option.value (Option.bind (J.member name o) (J.int_field k)) ~default:0 in
          let reused = List.fold_left (fun a o -> a + get "reused" o) 0 reuse
          and computed = List.fold_left (fun a o -> a + get "computed" o) 0 reuse in
          Out.m (Printf.sprintf "inc.%s_reuse_ratio" name) "ratio" (Sample.ratio reused (reused + computed))
        in
        let splices = List.length (List.filter (fun o -> J.bool_field "splice" o = Some true) reuse) in
        let served = List.filter_map (fun r -> r.time_s) revs in
        let statuses code = List.length (List.filter (fun r -> r.status = code) revs) in
        let overhead = List.filter_map (fun r -> Option.map (fun e -> r.lat -. e) r.time_s) revs in
        engine
        @ [
          Out.m "depparser.p50_ms" "ms" (Layers.pct spans "Engine.parse" 50.0);
          Out.m "depparser.p99_ms" "ms" (Layers.pct spans "Engine.parse" 99.0);
          Out.m "queryprune.p50_ms" "ms" (Layers.pct spans "Engine.prune" 50.0);
          Out.m "inc.splice_ratio" "ratio" (Sample.ratio splices (List.length reuse));
          stage "words";
          stage "pairs";
          stage "dgg_rows";
          Out.ms "sessions.create_p50_ms" (Sample.percentile (List.map (fun (_, r) -> r.create_s) results) 50.0);
          Out.ms "serve.engine_p50_ms" (Sample.percentile served 50.0);
          Out.ms "serve.engine_p99_ms" (Sample.percentile served 99.0);
          Out.ms "serve.overhead_p50_ms" (Sample.percentile overhead 50.0);
          Out.ms "serve.overhead_p99_ms" (Sample.percentile overhead 99.0);
          Te.hit_ratio m0 m1 "word_cache";
          Te.hit_ratio m0 m1 "autom_memo";
          Out.m "deadline_pool.queue_depth_max" "count" (float_of_int depth);
          Out.m "serve.rejected_503" "count" (float_of_int (statuses 503));
          Out.m "serve.timeout_504" "count" (float_of_int (statuses 504));
          Out.ms "latency_p99_ms" (Sample.percentile lats 99.0);
        ]
        @ Layers.self_metrics spans ~requests:(List.length results)
            [ "session"; "http.session_create"; "http.session_query"; "http.session_delete" ]
        @ trace_overhead
  in
  {
    Out.attempted = List.fold_left (fun a (_, r) -> a + r.exchanges) !transport results;
    failed = List.fold_left (fun a (_, r) -> a + r.failed) !transport results;
    metrics;
    envelope =
      [
        ("timeout_s", J.Num Te.timeout_s);
        ("samples", J.Num (float_of_int n_rev));
        ("tail_percentile", Out.tail n_rev);
        ("sessions", J.Num (float_of_int (List.length results)));
        ("passes", J.Num (float_of_int !pass));
        ("clients", J.Num (float_of_int clients));
        ("generator_lateness_p99_ms", J.Null);
      ];
  }
