(* Turning recorded spans into per-layer metrics. *)

open Perfbench_core
module Trace = Dggt_obs.Trace

(* A fresh engine trace sink whose origin is exactly [t0], so the stage
   spans the engine emits can be placed on the benchmark's absolute
   clock: the sink reads its clock once at creation (answered with [t0]),
   then follows the wall clock like the engine does. *)
let engine_sink t0 =
  let first = ref true in
  Trace.create
    ~clock:(fun () ->
      if !first then begin
        first := false;
        t0
      end
      else Unix.gettimeofday ())
    ()

(* Copy the engine's stage spans into [rec_]: top-level stages nest
   under [parent], the engine's own nesting is kept below that. *)
let import rec_ ~parent ~rid ~t0 sink =
  let ids = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      let id = Spans.fresh_id rec_ in
      Hashtbl.replace ids e.Trace.id id;
      let parent =
        match e.Trace.parent with
        | Some p -> Hashtbl.find_opt ids p
        | None -> Some parent
      in
      let start = t0 +. e.Trace.start_s in
      Spans.add rec_ ?parent ~id ~name:e.Trace.stage ~rid ~start
        ~stop:(start +. e.Trace.dur_s) ())
    (Trace.result sink).Trace.events

let pct spans name p =
  Sample.percentile (Spans.durations_of spans name) p *. 1000.0

let total spans name = Sample.sum (Spans.durations_of spans name)

(* p50/p99 (ms) of the named spans as two metrics *)
let p50_p99 spans ~span ~prefix =
  [
    Out.m (prefix ^ ".p50_ms") "ms" (pct spans span 50.0);
    Out.m (prefix ^ ".p99_ms") "ms" (pct spans span 99.0);
  ]

(* mean self time per request of each named span, for the names given *)
let self_metrics spans ~requests names =
  let by_name = Spans.self_by_name spans in
  List.filter_map
    (fun n ->
      Option.map
        (fun total ->
          Out.m ("self." ^ n ^ "_ms") "ms" (total *. 1000.0 /. float_of_int (max 1 requests)))
        (List.assoc_opt n by_name))
    names

(* The tracing overhead, measured in this process on one fixed request:
   [call ~traced] sends it with or without the traced run's recording.
   A sample times [batch] calls in a row, so that a fast request's
   samples stay well above the clock's microsecond; traced and untraced
   samples alternate [reps] times, each going first in turn, and the
   metric is the traced median over the untraced one, less 1. *)
let overhead ?(reps = 21) ~batch call =
  let time traced =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      call ~traced
    done;
    Unix.gettimeofday () -. t0
  in
  call ~traced:false;
  let pairs =
    List.init reps (fun i ->
        if i mod 2 = 0 then
          let plain = time false in
          (plain, time true)
        else
          let traced = time true in
          (time false, traced))
  in
  let base = Sample.median (List.map fst pairs) in
  Out.m "trace.overhead" "ratio" ((Sample.median (List.map snd pairs) -. base) /. base)

(* spans as JSON, written when the run ends *)
let write_spans ctx spans =
  let module J = Dggt_server.Jsonio in
  let span_json (s : Spans.span) =
    J.Obj
      [
        ("id", J.Num (float_of_int s.Spans.id));
        ("parent", J.opt (fun p -> J.Num (float_of_int p)) s.Spans.parent);
        ("name", J.Str s.Spans.name);
        ("rid", J.Num (float_of_int s.Spans.rid));
        ("start", J.Num s.Spans.start);
        ("end", J.Num s.Spans.stop);
      ]
  in
  let path =
    Filename.concat ctx.Out.out_dir
      (Printf.sprintf "%s-spans-seed%d.json" ctx.Out.workload ctx.Out.seed)
  in
  try Out.write_file path (J.to_string (J.list span_json spans))
  with Sys_error e -> Printf.eprintf "perfbench: cannot write spans: %s\n" e
