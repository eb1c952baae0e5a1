(* In-memory span recorder for the traced run.

   A span is one timed call into a layer, recorded from outside the
   program: name, start, end (absolute seconds), the span that caused
   it, and the id of the request it belongs to. Spans stay in memory
   while the run measures and are written out when it ends. Recording
   is mutex-guarded because the HTTP workloads record from several
   client threads. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  rid : int;  (** request id: every span of one request shares it *)
  start : float;
  stop : float;
}

type t = {
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list; (* newest first *)
}

let create () = { mu = Mutex.create (); next = 0; spans = [] }

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let fresh_id t =
  locked t (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let add t ?parent ~id ~name ~rid ~start ~stop () =
  locked t (fun () -> t.spans <- { id; parent; name; rid; start; stop } :: t.spans)

(* record a completed interval with a fresh id; returns the id *)
let record t ?parent ~name ~rid ~start ~stop () =
  let id = fresh_id t in
  add t ?parent ~id ~name ~rid ~start ~stop ();
  id

(* time [f] as a span; [f] receives the span's id so callees can nest *)
let time t ?parent ~name ~rid f =
  let id = fresh_id t in
  let start = Unix.gettimeofday () in
  let finally () =
    add t ?parent ~id ~name ~rid ~start ~stop:(Unix.gettimeofday ()) ()
  in
  Fun.protect ~finally (fun () -> f id)

let all t = locked t (fun () -> List.rev t.spans)

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]: children may
   overlap (two client threads under one request, or a child reported by
   the program overlapping one the benchmark timed), and overlapping
   time must be subtracted once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   its direct children cover. Returned in the input order. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.start, s.stop)
      | None -> ())
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* durations (seconds) of the spans with [name] *)
let durations_of spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    spans

(* total self time per span name, in first-seen order *)
let self_by_name spans =
  let order = ref [] and tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some v -> Hashtbl.replace tbl s.name (v +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name self)
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order
