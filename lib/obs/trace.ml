type value = Bool of bool | Int of int | Float of float | Str of string

type event = {
  id : int;
  parent : int option;
  stage : string;
  start_s : float;
  dur_s : float;
  notes : (string * value) list;
}

type t = { events : event list }

type span = {
  sid : int;
  sparent : int option;
  sname : string;
  sstart : float;
  limit : int;
  mutable snotes : (string * value) list; (* newest first *)
  mutable ncount : int;
  mutable ndropped : int;
  owner : sink;
}

and sink = {
  clock : unit -> float;
  origin : float;
  max_notes : int;
  mutable next_id : int;
  mutable open_spans : span list; (* innermost first *)
  mutable closed : event list;    (* newest first *)
}

let create ?(clock = Unix.gettimeofday) ?(max_notes = 1024) () =
  { clock; origin = clock (); max_notes; next_id = 0; open_spans = []; closed = [] }

let now sink = sink.clock () -. sink.origin

let enter sink name =
  let sp =
    {
      sid = sink.next_id;
      sparent =
        (match sink.open_spans with s :: _ -> Some s.sid | [] -> None);
      sname = name;
      sstart = now sink;
      limit = sink.max_notes;
      snotes = [];
      ncount = 0;
      ndropped = 0;
      owner = sink;
    }
  in
  sink.next_id <- sink.next_id + 1;
  sink.open_spans <- sp :: sink.open_spans;
  sp

let event_of ~end_s sp =
  let notes =
    let base = List.rev sp.snotes in
    if sp.ndropped = 0 then base
    else base @ [ ("notes_dropped", Int sp.ndropped) ]
  in
  {
    id = sp.sid;
    parent = sp.sparent;
    stage = sp.sname;
    start_s = sp.sstart;
    dur_s = Float.max 0.0 (end_s -. sp.sstart);
    notes;
  }

let finish sink sp =
  if List.memq sp sink.open_spans then begin
    let end_s = now sink in
    (* children left open close with the same end time *)
    let rec pop = function
      | [] -> []
      | s :: rest ->
          sink.closed <- event_of ~end_s s :: sink.closed;
          if s == sp then rest else pop rest
    in
    sink.open_spans <- pop sink.open_spans
  end

let result sink =
  let end_s = now sink in
  let still_open = List.map (event_of ~end_s) sink.open_spans in
  let events =
    List.sort
      (fun a b -> compare a.id b.id)
      (List.rev_append sink.closed still_open)
  in
  { events }

(* --- optional-sink conveniences ----------------------------------- *)

let span sink name f =
  match sink with
  | None -> f None
  | Some s ->
      let sp = enter s name in
      Fun.protect ~finally:(fun () -> finish s sp) (fun () -> f (Some sp))

let sub sp name f =
  match sp with None -> f None | Some sp -> span (Some sp.owner) name f

let note sp key v =
  match sp with
  | None -> ()
  | Some sp ->
      if sp.ncount >= sp.limit then sp.ndropped <- sp.ndropped + 1
      else begin
        sp.snotes <- (key, v) :: sp.snotes;
        sp.ncount <- sp.ncount + 1
      end

let int sp key v = note sp key (Int v)
let str sp key v = note sp key (Str v)
let float sp key v = note sp key (Float v)
let bool sp key v = note sp key (Bool v)
let on = function Some _ -> true | None -> false

(* --- reading ------------------------------------------------------- *)

let durations t =
  List.filter_map
    (fun e -> if e.parent = None then Some (e.stage, e.dur_s) else None)
    t.events

let find t stage = List.find_opt (fun e -> e.stage = stage) t.events

let pp_value fmt = function
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Format.fprintf fmt "%.0f" f
      else Format.fprintf fmt "%g" f
  | Str s -> Format.pp_print_string fmt s

let pp_dur fmt d =
  if d >= 1.0 then Format.fprintf fmt "%.2f s" d
  else if d >= 0.001 then Format.fprintf fmt "%.2f ms" (d *. 1000.0)
  else Format.fprintf fmt "%.1f us" (d *. 1e6)

let pp fmt t =
  let children parent =
    List.filter (fun e -> e.parent = parent) t.events
  in
  let rec render depth ordinal e =
    let indent = String.make (2 + (4 * depth)) ' ' in
    (match ordinal with
    | Some n -> Format.fprintf fmt "%s%d. %-18s %a@." indent n e.stage pp_dur e.dur_s
    | None -> Format.fprintf fmt "%s- %-18s %a@." indent e.stage pp_dur e.dur_s);
    List.iter
      (fun (k, v) ->
        Format.fprintf fmt "%s     %s = %a@." indent k pp_value v)
      e.notes;
    List.iter (render (depth + 1) None) (children (Some e.id))
  in
  List.iteri (fun i e -> render 0 (Some (i + 1)) e) (children None)
