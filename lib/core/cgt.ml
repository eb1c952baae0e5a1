open Dggt_grammar
module IS = Set.Make (Int)

type t = { edges : IS.t; lone : IS.t (* nodes contributed without edges *) }

let empty = { edges = IS.empty; lone = IS.empty }
let is_empty t = IS.is_empty t.edges && IS.is_empty t.lone

let merge a b = { edges = IS.union a.edges b.edges; lone = IS.union a.lone b.lone }

let merge_path t (p : Gpath.t) =
  if Array.length p.Gpath.edges = 0 then
    { t with lone = IS.add p.Gpath.nodes.(0) t.lone }
  else
    { t with edges = Array.fold_left (fun s e -> IS.add e s) t.edges p.Gpath.edges }

let of_paths _g paths = List.fold_left merge_path empty paths

let edge_ids t = IS.elements t.edges
let edge_count t = IS.cardinal t.edges
let mem_edge t id = IS.mem id t.edges
let equal a b = IS.equal a.edges b.edges && IS.equal a.lone b.lone

let compare a b =
  match IS.compare a.edges b.edges with
  | 0 -> IS.compare a.lone b.lone
  | c -> c

(* Scratch for [scan], indexed by grammar node id. A node's [parent] and
   [prod] entries belong to the current scan only while [seen] holds the
   scan's stamp (or, during the cycle check, a chain id above it); a new
   scan takes a fresh stamp instead of clearing anything. *)
type scratch = {
  g : Ggraph.t;
  seen : int array;
  parent : int array;  (* the node's parent in the CGT; -1 for none *)
  prod : int array;    (* production of the node's outgoing edges; -1 for none *)
  touched : int array; (* the nodes the current scan met, as a prefix *)
  mutable clock : int; (* last stamp or chain id handed out *)
}

let scratch g =
  let n = Ggraph.node_count g in
  {
    g;
    seen = Array.make n 0;
    parent = Array.make n (-1);
    prod = Array.make n (-1);
    touched = Array.make n 0;
    clock = 0;
  }

exception Reject

(* One pass over the edges. [tree] rejects a second parent, [grammar] a
   second outgoing production. With every in-degree at most 1, the nodes
   without a parent number |V| - |E|, so |E| = |V| - 1 leaves exactly one
   root, and the CGT is a tree unless some parent chain loops. Returns the
   number of API nodes, or -1 when a requested check fails. *)
let scan s ~tree ~grammar t =
  let g = s.g in
  s.clock <- s.clock + 1;
  let stamp = s.clock in
  let nv = ref 0 and ne = ref 0 and apis = ref 0 in
  let touch n =
    if s.seen.(n) <> stamp then begin
      s.seen.(n) <- stamp;
      s.parent.(n) <- -1;
      s.prod.(n) <- -1;
      s.touched.(!nv) <- n;
      incr nv;
      if Ggraph.is_api g n then incr apis
    end
  in
  (* each chain marks its nodes with a fresh id above [stamp]: meeting the
     current id again is a loop, meeting an older one joins a chain
     already known to end at the root *)
  let acyclic () =
    let ok = ref true and i = ref 0 in
    while !ok && !i < !nv do
      let v = s.touched.(!i) in
      if s.seen.(v) = stamp then begin
        s.clock <- s.clock + 1;
        let chain = s.clock in
        let u = ref v in
        while !u >= 0 && s.seen.(!u) = stamp do
          s.seen.(!u) <- chain;
          u := s.parent.(!u)
        done;
        if !u >= 0 && s.seen.(!u) = chain then ok := false
      end;
      incr i
    done;
    !ok
  in
  match
    IS.iter
      (fun eid ->
        let e = Ggraph.edge g eid in
        let src = e.Ggraph.src and dst = e.Ggraph.dst in
        touch src;
        touch dst;
        incr ne;
        if tree then begin
          if s.parent.(dst) >= 0 then raise_notrace Reject;
          s.parent.(dst) <- src
        end;
        if grammar then begin
          let p = s.prod.(src) in
          if p < 0 then s.prod.(src) <- e.Ggraph.prod
          else if p <> e.Ggraph.prod then raise_notrace Reject
        end)
      t.edges;
    IS.iter touch t.lone
  with
  | exception Reject -> -1
  | () ->
      if tree && !nv > 0 && (!ne <> !nv - 1 || not (acyclic ())) then -1
      else !apis

let check s t =
  match scan s ~tree:true ~grammar:true t with -1 -> None | n -> Some n

let api_size g t = scan (scratch g) ~tree:false ~grammar:false t
let is_tree g t = scan (scratch g) ~tree:true ~grammar:false t >= 0
let is_grammar_valid g t = scan (scratch g) ~tree:false ~grammar:true t >= 0
let well_formed g t = Option.is_some (check (scratch g) t)

let root g t =
  let s = scratch g in
  if is_empty t || scan s ~tree:true ~grammar:false t < 0 then None
  else
    let rec up n = match s.parent.(n) with -1 -> n | p -> up p in
    Some (up s.touched.(0))

let pp g fmt t =
  Format.fprintf fmt "CGT{%s}"
    (String.concat ", "
       (List.map
          (fun eid ->
            let e = Ggraph.edge g eid in
            Printf.sprintf "%s->%s" (Ggraph.node_name g e.Ggraph.src)
              (Ggraph.node_name g e.Ggraph.dst))
          (edge_ids t)))
