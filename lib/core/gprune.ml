open Dggt_util
open Dggt_grammar

(* A signature entry [(node, prod)] says the path leaves [node] through an
   edge of production [prod]. A path that leaves one node through edges of
   two different productions (possible through recursive nonterminals)
   gets the single entry [(node, mixed)]: it clashes with every other path
   that touches [node] at all. *)
let mixed = -1

type t = { sigs : (int, (int * int) array) Hashtbl.t }

let signature g (p : Gpath.t) =
  let rec drop n = function (m, _) :: rest when m = n -> drop n rest | l -> l in
  let rec collapse = function
    | (n, _) :: (n', _) :: rest when n = n' -> (n, mixed) :: collapse (drop n rest)
    | x :: rest -> x :: collapse rest
    | [] -> []
  in
  Array.to_list p.Gpath.edges
  |> List.map (fun eid ->
         let e = Ggraph.edge g eid in
         (e.Ggraph.src, e.Ggraph.prod))
  |> List.sort_uniq compare |> collapse |> Array.of_list

let prepare g epaths =
  let sigs = Hashtbl.create 64 in
  List.iter
    (fun (p : Edge2path.epath) ->
      Hashtbl.replace sigs p.Edge2path.id (signature g p.Edge2path.path))
    epaths;
  { sigs }

(* The bound paths' productions, as a node -> production multiset kept
   with [Hashtbl.add]/[Hashtbl.remove]: binding and unbinding follow the
   recursion, so a node's most recent binding is always the one to drop.
   Bound paths never conflict, so a node holds copies of one production,
   or a single [mixed] entry; its most recent binding stands for all. *)
let fits bound s =
  Array.for_all
    (fun (n, a) ->
      match Hashtbl.find_opt bound n with
      | None -> true
      | Some b -> a <> mixed && a = b)
    s

let bind bound s = Array.iter (fun (n, a) -> Hashtbl.add bound n a) s
let unbind bound s = Array.iter (fun (n, _) -> Hashtbl.remove bound n) s

let combos ?budget t ~enabled groups =
  let total = Listutil.cartesian_count groups in
  let out = ref [] in
  (* Case I (~enabled:false) builds no multiset *)
  let bound = if enabled then Some (Hashtbl.create 64) else None in
  let rec go acc = function
    | [] -> out := List.rev acc :: !out
    | g :: rest ->
        List.iter
          (fun (p : Edge2path.epath) ->
            (match budget with Some b -> Budget.check b | None -> ());
            match bound with
            | None -> go (p :: acc) rest
            | Some bound ->
                let s =
                  Option.value (Hashtbl.find_opt t.sigs p.Edge2path.id) ~default:[||]
                in
                if fits bound s then begin
                  bind bound s;
                  go (p :: acc) rest;
                  unbind bound s
                end)
          g
  in
  go [] groups;
  (List.rev !out, total)
