open Dggt_util
open Dggt_grammar

(* A signature entry [(node, prod)] says the path leaves [node] through an
   edge of production [prod]. A path that leaves one node through edges of
   two different productions (possible through recursive nonterminals)
   gets the single entry [(node, mixed)]: it clashes with every other path
   that touches [node] at all. *)
let mixed = -1

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

let combos ?budget ?visits g ~enabled groups =
  let total = Listutil.cartesian_count groups in
  let out = ref [] in
  (* signatures only where they are checked: Case I (~enabled:false)
     reads none, so its multiset stays empty *)
  let signed (p : Edge2path.epath) =
    (p, if enabled then signature g p.Edge2path.path else [||])
  in
  let bound = Hashtbl.create (if enabled then 64 else 1) in
  let rec go acc = function
    | [] -> out := List.rev acc :: !out
    | grp :: rest ->
        List.iter
          (fun (p, s) ->
            (match budget with Some b -> Budget.check b | None -> ());
            (match visits with Some v -> incr v | None -> ());
            if fits bound s then begin
              bind bound s;
              go (p :: acc) rest;
              unbind bound s
            end)
          grp
  in
  go [] (List.map (List.map signed) groups);
  (List.rev !out, total)
