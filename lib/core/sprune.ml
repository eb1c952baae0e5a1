type bounds = { lo : int; hi : int }

(* Distinct APIs over the combination's paths. An API counts where it
   first occurs: not earlier on its own path, not on an earlier path. A
   combination is a few short paths, so scanning beats building a set.
   Names off one grammar graph are shared strings, so [==] settles the
   equal ones. *)
let same a b = a == b || String.equal a b

let rec occurs a apis j stop = j < stop && (same apis.(j) a || occurs a apis (j + 1) stop)

let rec on_paths a = function
  | [] -> false
  | apis :: rest -> occurs a apis 0 (Array.length apis) || on_paths a rest

let distinct_apis combo =
  let rec count earlier = function
    | [] -> 0
    | (p : Edge2path.epath) :: rest ->
        let apis = p.Edge2path.path.Dggt_grammar.Gpath.apis in
        let fresh = ref 0 in
        for i = 0 to Array.length apis - 1 do
          let a = apis.(i) in
          if not (occurs a apis 0 i || on_paths a earlier) then incr fresh
        done;
        !fresh + count (apis :: earlier) rest
  in
  count [] combo

let bounds_of ~extra combo =
  let n = List.length combo in
  let sum_sizes =
    List.fold_left
      (fun acc (p : Edge2path.epath) ->
        acc + Dggt_grammar.Gpath.size p.Edge2path.path)
      0 combo
  in
  let extras = List.fold_left (fun acc p -> acc + extra p) 0 combo in
  { lo = distinct_apis combo + extras; hi = sum_sizes - (n - 1) + extras }

let prune ~enabled ~extra combos =
  if (not enabled) || combos = [] then combos
  else begin
    let with_bounds = List.map (fun c -> (c, bounds_of ~extra c)) combos in
    let min_hi =
      List.fold_left (fun acc (_, b) -> min acc b.hi) max_int with_bounds
    in
    List.filter_map
      (fun (c, b) -> if b.lo > min_hi then None else Some c)
      with_bounds
  end
