open Dggt_util
open Dggt_grammar

(* A signature entry [(node, prod)] says the path leaves [node] through an
   edge of production [prod]. A path that leaves one node through edges of
   two different productions (possible through recursive nonterminals)
   gets the single entry [(node, mixed)]: it clashes with every other path
   that touches [node] at all. A signature is an int array of entries
   [node lsl prod_bits lor prod], one per node, in increasing order;
   [mixed] is the all-ones production field. *)
let prod_bits = 31
let mixed = (1 lsl prod_bits) - 1
let node_of e = e lsr prod_bits
let prod_of e = e land mixed

let signature g (p : Gpath.t) =
  let keys =
    Array.map
      (fun eid ->
        let e = Ggraph.edge g eid in
        (e.Ggraph.src lsl prod_bits) lor e.Ggraph.prod)
      p.Gpath.edges
  in
  let m = Array.length keys in
  (* insertion sort: a path has a dozen or so edges *)
  for i = 1 to m - 1 do
    let e = keys.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > e do
      keys.(!j + 1) <- keys.(!j);
      decr j
    done;
    keys.(!j + 1) <- e
  done;
  let k = ref 0 in
  for i = 0 to m - 1 do
    let e = keys.(i) in
    if !k > 0 && node_of keys.(!k - 1) = node_of e then begin
      if keys.(!k - 1) <> e then keys.(!k - 1) <- keys.(!k - 1) lor mixed
    end
    else begin
      keys.(!k) <- e;
      incr k
    end
  done;
  if !k = m then keys else Array.sub keys 0 !k

(* Bitsets over one group's paths: bit [i] of the set is bit [i mod 63]
   of word [i / 63], all 63 bits of an OCaml int in use (bit 62 is the
   sign bit). *)
let word_bits = Sys.int_size
let words n = (n + word_bits - 1) / word_bits
let set_bit s i = s.(i / word_bits) <- s.(i / word_bits) lor (1 lsl (i mod word_bits))

(* Index of the lowest set bit of [x], which has exactly one bit set.
   Logical shifts: the sign bit is a bit like the others. *)
let bit_index x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF_FFFF = 0 then (n := 32; x := !x lsr 32);
  if !x land 0xFFFF = 0 then (n := !n + 16; x := !x lsr 16);
  if !x land 0xFF = 0 then (n := !n + 8; x := !x lsr 8);
  if !x land 0xF = 0 then (n := !n + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then incr n;
  !n

(* [f i] for every set bit [i] of [s], in increasing order. *)
let iter_bits f s =
  for w = 0 to Array.length s - 1 do
    let x = ref s.(w) in
    while !x <> 0 do
      let low = !x land - !x in
      f ((w * word_bits) + bit_index low);
      x := !x lxor low
    done
  done

let is_empty s = Array.for_all (fun x -> x = 0) s

(* A later group's view of one grammar node: the paths that touch it, and
   per production the paths that leave it through that production. *)
type slot = { touch : int array; mutable by_prod : (int * int array) list }

let index sigs =
  let nw = words (Array.length sigs) in
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      Array.iter
        (fun e ->
          let slot =
            match Hashtbl.find_opt tbl (node_of e) with
            | Some slot -> slot
            | None ->
                let slot = { touch = Array.make nw 0; by_prod = [] } in
                Hashtbl.add tbl (node_of e) slot;
                slot
          in
          set_bit slot.touch i;
          let a = prod_of e in
          if a <> mixed then
            match List.assoc_opt a slot.by_prod with
            | Some same -> set_bit same i
            | None ->
                let same = Array.make nw 0 in
                set_bit same i;
                slot.by_prod <- (a, same) :: slot.by_prod)
        s)
    sigs;
  tbl

(* [live &= paths compatible with s]: a path stays when it does not touch
   one of [s]'s nodes, or leaves it through [s]'s (non-mixed) production. *)
let narrow idx s live =
  Array.iter
    (fun e ->
      match Hashtbl.find_opt idx (node_of e) with
      | None -> ()
      | Some slot -> (
          let a = prod_of e in
          match if a = mixed then None else List.assoc_opt a slot.by_prod with
          | Some same ->
              for w = 0 to Array.length live - 1 do
                live.(w) <- live.(w) land (lnot slot.touch.(w) lor same.(w))
              done
          | None ->
              for w = 0 to Array.length live - 1 do
                live.(w) <- live.(w) land lnot slot.touch.(w)
              done))
    s

let tick budget visits =
  (match budget with Some b -> Budget.check b | None -> ());
  match visits with Some v -> incr v | None -> ()

(* Case I, and every call with pruning off: the plain product. *)
let product ?budget ?visits groups =
  let out = ref [] in
  let rec go acc = function
    | [] -> out := List.rev acc :: !out
    | grp :: rest ->
        List.iter
          (fun p ->
            tick budget visits;
            go (p :: acc) rest)
          grp
  in
  go [] groups;
  List.rev !out

(* Case II: forward checking. [live.(d).(j)] (j >= d) holds group j's
   paths compatible with the paths bound at levels 0 .. d-1; level d's
   candidates are the set bits of [live.(d).(d)], and binding one fills
   level d+1's sets, skipping the candidate when one of them empties. *)
let forward ?budget ?visits g groups =
  let groups = Array.of_list (List.map Array.of_list groups) in
  let k = Array.length groups in
  let sigs =
    Array.map (Array.map (fun (p : Edge2path.epath) -> signature g p.Edge2path.path)) groups
  in
  (* the first group is never narrowed, so it needs no index *)
  let idx = Array.mapi (fun j s -> if j = 0 then Hashtbl.create 1 else index s) sigs in
  let full j =
    let n = Array.length groups.(j) in
    let s = Array.make (words n) 0 in
    for i = 0 to n - 1 do
      set_bit s i
    done;
    s
  in
  let live =
    Array.init k (fun d ->
        Array.init k (fun j ->
            if j < d then [||]
            else if d = 0 then full j
            else Array.make (words (Array.length groups.(j))) 0))
  in
  let chosen = Array.make k 0 in
  let out = ref [] in
  let rec level d =
    iter_bits
      (fun i ->
        tick budget visits;
        chosen.(d) <- i;
        if d = k - 1 then
          out := List.init k (fun j -> groups.(j).(chosen.(j))) :: !out
        else begin
          let s = sigs.(d).(i) in
          let rec all_live j =
            j >= k
            ||
            let dst = live.(d + 1).(j) in
            Array.blit live.(d).(j) 0 dst 0 (Array.length dst);
            narrow idx.(j) s dst;
            (not (is_empty dst)) && all_live (j + 1)
          in
          if all_live (d + 1) then level (d + 1)
        end)
      live.(d).(d)
  in
  level 0;
  List.rev !out

let combos ?budget ?visits g ~enabled groups =
  let total = Listutil.cartesian_count groups in
  let survivors =
    match groups with
    | _ :: _ :: _ when enabled -> forward ?budget ?visits g groups
    | _ -> product ?budget ?visits groups
  in
  (survivors, total)
