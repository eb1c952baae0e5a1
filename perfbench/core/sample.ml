(* Order statistics as the benchmark reports them.

   Percentiles are nearest-rank: the p-th percentile of n samples is the
   sample of rank ceil(p/100 * n) in ascending order — always a value
   that was actually measured. A failed or refused operation enters as
   [infinity], so it counts as missing every latency limit instead of
   silently vanishing from the tail. *)

let failed = infinity

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank ~n p =
  (* 1-based; the small epsilon keeps 0.9 * 100 from rounding up to 91 *)
  max 1 (min n (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))))

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~n p - 1)

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 50.0

(* samples strictly above the p-th percentile's rank *)
let beyond ~n p = n - rank ~n p

(* The tail rule: report the highest percentile that still has at least
   [min_beyond] (default 10) samples beyond it — with 100 samples that is
   p90, with 1000 it is p99. [None] when even the median has too few. *)
let tail_percentile ?(min_beyond = 10) ?(candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]) n =
  List.find_opt (fun p -> beyond ~n p >= min_beyond) candidates

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
