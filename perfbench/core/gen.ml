(* Seeded input generation. Every random choice the benchmark makes —
   the order each pass runs its queries in — comes from one of these
   generators, so the same seed gives the same requests on every run and
   every OCaml version (the stdlib [Random] algorithm is not pinned
   across releases; SplitMix64 is). *)

type rng = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let make seed = { state = Int64.(mul (of_int seed) golden) }

(* an independent stream per purpose: [derive seed "am_batch.order.1"]
   never overlaps pass 0's stream, so adding a draw in one place does not
   shift another *)
let derive seed label =
  let h = Hashtbl.hash label in
  make ((seed * 1_000_003) lxor h)

let next64 r =
  r.state <- Int64.add r.state golden;
  let z = r.state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* uniform in [0, 1) with 53 random bits *)
let float r =
  Int64.to_float (Int64.shift_right_logical (next64 r) 11) *. 0x1p-53

let int r bound =
  if bound <= 0 then invalid_arg "Gen.int";
  int_of_float (float r *. float_of_int bound)

let shuffle r xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
