(* Tests of the benchmark's own arithmetic and generators. *)

open Perfbench_core

let fl = Alcotest.float 1e-12
let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

(* --- percentiles ----------------------------------------------------- *)

let nearest_rank () =
  let xs = range 1 10 in
  Alcotest.check fl "p10" 1.0 (Sample.percentile xs 10.0);
  Alcotest.check fl "p50" 5.0 (Sample.percentile xs 50.0);
  Alcotest.check fl "p90" 9.0 (Sample.percentile xs 90.0);
  Alcotest.check fl "p91 rounds up" 10.0 (Sample.percentile xs 91.0);
  Alcotest.check fl "p100" 10.0 (Sample.percentile xs 100.0);
  (* order of the input does not matter, and the value is a sample *)
  Alcotest.check fl "p99 of 1..100" 99.0 (Sample.percentile (List.rev (range 1 100)) 99.0);
  Alcotest.check fl "p50 of one" 7.0 (Sample.percentile [ 7.0 ] 50.0);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Sample.percentile [] 50.0))

let tail_rule () =
  let t = Alcotest.(option (float 0.0)) in
  Alcotest.check t "100 samples: p90 has 10 beyond" (Some 90.0) (Sample.tail_percentile 100);
  Alcotest.check t "99 samples: only p75" (Some 75.0) (Sample.tail_percentile 99);
  Alcotest.check t "1000 samples: p99" (Some 99.0) (Sample.tail_percentile 1000);
  Alcotest.check t "10000 samples: p99.9" (Some 99.9) (Sample.tail_percentile 10000);
  Alcotest.check t "too few for any" None (Sample.tail_percentile 15);
  Alcotest.(check int) "beyond p90 of 100" 10 (Sample.beyond ~n:100 90.0);
  Alcotest.(check int) "beyond p99 of 100" 1 (Sample.beyond ~n:100 99.0)

(* --- failures ------------------------------------------------------- *)

let failed_is_a_miss () =
  (* two answered in 1 ms, two failed: a failure is slower than any
     limit, so it pushes the tail instead of vanishing from it *)
  let xs = [ 0.001; Sample.failed; 0.001; Sample.failed ] in
  Alcotest.check fl "p50 of the answered half" 0.001 (Sample.percentile xs 50.0);
  Alcotest.(check bool) "p75 misses every limit" true (Sample.percentile xs 75.0 = infinity);
  (* two failures among 1000 operations fill ranks 999 and 1000: p99.9
     misses, p99 does not *)
  let many = Sample.failed :: Sample.failed :: List.init 998 (fun _ -> 0.001) in
  Alcotest.(check bool) "p99 still answered" true (Sample.percentile many 99.0 = 0.001);
  Alcotest.(check bool) "p99.9 is the failure" true (Sample.percentile many 99.9 = infinity)

(* --- spans ------------------------------------------------------------- *)

let span id ?parent start stop = { Spans.id; parent; name = "s" ^ string_of_int id; rid = 0; start; stop }

let self_time () =
  (* parent [0,10]; children [1,3] and [2,5] overlap (covered 4), [7,8]
     adds 1, and [9,12] sticks out of the parent (only [9,10] counts) *)
  let spans =
    [ span 0 0.0 10.0; span 1 ~parent:0 1.0 3.0; span 2 ~parent:0 2.0 5.0; span 3 ~parent:0 7.0 8.0; span 4 ~parent:0 9.0 12.0; span 5 ~parent:2 2.5 3.5 ]
  in
  let self = List.map (fun (s, t) -> (s.Spans.id, t)) (Spans.self_times spans) in
  Alcotest.check fl "parent self" 4.0 (List.assoc 0 self);
  Alcotest.check fl "leaf self = duration" 2.0 (List.assoc 1 self);
  Alcotest.check fl "grandchild subtracted once" 2.0 (List.assoc 2 self);
  Alcotest.check fl "covered union" 5.0 (Spans.covered ~lo:0.0 ~hi:10.0 [ (1.0, 3.0); (2.0, 5.0); (7.0, 8.0) ]);
  let by_name = Spans.self_by_name spans in
  Alcotest.(check (list string)) "first-seen order" [ "s0"; "s1"; "s2"; "s3"; "s4"; "s5" ] (List.map fst by_name)

let recorder () =
  let t = Spans.create () in
  let inner = ref (-1) in
  let v =
    Spans.time t ~name:"outer" ~rid:7 (fun outer ->
        Spans.time t ~parent:outer ~name:"inner" ~rid:7 (fun id ->
            inner := id;
            42))
  in
  Alcotest.(check int) "value passes through" 42 v;
  let spans = Spans.all t in
  Alcotest.(check (list string)) "both recorded" [ "inner"; "outer" ] (List.map (fun s -> s.Spans.name) spans);
  let i = List.find (fun s -> s.Spans.id = !inner) spans in
  let o = List.find (fun s -> s.Spans.name = "outer") spans in
  Alcotest.(check (option int)) "nested" (Some o.Spans.id) i.Spans.parent;
  Alcotest.(check bool) "inside" true (o.Spans.start <= i.Spans.start && i.Spans.stop <= o.Spans.stop)

(* --- generators -------------------------------------------------------- *)

let order seed label = Gen.shuffle (Gen.derive seed label) (List.init 50 Fun.id)

let deterministic () =
  Alcotest.(check (list int)) "same seed, same order" (order 9 "o") (order 9 "o");
  Alcotest.(check bool) "other seed, other order" true (order 9 "o" <> order 10 "o");
  Alcotest.(check bool) "streams are independent" true (order 9 "o" <> order 9 "p");
  Alcotest.(check (list int)) "a permutation" (List.init 50 Fun.id) (List.sort compare (order 9 "o"));
  let g = Gen.make 1 in
  for _ = 1 to 1000 do
    let u = Gen.float g in
    if u < 0.0 || u >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

(* --- typing revisions -------------------------------------------------- *)

let revisions () =
  Alcotest.(check (list string)) "word prefixes, whole, punctuated"
    [ "delete"; "delete all"; "delete all numbers"; "delete all numbers." ]
    (Typing.revisions "delete all numbers");
  Alcotest.(check (list string)) "quoted spaces survive"
    [ "replace"; "replace \"\\t\""; "replace \"\\t\" with"; "replace \"\\t\" with \""; "replace \"\\t\" with \"  \""; "replace \"\\t\" with \"  \".";  ]
    (Typing.revisions "replace \"\\t\" with \"  \"")

let () =
  Alcotest.run "perfbench"
    [
      ("percentiles", [ Alcotest.test_case "nearest rank" `Quick nearest_rank; Alcotest.test_case "tail rule" `Quick tail_rule ]);
      ("failures", [ Alcotest.test_case "failed operations are misses" `Quick failed_is_a_miss ]);
      ("spans", [ Alcotest.test_case "self time" `Quick self_time; Alcotest.test_case "recorder nesting" `Quick recorder ]);
      ("generators", [ Alcotest.test_case "deterministic per seed" `Quick deterministic ]);
      ("typing", [ Alcotest.test_case "revisions" `Quick revisions ]);
    ]
