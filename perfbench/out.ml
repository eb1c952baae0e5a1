(* What one run reports: the metrics by name with their units, the
   attempted/failed operation counts, the shared result envelope, and —
   last on stdout — the one-line JSON result
   [{"correct", "attempted", "failed", "metrics"}]. The full result
   (envelope included) and, on traced runs, the recorded spans are also
   written under the output directory. *)

module J = Dggt_server.Jsonio

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ms name seconds = m name "ms" (seconds *. 1000.0)

type t = {
  attempted : int;
  failed : int;
  metrics : metric list;
  envelope : (string * J.t) list;  (** workload-specific envelope fields *)
}

type ctx = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  out_dir : string;
  commit : string;
  source_digest : string;
  dggt_exe : string;
}

(* set-up runs this many times in a run and reports its median *)
let setup_reps = 5

(* a failed operation enters the percentiles as infinity; JSON has no
   infinity, so a run with failures prints this sentinel instead *)
let finite v = if Float.is_finite v then v else 1e9

(* the highest percentile [n] samples support (ten beyond it), recorded
   beside the sample count so a reader can tell a reported tail is
   backed by data *)
let tail n = J.opt (fun p -> J.Num p) (Perfbench_core.Sample.tail_percentile n)

(* CPU time the hypervisor gave to other guests (the "steal" column of
   /proc/stat, summed over CPUs, in seconds): time this run waited that
   neither the program nor the benchmark spent. 0 where unavailable. *)
let steal_s () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float_of_string steal /. 100.0
    | _ -> 0.0
  with Sys_error _ | End_of_file | Failure _ -> 0.0

let envelope ctx (r : t) ~measured_s =
  [
    ("workload", J.Str ctx.workload);
    ("seed", J.Num (float_of_int ctx.seed));
    ("run_seconds", J.Num (float_of_int ctx.seconds));
    ("measured_s", J.Num measured_s);
    ("trace", J.Bool ctx.trace);
    ("host_cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
    ("commit", J.Str ctx.commit);
    ("source_digest", J.Str ctx.source_digest);
    ("ocaml", J.Str Sys.ocaml_version);
  ]
  @ r.envelope

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let result_path ctx ~trace =
  Filename.concat ctx.out_dir
    (Printf.sprintf "%s-trace%d.json" ctx.workload (if trace then 1 else 0))

let metrics_json ms =
  J.Obj
    (List.map
       (fun x -> (x.name, J.Obj [ ("value", J.Num (finite x.value)); ("unit", J.Str x.unit_) ]))
       ms)

let emit ctx (r : t) ~measured_s ~steal =
  let correct = r.failed = 0 in
  let env = envelope ctx r ~measured_s @ [ ("steal_s", J.Num steal) ] in
  let final =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Num (float_of_int r.attempted));
        ("failed", J.Num (float_of_int r.failed));
        ("metrics", metrics_json r.metrics);
      ]
  in
  (try
     write_file (result_path ctx ~trace:ctx.trace)
       (J.to_string (J.Obj [ ("envelope", J.Obj env); ("result", final) ]))
   with Sys_error e -> Printf.eprintf "perfbench: cannot write result: %s\n" e);
  List.iter
    (fun x -> Printf.printf "metric %-34s %16.6f %s\n" x.name (finite x.value) x.unit_)
    r.metrics;
  Printf.printf "operations attempted %d ok %d failed %d\n" r.attempted
    (r.attempted - r.failed) r.failed;
  Printf.printf "envelope %s\n" (J.to_string (J.Obj env));
  print_endline (J.to_string final);
  correct
