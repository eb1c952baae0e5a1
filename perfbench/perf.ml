(* perf — the repository benchmark's measuring program.

     perf.exe --workload am_batch|te_typing --seed N --seconds S
              --trace 0|1 --dggt PATH/TO/dggt_cli.exe [--out DIR]

   Prints every metric by name with its unit, the attempted/ok/failed
   operation counts and the result envelope, then, as the last line, the
   JSON result object. Exits 0 only when no operation failed its
   correctness gate. run.py builds this program and the server binary
   from source and is the command to use. *)

let usage = "perf.exe --workload W --seed N --seconds S --trace 0|1 --dggt EXE [--out DIR]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let dggt = ref "" and out = ref ".perfbench_out" and setup_only = ref false in
  let commit = ref "unknown" and digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "am_batch | te_typing");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S minimum measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--dggt", Arg.Set_string dggt, "EXE the dggt CLI to spawn as the server");
      ("--out", Arg.Set_string out, "DIR where results and spans are written");
      ("--commit", Arg.Set_string commit, "ID recorded in the envelope");
      ("--source-digest", Arg.Set_string digest, "HEX recorded in the envelope");
      ("--setup-only", Arg.Set setup_only, " am_batch: set up, print the boot times, exit (its setup_s sample)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !setup_only then begin
    if !workload <> "am_batch" then begin
      prerr_endline "perf: --setup-only is am_batch's";
      exit 2
    end;
    Am_batch.setup_only ();
    exit 0
  end;
  let run =
    match !workload with
    | "am_batch" -> Am_batch.run
    | "te_typing" -> Te_typing.run
    | w ->
        Printf.eprintf "perf: unknown workload %S\n%s\n" w usage;
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if !workload <> "am_batch" && not (Sys.file_exists !dggt) then begin
    Printf.eprintf "perf: server binary %S not found\n" !dggt;
    exit 2
  end;
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* every server child is reaped however the run ends *)
  at_exit Server.stop_all;
  let on_signal _ =
    Server.stop_all ();
    exit 3
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ctx =
    {
      Out.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      out_dir = !out;
      commit = !commit;
      source_digest = !digest;
      dggt_exe = !dggt;
    }
  in
  let t0 = Unix.gettimeofday () and steal0 = Out.steal_s () in
  match run ctx with
  | r ->
      let measured_s = Unix.gettimeofday () -. t0 and steal = Out.steal_s () -. steal0 in
      if not (Out.emit ctx r ~measured_s ~steal) then exit 1
  | exception e ->
      Printf.eprintf "perf: %s failed: %s\n" !workload (Printexc.to_string e);
      exit 1
