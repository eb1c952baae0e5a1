(* The server under test: a `dggt serve` child process with default
   flags on a free loopback port. Every child the benchmark starts is
   registered here, and [stop_all] (run on exit and on SIGTERM/SIGINT)
   terminates and reaps each one. *)

type t = { pid : int; port : int; log : string }

let live : int list ref = ref []

let free_port () =
  let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> failwith "free_port")

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* SIGTERM, then SIGKILL if the child has not exited within [grace_s] *)
let terminate ?(grace_s = 5.0) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_retry [] pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let stop t = terminate t.pid
let stop_all () = List.iter (fun pid -> terminate ~grace_s:2.0 pid) !live

let spawn ~exe ~log =
  let port = free_port () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close err)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--addr"; "127.0.0.1"; "--port"; string_of_int port |]
          devnull devnull err)
  in
  live := pid :: !live;
  { pid; port; log }

(* poll GET /healthz until it answers 200 *)
let await_healthy ?(timeout_s = 60.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let ok =
      match Http.once t.port ~meth:"GET" ~path:"/healthz" () with
      | 200, _ -> true
      | _ -> false
      | exception (Unix.Unix_error _ | Failure _) -> false
    in
    if ok then ()
    else begin
      (match waitpid_retry [ Unix.WNOHANG ] t.pid with
      | 0, _ -> ()
      | _ -> failwith (Printf.sprintf "dggt serve exited during start-up (see %s)" t.log));
      if Unix.gettimeofday () > deadline then failwith "dggt serve never became healthy";
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* peak resident set (VmHWM) of a process, in MiB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* GET /metrics as [(series, value)], series being the metric name with
   its label set verbatim, e.g. [dggt_cache_hits_total{cache="q_cache"}] *)
let metrics port =
  match Http.once port ~meth:"GET" ~path:"/metrics" () with
  | 200, body ->
      String.split_on_char '\n' body
      |> List.filter_map (fun l ->
             if l = "" || l.[0] = '#' then None
             else
               match String.rindex_opt l ' ' with
               | Some i -> (
                   match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
                   | Some v -> Some (String.sub l 0 i, v)
                   | None -> None)
               | None -> None)
  | status, _ -> failwith (Printf.sprintf "GET /metrics answered %d" status)

let metric ms series = Option.value (List.assoc_opt series ms) ~default:0.0
