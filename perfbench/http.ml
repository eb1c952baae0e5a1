(* A minimal HTTP/1.1 client over one keep-alive connection: one request
   at a time, Content-Length bodies only (the server under test never
   chunks a non-streaming response). Transport errors raise [Failure]. *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let find_header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let content_length head =
  String.split_on_char '\n' head
  |> List.find_map (fun l ->
         match String.index_opt l ':' with
         | Some i
           when String.lowercase_ascii (String.trim (String.sub l 0 i))
                = "content-length" ->
             int_of_string_opt
               (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
         | _ -> None)
  |> Option.value ~default:0

let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "connection closed by server";
  Buffer.add_subbytes c.buf c.chunk 0 n

let send c ~meth ~path ?(body = "") () =
  write_all c.fd
    (Printf.sprintf
       "%s %s HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\ncontent-length: %d\r\n\r\n%s"
       meth path (String.length body) body)

(* [Some (status, body)] once a whole response is buffered (it is taken
   off the buffer; bytes past it stay for the next one), else [None] *)
let take_response c =
  let all = Buffer.contents c.buf in
  match find_header_end all with
  | None -> None
  | Some hend ->
      let h = String.sub all 0 hend in
      let status =
        match String.split_on_char ' ' h with
        | _ :: code :: _ -> (
            match int_of_string_opt code with
            | Some s -> s
            | None -> failwith "bad status line")
        | _ -> failwith "bad status line"
      in
      let clen = content_length h in
      if String.length all < hend + 4 + clen then None
      else begin
        let body = String.sub all (hend + 4) clen in
        Buffer.clear c.buf;
        Buffer.add_substring c.buf all (hend + 4 + clen) (String.length all - hend - 4 - clen);
        Some (status, body)
      end

(* [(status, body)] of one blocking request/response exchange *)
let request c ~meth ~path ?body () =
  send c ~meth ~path ?body ();
  let rec wait () =
    match take_response c with
    | Some r -> r
    | None ->
        fill c;
        wait ()
  in
  wait ()

(* one request on a fresh connection (control-plane calls) *)
let once port ~meth ~path ?body () =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) (fun () -> request c ~meth ~path ?body ())
