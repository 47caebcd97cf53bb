(* Minimal single-threaded HTTP/1.1 responder for the live scrape
   endpoint.  Scope is deliberately tiny: GET, one connection at a
   time, bounded request reads, Content-Length + Connection: close
   responses — a Prometheus scraper or curl needs nothing more, and a
   full server dependency is exactly what this repo avoids.

   Total on untrusted input: a malformed request line is a 400, an
   unknown path a 404, a non-GET method a 405; socket errors close the
   connection and the loop continues.  A client that goes away
   mid-response is such an error, not a SIGPIPE ([serve] ignores the
   signal process-wide), and one that stalls is cut off by per-connection
   send/receive timeouts, so no client holds the loop for more than
   about [io_timeout] per read or write.  The accept loop polls with a
   select timeout so [stop] is honoured within ~a quarter second. *)

let io_timeout = 1.0

type response = { status : int; content_type : string; body : string }

let text ?(status = 200) ?(content_type = "text/plain; version=0.0.4") body =
  { status; content_type; body }

type t = {
  sock : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  mutable thread : Thread.t option;  (* None once joined *)
}

let status_line = function
  | 200 -> "200 OK"
  | 400 -> "400 Bad Request"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | c -> string_of_int c ^ " Status"

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w <= 0 then off := n else off := !off + w
  done

let respond fd (r : response) =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
        close\r\n\r\n%s"
       (status_line r.status) r.content_type
       (String.length r.body)
       r.body)

(* Read until the header terminator or a size/EOF bound; return the
   request head.  8 KiB is far beyond any scrape request. *)
let read_head fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec go () =
    if Buffer.length buf > 8192 then None
    else
      let sub = Buffer.contents buf in
      let has_terminator =
        let rec scan i =
          i >= 0
          && (String.sub sub i 4 = "\r\n\r\n" || scan (i - 1))
        in
        String.length sub >= 4 && scan (String.length sub - 4)
      in
      if has_terminator then Some sub
      else
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error _ -> None
  in
  go ()

(* "GET /path HTTP/1.1" → `Get path; anything else shaped like a
   request line → `Other; garbage → `Bad. *)
let parse_request head =
  match String.index_opt head '\n' with
  | None -> `Bad
  | Some eol -> (
    let line = String.trim (String.sub head 0 eol) in
    match String.split_on_char ' ' line with
    | [ meth; path; version ]
      when path <> "" && path.[0] = '/'
           && String.length version >= 5
           && String.sub version 0 5 = "HTTP/" ->
      if meth = "GET" then `Get path else `Other
    | _ -> `Bad)

let serve_connection handler fd =
  (match read_head fd with
  | None -> respond fd (text ~status:400 "bad request\n")
  | Some head -> (
    match parse_request head with
    | `Bad -> respond fd (text ~status:400 "bad request\n")
    | `Other -> respond fd (text ~status:405 "method not allowed\n")
    | `Get path -> (
      match handler path with
      | Some r -> respond fd r
      | None -> respond fd (text ~status:404 "not found\n"))));
  Unix.close fd

let accept_loop t handler =
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.sock ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept t.sock with
      | fd, _ -> (
        try
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout;
          serve_connection handler fd
        with Unix.Unix_error _ -> ( try Unix.close fd with Unix.Unix_error _ -> ()))
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let serve ?(port = 0) handler =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t = { sock; bound_port; stopping = Atomic.make false; thread = None } in
  t.thread <- Some (Thread.create (fun () -> accept_loop t handler) ());
  t

let port t = t.bound_port

let stop t =
  Atomic.set t.stopping true;
  (match t.thread with
  | Some th ->
    t.thread <- None;
    Thread.join th;
    (try Unix.close t.sock with Unix.Unix_error _ -> ())
  | None -> ())

(* ----- the tiny client ----- *)

let get ?(host = "127.0.0.1") ~port path =
  match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
  | [] -> None
  | ai :: _ -> (
    let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype 0 in
    let finish v =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      v
    in
    try
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      Unix.connect fd ai.Unix.ai_addr;
      write_all fd
        (Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
           path host);
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        if Buffer.length buf > 8 * 1024 * 1024 then ()
        else
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      let doc = Buffer.contents buf in
      (* "HTTP/1.1 NNN ...\r\n...\r\n\r\nbody" *)
      let status =
        match String.split_on_char ' ' doc with
        | _ :: code :: _ -> int_of_string_opt (String.trim code)
        | _ -> None
      in
      let body =
        let rec find i =
          if i + 4 > String.length doc then None
          else if String.sub doc i 4 = "\r\n\r\n" then Some (i + 4)
          else find (i + 1)
        in
        Option.map
          (fun i -> String.sub doc i (String.length doc - i))
          (find 0)
      in
      match (status, body) with
      | Some s, Some b -> finish (Some (s, b))
      | _ -> finish None
    with Unix.Unix_error _ | Failure _ -> finish None)
