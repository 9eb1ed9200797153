module P = Protocol
module J = Obs.Json_out

type t = {
  mutable fd : Unix.file_descr;
  mutable defr : P.deframer;
  rbuf : Bytes.t;
  mutable pending : string Queue.t;  (* frames already read but not returned *)
  mutable next_id : int;
  sa : Unix.sockaddr;
  deadline_ms : int option;
}

(* Connect one socket to [sa].  With a deadline the connect goes
   non-blocking — EINPROGRESS, wait for writability, then read the
   socket error back out of SO_ERROR (the only place an async connect
   reports failure) — and the socket returns to blocking mode, with
   the deadline re-applied per read by [next_frame]. *)
let connect_fd ?deadline_ms sa =
  let domain = Unix.domain_of_sockaddr sa in
  let fd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
  (try
     match deadline_ms with
     | None -> Unix.connect fd sa
     | Some ms -> (
         Unix.set_nonblock fd;
         (match Unix.connect fd sa with
         | () -> ()
         | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _)
           ->
             if not (Readiness.wait_writable fd ~timeout_ms:ms) then
               failwith "Serve.Client: connect deadline exceeded";
             (match Unix.getsockopt_error fd with
             | None -> ()
             | Some err -> raise (Unix.Unix_error (err, "connect", ""))));
         Unix.clear_nonblock fd)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

let connect_sockaddr ?deadline_ms sa =
  P.ignore_sigpipe ();
  let fd = connect_fd ?deadline_ms sa in
  {
    fd;
    defr = P.deframer ();
    rbuf = Bytes.create 65536;
    pending = Queue.create ();
    next_id = 1;
    sa;
    deadline_ms;
  }

let connect ?deadline_ms addr = connect_sockaddr ?deadline_ms (Server.sockaddr_of_addr addr)

let close t = try Unix.close t.fd with _ -> ()

(* Fresh socket, fresh framing state.  Correlation ids keep counting
   up — a retried request re-sends its original id, and any half-read
   frame from the dead connection died with the old deframer. *)
let reconnect t =
  close t;
  t.fd <- connect_fd ?deadline_ms:t.deadline_ms t.sa;
  t.defr <- P.deframer ();
  t.pending <- Queue.create ()

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let send t req = P.write_frame t.fd (J.to_string_compact (P.request_to_json req))

(* Buffered: one read can surface a whole coalesced batch of reply
   frames, which later recv calls pop without touching the socket. *)
let rec next_frame t =
  match Queue.take_opt t.pending with
  | Some payload -> payload
  | None -> (
      (match t.deadline_ms with
      | Some ms when not (Readiness.wait_readable t.fd ~timeout_ms:ms) ->
          failwith "Serve.Client: read deadline exceeded"
      | _ -> ());
      match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
      | 0 -> failwith "Serve.Client: connection closed"
      | n -> (
          match P.feed t.defr t.rbuf n with
          | Ok frames ->
              List.iter (fun f -> Queue.add f t.pending) frames;
              next_frame t
          | Error e -> failwith ("Serve.Client: bad frame: " ^ e))
      | exception Unix.Unix_error (EINTR, _, _) -> next_frame t)

let recv t =
  let payload = next_frame t in
  match J.parse payload with
  | Error e -> failwith ("Serve.Client: bad response json: " ^ e)
  | Ok doc -> (
      match P.response_of_json doc with
      | Error e -> failwith ("Serve.Client: bad response: " ^ e)
      | Ok resp -> resp)

let call t req =
  send t req;
  let rec wait () =
    let resp = recv t in
    if P.response_id resp = req.P.id then resp else wait ()
  in
  wait ()

let call_retry ?(max_attempts = 8) ?(base_backoff_ms = 10.0) ?(seed = 0) t req
    =
  let rec attempt n =
    match call t req with
    | resp -> resp
    | exception e ->
        if n + 1 >= max_attempts then raise e;
        let ms =
          Chaos.Rng.backoff_ms ~seed ~stream:req.P.id ~attempt:n
            ~base_ms:base_backoff_ms
        in
        Unix.sleepf (ms *. 1e-3);
        (* a failed reconnect (shard still restarting) just burns this
           attempt: the dead descriptor makes the next call fail fast
           and the loop backs off again *)
        (try reconnect t with _ -> ());
        attempt (n + 1)
  in
  attempt 0

let call_many t reqs =
  List.iter (send t) reqs;
  let wanted = List.length reqs in
  let tbl = Hashtbl.create (2 * wanted) in
  let got = ref 0 in
  while !got < wanted do
    let resp = recv t in
    Hashtbl.replace tbl (P.response_id resp) resp;
    incr got
  done;
  List.map
    (fun (r : P.request) ->
      match Hashtbl.find_opt tbl r.P.id with
      | Some resp -> resp
      | None -> failwith "Serve.Client: response id never arrived")
    reqs

let stats t =
  let req =
    {
      P.id = fresh_id t;
      op = P.Stats;
      tier = P.Mf2;
      sla = None;
      deadline_ms = None;
      prog = [];
      x = [||];
      y = [||];
      z = [||];
    }
  in
  match call t req with
  | P.Stats_reply { stats; _ } -> stats
  | _ -> failwith "Serve.Client: stats got a non-stats reply"
