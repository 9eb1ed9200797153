(* Accept loop + admission + drain orchestration.  The io domain owns
   the readiness set, the connection table, and all reads; replies are
   written from both the io domain (sheds, errors, stats, cache hits)
   and the batcher domain (results), serialized per connection by a
   write mutex.  Stop order is what makes the drain lossless: close
   the admission queue first (late frames get explicit "closed" sheds
   while the io loop keeps serving), join the batcher (every accepted
   request answered), and only then tear down the sockets.

   The event loop runs on {!Readiness} (poll(2) by default): no
   FD_SETSIZE ceiling, O(1) per-event connection lookup through a
   table keyed by descriptor, and O(deaths) — not O(conns) — sweeping
   of connections whose reply write failed on the batcher domain.

   A server is fed from one of two sources: a listening socket it
   owns, or an adoption channel — a unix-domain socket over which a
   parent distributor passes already-accepted connection fds
   (SCM_RIGHTS; see {!Shard}).  Channel EOF is the drain signal. *)

module P = Protocol
module J = Obs.Json_out
module M = Obs.Metrics

type addr = Unix_path of string | Tcp of { host : string; port : int }

type source =
  | Listener of { fd : Unix.file_descr; bound : Unix.sockaddr; unlink : string option }
  | Adopt of { chan : Unix.file_descr; on_drain : unit -> unit }

type conn = {
  fd : Unix.file_descr;
  defr : P.deframer;
  wlock : Mutex.t;
  out : P.sink;  (* pending reply frames; guarded by wlock *)
  mutable dirty : bool;  (* on the server's pending list; guarded by pending_lock *)
  mutable alive : bool;  (* writers may still buffer/flush; guarded by wlock *)
  mutable closed : bool;  (* fd released, exactly once; guarded by wlock *)
}

type t = {
  sched : Runtime.Sched.t;
  queue : Batcher.entry Admission.t;
  batcher : Batcher.t;
  cache : Cache.t;
  source : source;
  max_conns : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  pending_lock : Mutex.t;
  mutable pending : conn list;  (* conns with buffered batch replies *)
  mutable dying : conn list;  (* flush failed off-io-domain; io closes them *)
  conns : (int, conn) Hashtbl.t;  (* io domain only *)
  conn_count : int Atomic.t;
  (* io-domain counters, in the batcher's registry *)
  accepted : M.counter;
  adopted : M.counter;
  refused_conns : M.counter;
  shed_full : M.counter;
  shed_closed : M.counter;
  shed_displaced : M.counter;
  decode_errors : M.counter;
  mutable draining : bool;  (* io domain: adoption channel hit EOF *)
  stopping : bool Atomic.t;
  io_exit : bool Atomic.t;
  mutable io_domain : unit Domain.t option;
}

(* --- degradation policy ---------------------------------------------- *)

(* Admission priority: an SLA request's q exponent (tighter budget =
   more bits asked for = more valuable under overload), and for
   fixed-tier requests the q-equivalent of the tier's full width
   (53 bits per term), so explicit-tier work ranks with the SLA work
   asking for comparable accuracy. *)
let priority_of_request (req : P.request) =
  match req.P.sla with
  | Some q -> q
  | None -> 53 * P.tier_terms req.P.tier

let fd_key : Unix.file_descr -> int = Obj.magic

let ring t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EBADF), _, _) -> ()

(* Conn fds are non-blocking, so a write into a full socket buffer
   raises EAGAIN; wait for writability (poll — the descriptor value
   may be far beyond select's ceiling) rather than killing the
   connection, and give up only on a client that stays wedged for
   seconds. *)
(* Chaos seam around one write syscall: short writes just cap the
   length (the loop below already handles partial progress), EINTR /
   EAGAIN take the same recovery paths a real kernel would force, and
   a stall is a bounded sleep before the write.  Disarmed, this is a
   single atomic branch. *)
let chaos_write fd b k n =
  match Chaos.Injector.write_fault () with
  | Chaos.Fault.Pass -> Unix.write fd b k n
  | Chaos.Fault.Short_write cap -> Unix.write fd b k (min n (max 1 cap))
  | Chaos.Fault.Eintr -> raise (Unix.Unix_error (Unix.EINTR, "chaos-write", ""))
  | Chaos.Fault.Eagain -> raise (Unix.Unix_error (Unix.EAGAIN, "chaos-write", ""))
  | Chaos.Fault.Stall_us us ->
      Unix.sleepf (float_of_int us *. 1e-6);
      Unix.write fd b k n
  | _ -> Unix.write fd b k n

let write_all fd b n =
  let k = ref 0 in
  while !k < n do
    match chaos_write fd b !k (n - !k) with
    | w -> k := !k + w
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        if not (Readiness.wait_writable fd ~timeout_ms:5000) then
          failwith "write stalled"
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* wlock held.  On failure only mark the conn dead (and drop its
   buffered output); the fd itself is closed by the io domain, so
   closes happen on one domain and never race the readiness set. *)
let flush_locked conn =
  if conn.alive && conn.out.P.len > 0 then begin
    let n = conn.out.P.len in
    conn.out.P.len <- 0;
    try write_all conn.fd conn.out.P.bytes n with _ -> conn.alive <- false
  end

(* A writer off the io domain noticed the conn died: queue it for the
   io domain to close (O(deaths), not a full-table sweep) and ring. *)
let report_dead t conn =
  Mutex.lock t.pending_lock;
  t.dying <- conn :: t.dying;
  Mutex.unlock t.pending_lock;
  ring t

(* Write-through: io-domain replies (sheds, errors, stats, cache hits)
   go out immediately, plus whatever batch output was still buffered. *)
let send t conn resp =
  Mutex.lock conn.wlock;
  let died =
    if conn.alive then begin
      P.write_response conn.out resp;
      flush_locked conn;
      not conn.alive
    end
    else false
  in
  Mutex.unlock conn.wlock;
  if died then report_dead t conn

(* Batch replies buffer up per connection and flush once per batcher
   cycle — one write syscall (and one reader wake-up) per connection
   per micro-batch instead of per response. *)
let enqueue t conn resp =
  Mutex.lock conn.wlock;
  let alive = conn.alive in
  if alive then P.write_response conn.out resp;
  Mutex.unlock conn.wlock;
  if alive then begin
    Mutex.lock t.pending_lock;
    if not conn.dirty then begin
      conn.dirty <- true;
      t.pending <- conn :: t.pending
    end;
    Mutex.unlock t.pending_lock
  end

let flush_pending t =
  Mutex.lock t.pending_lock;
  let cs = t.pending in
  t.pending <- [];
  List.iter (fun c -> c.dirty <- false) cs;
  Mutex.unlock t.pending_lock;
  List.iter
    (fun c ->
      Mutex.lock c.wlock;
      let was_alive = c.alive in
      flush_locked c;
      (* only a death *during this flush* goes on the dying list: a
         conn the io domain already closed must not be re-reported —
         by then its fd number may belong to a new connection *)
      let died = was_alive && not c.alive in
      Mutex.unlock c.wlock;
      if died then report_dead t c)
    cs

(* io domain only (read path, dying-conn sweep, loop teardown), so a
   conn's fd is released exactly once and never while another domain
   could still be polling or reading it. *)
let close_conn conn =
  Mutex.lock conn.wlock;
  conn.alive <- false;
  conn.out.P.len <- 0;
  if not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with _ -> ()
  end;
  Mutex.unlock conn.wlock

(* --- introspection -------------------------------------------------- *)

(* Every count comes from one snapshot of the server's registry. *)
let stats_doc t =
  let snap = M.snapshot (Batcher.metrics t.batcher) in
  let b = Batcher.stats_of snap in
  let c = Cache.stats t.cache in
  let num n = J.Num (float_of_int n) in
  let count name = M.count snap ("serve." ^ name) in
  J.Obj
    [ ("schema", J.Str "fpan-serve/5");
      ("backend", J.Str "poll");
      ("accepted", num (count "accepted"));
      ("adopted_conns", num (count "adopted_conns"));
      ("open_conns", num (Atomic.get t.conn_count));
      ("refused_conns", num (count "refused_conns"));
      ("completed", num b.Batcher.completed);
      ("shed_full", num (count "shed_full"));
      ("shed_deadline", num b.Batcher.shed_deadline);
      ("shed_closed", num (count "shed_closed"));
      ("shed_displaced", num (count "shed_displaced"));
      ( "shed_by_bucket",
        J.List
          (List.map
             (fun (bucket, n) -> J.Obj [ ("bucket", J.Str bucket); ("count", num n) ])
             (Batcher.shed_by_bucket snap)) );
      ("errors", num (count "decode_errors" + b.Batcher.errors));
      ("batches", num b.Batcher.batches);
      ("queue_capacity", num (Admission.capacity t.queue));
      ("queue_depth", num (Admission.depth t.queue));
      ("queue_max_depth", num (Admission.max_depth t.queue));
      ( "cache",
        J.Obj
          [ ("capacity", num (Cache.capacity t.cache));
            ("hits", num c.Cache.hits);
            ("misses", num c.Cache.misses);
            ("size", num c.Cache.size);
            ("evictions", num c.Cache.evictions);
            ( "by_kind",
              J.List
                (List.map
                   (fun (k : Cache.kind_stats) ->
                     J.Obj
                       [ ("kind", J.Str k.Cache.kind);
                         ("hits", num k.Cache.k_hits);
                         ("misses", num k.Cache.k_misses) ])
                   c.Cache.by_kind) ) ] );
      ( "sla",
        J.Obj
          [ ("requests", num b.Batcher.sla_requests);
            ("escalations", num b.Batcher.sla_escalations);
            ( "chosen",
              J.List
                (List.map
                   (fun (tier, count) ->
                     J.Obj [ ("chosen", J.Str tier); ("count", num count) ])
                   b.Batcher.sla_chosen) ) ] );
      ( "batch_histogram",
        J.List
          (List.map
             (fun (size, count) -> J.Obj [ ("size", num size); ("count", num count) ])
             b.Batcher.histogram) );
      ( "latency_ns",
        M.to_json (List.filter (fun (_, v) -> match v with M.Hist _ -> true | _ -> false) snap) );
      ("sched", Runtime.Sched.stats_json (Runtime.Sched.stats t.sched)) ]

(* --- request path (io domain) --------------------------------------- *)

let admit t conn (req : P.request) cache_key =
  let reply =
    match cache_key with
    | None -> fun resp -> enqueue t conn resp
    | Some key ->
        (* populate on the way out; the stored components re-encode
           through the same emitter, so a later hit is bitwise this
           response *)
        fun resp ->
          (match resp with
          | P.Result { result; chosen; bound; _ } ->
              Cache.add t.cache key { Cache.result; chosen; bound }
          | _ -> ());
          enqueue t conn resp
  in
  let entry = { Batcher.req; arrival_ns = Obs.Clock.now_ns (); reply } in
  match Admission.push ~priority:(priority_of_request req) t.queue entry with
  | `Ok -> M.incr t.accepted
  | `Full ->
      M.incr t.shed_full;
      Batcher.count_shed t.batcher req;
      send t conn (P.Shed { id = req.P.id; reason = "queue_full" })
  | `Displaced victim ->
      (* overload degradation: this request was admitted by evicting
         the oldest strictly-lower-priority entry, which we now shed
         explicitly on its own connection *)
      M.incr t.accepted;
      M.incr t.shed_displaced;
      Batcher.count_shed t.batcher victim.Batcher.req;
      victim.Batcher.reply
        (P.Shed { id = victim.Batcher.req.P.id; reason = "displaced" })
  | `Closed ->
      M.incr t.shed_closed;
      Batcher.count_shed t.batcher req;
      send t conn (P.Shed { id = req.P.id; reason = "closed" })

let handle_frame t conn payload =
  let tr = Obs.Trace.enabled () in
  if tr then Obs.Trace.begin_span Obs.Trace.Io "serve.request";
  (match P.request_of_frame payload with
  | Error (id, error) ->
      M.incr t.decode_errors;
      send t conn (P.Failed { id; error })
  | Ok req when req.P.op = P.Stats ->
      send t conn (P.Stats_reply { id = req.P.id; stats = stats_doc t })
  | Ok req -> (
      (* hot path: repeated scalar operands answer straight from the
         LRU on the io domain, skipping queue and batcher *)
      match if Cache.capacity t.cache >= 1 then Cache.key_of_request req else None with
      | Some key as cache_key -> (
          match Cache.find ~kind:(Cache.kind_of_request req) t.cache key with
          | Some { Cache.result; chosen; bound } ->
              send t conn (P.Result { id = req.P.id; result; batch = 1; chosen; bound })
          | None -> admit t conn req cache_key)
      | None -> admit t conn req None));
  if tr then Obs.Trace.end_span ()

(* --- connection lifecycle (io domain) -------------------------------- *)

let install_conn t rd fd =
  Unix.set_nonblock fd;
  let conn =
    { fd; defr = P.deframer (); wlock = Mutex.create ();
      out = P.sink (); dirty = false; alive = true; closed = false }
  in
  Hashtbl.replace t.conns (fd_key fd) conn;
  Atomic.incr t.conn_count;
  Readiness.add rd fd ~read:true ~write:false

let drop_conn t rd conn =
  (* identity check, not just key equality: once this conn's fd is
     closed the kernel reuses the number for the next accept, so a
     stale drop (e.g. a dying-list entry for a conn the read path
     already closed) must not evict the NEW connection living under
     the same key *)
  (match Hashtbl.find_opt t.conns (fd_key conn.fd) with
  | Some c when c == conn ->
      Hashtbl.remove t.conns (fd_key conn.fd);
      Atomic.decr t.conn_count;
      Readiness.remove rd conn.fd
  | _ -> ());
  close_conn conn

(* Chaos seam around one read syscall: a short read caps the length
   (the deframer is built for partial frames), EINTR / EAGAIN /
   ECONNRESET surface as the real errno the handlers below already
   classify, and a stall is a bounded sleep before the read. *)
let chaos_read fd buf len =
  match Chaos.Injector.read_fault () with
  | Chaos.Fault.Pass -> Unix.read fd buf 0 len
  | Chaos.Fault.Short_read cap -> Unix.read fd buf 0 (min len (max 1 cap))
  | Chaos.Fault.Eintr -> raise (Unix.Unix_error (Unix.EINTR, "chaos-read", ""))
  | Chaos.Fault.Eagain -> raise (Unix.Unix_error (Unix.EAGAIN, "chaos-read", ""))
  | Chaos.Fault.Econnreset ->
      raise (Unix.Unix_error (Unix.ECONNRESET, "chaos-read", ""))
  | Chaos.Fault.Stall_us us ->
      Unix.sleepf (float_of_int us *. 1e-6);
      Unix.read fd buf 0 len
  | _ -> Unix.read fd buf 0 len

let read_conn t rd conn buf =
  match chaos_read conn.fd buf (Bytes.length buf) with
  | 0 -> drop_conn t rd conn
  | n -> (
      match P.feed conn.defr buf n with
      | Ok frames -> List.iter (handle_frame t conn) frames
      | Error _ -> drop_conn t rd conn)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn t rd conn

let accept_all t rd listen_fd =
  let rec go () =
    match
      (match Chaos.Injector.accept_fault () with
      | Chaos.Fault.Emfile ->
          raise (Unix.Unix_error (Unix.EMFILE, "chaos-accept", ""))
      | _ -> ());
      Unix.accept ~cloexec:true listen_fd
    with
    | fd, _ ->
        if Atomic.get t.conn_count >= t.max_conns then begin
          M.incr t.refused_conns;
          (try Unix.close fd with _ -> ())
        end
        else install_conn t rd fd;
        go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
        (* out of descriptors: the pending connection stays in the
           backlog; don't spin on a permanently-ready listener *)
        M.incr t.refused_conns;
        Unix.sleepf 0.05
    | exception Unix.Unix_error _ -> ()
  in
  go ()

external recv_fd_stub : Unix.file_descr -> int * int = "caml_fpan_recv_fd"

let adopt_all t rd chan on_drain =
  let rec go () =
    match recv_fd_stub chan with
    | -1, _ ->
        (* distributor closed the channel: drain *)
        if not t.draining then begin
          t.draining <- true;
          Readiness.remove rd chan;
          on_drain ()
        end
    | byte, fd when byte = Char.code 'c' && fd >= 0 ->
        let fd : Unix.file_descr = Obj.magic fd in
        if Atomic.get t.conn_count >= t.max_conns then begin
          M.incr t.refused_conns;
          try Unix.close fd with _ -> ()
        end
        else begin
          install_conn t rd fd;
          M.incr t.adopted
        end;
        go ()
    | byte, fd when byte = Char.code 'q' ->
        if fd >= 0 then (try Unix.close (Obj.magic fd : Unix.file_descr) with _ -> ());
        if not t.draining then begin
          t.draining <- true;
          Readiness.remove rd chan;
          on_drain ()
        end
    | _, fd ->
        (* unknown control byte: drop any attached fd, keep going *)
        if fd >= 0 then (try Unix.close (Obj.magic fd : Unix.file_descr) with _ -> ());
        go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ ->
        if not t.draining then begin
          t.draining <- true;
          Readiness.remove rd chan;
          on_drain ()
        end
  in
  go ()

let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  in
  go ()

let sweep_dying t rd =
  Mutex.lock t.pending_lock;
  let dead = t.dying in
  t.dying <- [];
  Mutex.unlock t.pending_lock;
  List.iter (fun c -> drop_conn t rd c) dead

let io_loop t =
  let rd = Readiness.create () in
  let buf = Bytes.create 65536 in
  Readiness.add rd t.wake_r ~read:true ~write:false;
  (match t.source with
  | Listener { fd; _ } -> Readiness.add rd fd ~read:true ~write:false
  | Adopt { chan; _ } -> Readiness.add rd chan ~read:true ~write:false);
  let source_fd =
    match t.source with Listener { fd; _ } -> fd | Adopt { chan; _ } -> chan
  in
  while not (Atomic.get t.io_exit) do
    (* close conns whose flush failed on the batcher domain: their fds
       were left open so the close (here) can't race the poll set *)
    sweep_dying t rd;
    (* once stopping, new work is refused at admission ("closed"
       sheds), but the listener stays registered so late frames still
       get explicit answers; a 1 s cap bounds the shutdown latency *)
    (match Readiness.wait rd ~timeout_ms:1000 with
    | [] -> ()
    | evs ->
        List.iter
          (fun (e : Readiness.event) ->
            if e.Readiness.fd = t.wake_r then drain_wake t
            else if e.Readiness.fd = source_fd then (
              match t.source with
              | Listener { fd; _ } ->
                  if not (Atomic.get t.stopping) then accept_all t rd fd
              | Adopt { chan; on_drain } -> adopt_all t rd chan on_drain)
            else
              match Hashtbl.find_opt t.conns (fd_key e.Readiness.fd) with
              | Some conn when conn.alive ->
                  if e.Readiness.error then drop_conn t rd conn
                  else if e.Readiness.readable || e.Readiness.hangup then
                    read_conn t rd conn buf
              | Some conn -> drop_conn t rd conn
              | None -> ())
          evs)
  done;
  Hashtbl.iter (fun _ conn -> close_conn conn) t.conns;
  Hashtbl.reset t.conns;
  Atomic.set t.conn_count 0;
  (match t.source with
  | Listener { fd; unlink; _ } -> (
      (try Unix.close fd with _ -> ());
      match unlink with
      | Some path -> ( try Unix.unlink path with _ -> ())
      | None -> ())
  | Adopt { chan; _ } -> ( try Unix.close chan with _ -> ()))

(* --- lifecycle ------------------------------------------------------ *)

let sockaddr_of_addr = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp { host; port } ->
      let ip =
        try Unix.inet_addr_of_string host
        with _ -> (Unix.gethostbyname host).h_addr_list.(0)
      in
      Unix.ADDR_INET (ip, port)

let bind_listen addr =
  let sa = sockaddr_of_addr addr in
  let unlink =
    match addr with
    | Unix_path path ->
        (try Unix.unlink path with _ -> ());
        Some path
    | Tcp _ -> None
  in
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa) SOCK_STREAM 0 in
  if unlink = None then Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd sa;
  Unix.listen fd 1024;
  (fd, Unix.getsockname fd, unlink)

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* 1. refuse new admissions: late frames get explicit "closed"
          sheds while the io loop keeps reading and replying *)
    Admission.close t.queue;
    ring t;
    (* 2. every accepted request is answered before the batcher exits *)
    Batcher.join t.batcher;
    (* 3. tear the sockets down *)
    Atomic.set t.io_exit true;
    ring t;
    (match t.io_domain with
    | Some d ->
        Domain.join d;
        t.io_domain <- None
    | None -> ());
    (try Unix.close t.wake_r with _ -> ());
    (try Unix.close t.wake_w with _ -> ());
    (* both domains are joined: nobody can ring the doorbell again *)
    Admission.destroy t.queue
  end

let make ~sched ~source ?(queue_capacity = 64) ?(max_batch = 32) ?(window_us = 0.)
    ?(cache_capacity = 0) ?(max_conns = 16384) () =
  (* one abruptly-closed client must not SIGPIPE-kill the service *)
  P.ignore_sigpipe ();
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let queue = Admission.create ~capacity:queue_capacity in
  let window_ns = Int64.of_float (window_us *. 1e3) in
  let t_ref = ref None in
  let flush () = match !t_ref with Some t -> flush_pending t | None -> () in
  let batcher = Batcher.create ~sched ~queue ~max_batch ~window_ns ~flush () in
  let ctr name = M.counter (Batcher.metrics batcher) ("serve." ^ name) in
  let t =
    {
      sched;
      queue;
      batcher;
      cache = (if cache_capacity >= 1 then Cache.create ~capacity:cache_capacity
               else Cache.disabled);
      source;
      max_conns;
      wake_r;
      wake_w;
      pending_lock = Mutex.create ();
      pending = [];
      dying = [];
      conns = Hashtbl.create 256;
      conn_count = Atomic.make 0;
      accepted = ctr "accepted";
      adopted = ctr "adopted_conns";
      refused_conns = ctr "refused_conns";
      shed_full = ctr "shed_full";
      shed_closed = ctr "shed_closed";
      shed_displaced = ctr "shed_displaced";
      decode_errors = ctr "decode_errors";
      draining = false;
      stopping = Atomic.make false;
      io_exit = Atomic.make false;
      io_domain = None;
    }
  in
  (* the batcher can only have replies to flush once the io domain
     (spawned below) admits requests, so the knot ties safely here *)
  t_ref := Some t;
  t.io_domain <- Some (Domain.spawn (fun () -> io_loop t));
  (* a scheduler drain (Sched.shutdown / drain_all, e.g. from a signal
     handler) stops the server first, while runs are still accepted *)
  Runtime.Sched.on_shutdown sched (fun () -> stop t);
  t

let start ~sched ~addr ?queue_capacity ?max_batch ?window_us ?cache_capacity
    ?max_conns () =
  let fd, bound, unlink = bind_listen addr in
  Unix.set_nonblock fd;
  make ~sched ~source:(Listener { fd; bound; unlink }) ?queue_capacity ?max_batch
    ?window_us ?cache_capacity ?max_conns ()

let start_adopted ~sched ~chan ?(on_drain = fun () -> ()) ?queue_capacity ?max_batch
    ?window_us ?cache_capacity ?max_conns () =
  Unix.set_nonblock chan;
  make ~sched ~source:(Adopt { chan; on_drain }) ?queue_capacity ?max_batch ?window_us
    ?cache_capacity ?max_conns ()

let bound_addr t =
  match t.source with
  | Listener { bound; _ } -> bound
  | Adopt _ -> invalid_arg "Serve.Server.bound_addr: adopted server has no listener"

let cache_stats t = Cache.stats t.cache
let open_conns t = Atomic.get t.conn_count
