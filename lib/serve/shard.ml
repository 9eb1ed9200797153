(* Parent distributor + forked shard children.

   Fork discipline (OCaml 5): Unix.fork refuses in any process that
   has ever spawned a domain, so the parent side of this module is
   strictly domain-free — the distributor is a systhread — and a child
   only builds its scheduler/server (which do spawn domains) after the
   fork.  Restart forks also happen in the parent, which stays clean
   because reaping and re-forking live on the distributor thread. *)

module P = Protocol

external send_fd_stub : Unix.file_descr -> int -> int -> unit = "caml_fpan_send_fd"

let int_of_fd : Unix.file_descr -> int = Obj.magic

type opts = {
  queue_capacity : int option;
  max_batch : int option;
  window_us : float option;
  cache_capacity : int option;
  max_conns : int option;
}

type slot = {
  mutable pid : int;
  mutable chan : Unix.file_descr;  (* parent end of the fd-passing pair *)
  mutable live : bool;
  mutable forked_at : float;  (* when this incarnation was forked *)
  mutable backoff : float;  (* current re-fork delay; 0 = healthy *)
  mutable next_fork : float;  (* when a pending re-fork may run *)
  mutable pending : bool;  (* dead, restart scheduled after backoff *)
}

type t = {
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  unlink : string option;
  slots : slot array;
  opts : opts;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  lock : Mutex.t;
  dispatched : int array;
  mutable restarts : int;
  mutable refused : int;
  mutable backoff_delays : int;
  mutable rr : int;
  stopping : bool Atomic.t;
  mutable thread : Thread.t option;
}

type stats = {
  dispatched : int array;
  restarts : int;
  refused : int;
  backoff_delays : int;
}

(* --- child ----------------------------------------------------------- *)

(* Runs in the freshly forked process; never returns.  The scheduler
   and server domains are created only now, post-fork.  Exit via
   Unix._exit so the parent's at_exit handlers (test harness cleanup,
   artifact writers) do not run a second time in each child. *)
let child_main chan (o : opts) =
  let sched = Runtime.Sched.create ~workers:1 () in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let drained = ref false in
  (* called from the server's io domain on channel EOF; the actual
     stop must happen here on the main thread (stop joins the io
     domain, so calling it from on_drain would self-deadlock) *)
  let on_drain () =
    Mutex.lock lock;
    drained := true;
    Condition.signal cond;
    Mutex.unlock lock
  in
  let server =
    Server.start_adopted ~sched ~chan ~on_drain ?queue_capacity:o.queue_capacity
      ?max_batch:o.max_batch ?window_us:o.window_us
      ?cache_capacity:o.cache_capacity ?max_conns:o.max_conns ()
  in
  Mutex.lock lock;
  while not !drained do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  Server.stop server;
  Runtime.Sched.shutdown sched;
  Unix._exit 0

(* --- forking --------------------------------------------------------- *)

let fork_shard t i =
  (* chaos seam, decided in the parent so the abort schedule is one
     deterministic counter stream regardless of child timing: the
     doomed child exits before building anything, which is exactly the
     crash-loop shape the re-fork backoff exists for *)
  let abort_child =
    match Chaos.Injector.fork_fault () with
    | Chaos.Fault.Abort_child -> true
    | _ -> false
  in
  let parent_end, child_end =
    Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0
  in
  match Unix.fork () with
  | 0 ->
      (* drop every parent-side resource the child inherited: the
         listener, the wake pipe, the other shards' channels, and our
         own parent end — the child must see channel EOF the moment
         the parent (alone) closes it *)
      (try Unix.close parent_end with _ -> ());
      (try Unix.close t.listen_fd with _ -> ());
      (try Unix.close t.wake_r with _ -> ());
      (try Unix.close t.wake_w with _ -> ());
      Array.iter
        (fun s -> if s.live then try Unix.close s.chan with _ -> ())
        t.slots;
      if abort_child then Unix._exit 41;
      child_main child_end t.opts
  | pid ->
      (try Unix.close child_end with _ -> ());
      let s = t.slots.(i) in
      s.pid <- pid;
      s.chan <- parent_end;
      s.live <- true;
      s.forked_at <- Unix.gettimeofday ();
      s.pending <- false

(* --- distributor (parent thread) -------------------------------------- *)

(* Re-fork storm cap: a shard that dies within [quick_death_s] of its
   fork is crash-looping, and re-forking it at reaper speed just burns
   pids and log lines.  Each consecutive quick death doubles a
   per-slot delay (capped); a shard that survived its first second
   resets it.  Delayed restarts run from the same reaper pass once
   their deadline arrives, so the distributor thread never sleeps. *)
let refork_backoff_base = 0.05
let refork_backoff_cap = 5.0
let quick_death_s = 1.0

let reap t =
  let now = Unix.gettimeofday () in
  Array.iteri
    (fun i s ->
      if s.live then (
        match Unix.waitpid [ WNOHANG ] s.pid with
        | 0, _ -> ()
        | _ ->
            s.live <- false;
            (try Unix.close s.chan with _ -> ());
            if not (Atomic.get t.stopping) then begin
              Mutex.lock t.lock;
              t.restarts <- t.restarts + 1;
              Mutex.unlock t.lock;
              if now -. s.forked_at < quick_death_s then begin
                s.backoff <-
                  (if s.backoff <= 0.0 then refork_backoff_base
                   else Float.min refork_backoff_cap (2.0 *. s.backoff));
                s.next_fork <- now +. s.backoff;
                s.pending <- true;
                Mutex.lock t.lock;
                t.backoff_delays <- t.backoff_delays + 1;
                Mutex.unlock t.lock
              end
              else begin
                s.backoff <- 0.0;
                fork_shard t i
              end
            end
        | exception Unix.Unix_error (ECHILD, _, _) ->
            s.live <- false;
            (try Unix.close s.chan with _ -> ())
        | exception Unix.Unix_error (EINTR, _, _) -> ())
      else if s.pending && (not (Atomic.get t.stopping)) && now >= s.next_fork then begin
        s.pending <- false;
        fork_shard t i
      end)
    t.slots

let dispatch t fd =
  let nslots = Array.length t.slots in
  let idx = t.rr in
  t.rr <- (t.rr + 1) mod nslots;
  let rec try_send tries =
    if tries >= nslots then begin
      (* no live shard could take it; an explicit close beats a
         connection that hangs forever *)
      Mutex.lock t.lock;
      t.refused <- t.refused + 1;
      Mutex.unlock t.lock
    end
    else begin
      let i = (idx + tries) mod nslots in
      let s = t.slots.(i) in
      if not s.live then try_send (tries + 1)
      else if Chaos.Injector.dispatch_fault () = Chaos.Fault.Drop_dispatch
      then
        (* chaos seam: pretend this shard refused the handoff, forcing
           the failover scan onto the next live slot *)
        try_send (tries + 1)
      else
        match send_fd_stub s.chan (Char.code 'c') (int_of_fd fd) with
        | () ->
            Mutex.lock t.lock;
            t.dispatched.(i) <- t.dispatched.(i) + 1;
            Mutex.unlock t.lock
        | exception _ ->
            (* shard mid-death; the reaper will notice and restart *)
            try_send (tries + 1)
    end
  in
  try_send 0;
  (* the kernel duplicated the descriptor into the shard (or nobody
     took it); the parent's copy is done either way *)
  try Unix.close fd with _ -> ()

let accept_all t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
        dispatch t fd;
        go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) -> Unix.sleepf 0.05
    | exception Unix.Unix_error _ -> ()
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

let distributor t =
  let rd = Readiness.create () in
  Readiness.add rd t.wake_r ~read:true ~write:false;
  Readiness.add rd t.listen_fd ~read:true ~write:false;
  while not (Atomic.get t.stopping) do
    reap t;
    match Readiness.wait rd ~timeout_ms:200 with
    | [] -> ()
    | evs ->
        List.iter
          (fun (e : Readiness.event) ->
            if e.Readiness.fd = t.wake_r then drain_wake t
            else if not (Atomic.get t.stopping) then accept_all t)
          evs
  done

(* --- lifecycle -------------------------------------------------------- *)

let start ~addr ~shards ?queue_capacity ?max_batch ?window_us ?cache_capacity ?max_conns
    () =
  if shards < 1 then invalid_arg "Serve.Shard.start: shards < 1";
  (* a send into a shard that died mid-handoff must surface as EPIPE,
     not kill the distributor *)
  P.ignore_sigpipe ();
  let listen_fd, bound, unlink = Server.bind_listen addr in
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let opts = { queue_capacity; max_batch; window_us; cache_capacity; max_conns } in
  let t =
    {
      listen_fd;
      bound;
      unlink;
      slots =
        Array.init shards (fun _ ->
            {
              pid = -1;
              chan = Unix.stdin;
              live = false;
              forked_at = 0.0;
              backoff = 0.0;
              next_fork = 0.0;
              pending = false;
            });
      opts;
      wake_r;
      wake_w;
      lock = Mutex.create ();
      dispatched = Array.make shards 0;
      restarts = 0;
      refused = 0;
      backoff_delays = 0;
      rr = 0;
      stopping = Atomic.make false;
      thread = None;
    }
  in
  for i = 0 to shards - 1 do
    fork_shard t i
  done;
  t.thread <- Some (Thread.create distributor t);
  t

let bound_addr t = t.bound
let shards t = Array.length t.slots

let pids t =
  Array.to_list t.slots |> List.filter_map (fun s -> if s.live then Some s.pid else None)

let stats t =
  Mutex.lock t.lock;
  let s =
    { dispatched = Array.copy t.dispatched; restarts = t.restarts;
      refused = t.refused; backoff_delays = t.backoff_delays }
  in
  Mutex.unlock t.lock;
  s

let ring t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EBADF), _, _) -> ()

(* Wait for a child with a deadline; escalate to SIGKILL rather than
   hang the caller on a wedged shard. *)
let reap_one pid =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with _ -> ());
          try ignore (Unix.waitpid [] pid) with _ -> ()
        end
        else begin
          Unix.sleepf 0.02;
          go ()
        end
    | _ -> ()
    | exception Unix.Unix_error (ECHILD, _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    ring t;
    (match t.thread with
    | Some th ->
        Thread.join th;
        t.thread <- None
    | None -> ());
    (* no new connections... *)
    (try Unix.close t.listen_fd with _ -> ());
    (try Unix.close t.wake_r with _ -> ());
    (try Unix.close t.wake_w with _ -> ());
    (match t.unlink with
    | Some path -> ( try Unix.unlink path with _ -> ())
    | None -> ());
    (* ...then channel EOF tells each shard to drain: finish every
       accepted request, shed stragglers "closed", exit *)
    Array.iter
      (fun s ->
        if s.live then begin
          (try Unix.close s.chan with _ -> ());
          reap_one s.pid;
          s.live <- false
        end)
      t.slots
  end
