(* Bounded MPSC queue with a self-pipe doorbell and priority
   displacement.  Producers ring the pipe when a push makes the queue
   non-empty; the consumer polls it, which is the only way to get a
   timed wait (Condition has no timed variant), with a nanosecond
   timeout so that a sub-millisecond window is not rounded up to
   poll(2)'s milliseconds.  The pipe is a doorbell, not a counter: both
   ends are non-blocking, a full pipe on the producer side is fine (the
   bell is already ringing), and the consumer drains whatever bytes are
   there before re-checking.

   Ringing only on the empty->nonempty transition keeps the bell
   syscall off the steady-state push path: the consumer only ever
   blocks after draining the queue to empty (take_now stops early only
   when the queue is empty), so a push onto a non-empty queue can
   never be the wake-up a sleeping consumer is waiting for.  A stale
   byte from a push the consumer raced past just causes one spurious
   wake.

   Priority displacement is the overload-degradation policy: a push
   into a full queue may evict the oldest strictly-lower-priority
   entry instead of refusing (`Displaced), so cheap-SLA (low-q) work
   is shed before high-q work.  Entries live in an intrusive doubly
   linked list — FIFO push/pop as before, plus O(capacity) victim
   scan, which only runs on the overload path where a shed syscall
   round-trip dwarfs it.  Pushes without a priority all tie at 0 and
   can never displace each other, so existing callers keep the plain
   full-means-`Full behavior. *)

type 'a node = {
  v : 'a;
  prio : int;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  capacity : int;
  lock : Mutex.t;
  mutable head : 'a node option;  (* oldest *)
  mutable tail : 'a node option;  (* newest *)
  mutable len : int;
  mutable closed : bool;
  mutable max_depth : int;
  bell_r : Unix.file_descr;
  bell_w : Unix.file_descr;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Serve.Admission.create: capacity < 1";
  let bell_r, bell_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock bell_r;
  Unix.set_nonblock bell_w;
  {
    capacity;
    lock = Mutex.create ();
    head = None;
    tail = None;
    len = 0;
    closed = false;
    max_depth = 0;
    bell_r;
    bell_w;
  }

let capacity t = t.capacity

(* lock held *)
let append t v prio =
  let n = { v; prio; prev = t.tail; next = None } in
  (match t.tail with
  | Some tl -> tl.next <- Some n
  | None -> t.head <- Some n);
  t.tail <- Some n;
  t.len <- t.len + 1

(* lock held *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None;
  t.len <- t.len - 1

(* lock held; oldest node with the minimal priority, so ties shed in
   arrival order *)
let min_prio_node t =
  let rec go best = function
    | None -> best
    | Some n ->
        let best =
          match best with
          | Some b when b.prio <= n.prio -> best
          | _ -> Some n
        in
        go best n.next
  in
  go None t.head

let ring t =
  try ignore (Unix.write t.bell_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()

let drain_bell t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.bell_r buf 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  in
  go ()

let push ?(priority = 0) t v =
  Mutex.lock t.lock;
  let r =
    if t.closed then `Closed
    else if t.len >= t.capacity then begin
      match min_prio_node t with
      | Some victim when victim.prio < priority ->
          unlink t victim;
          append t v priority;
          `Displaced victim.v
      | _ -> `Full
    end
    else begin
      append t v priority;
      if t.len > t.max_depth then t.max_depth <- t.len;
      if t.len = 1 then `Ok_ring else `Ok
    end
  in
  Mutex.unlock t.lock;
  match r with
  | `Ok_ring ->
      ring t;
      `Ok
  | (`Ok | `Full | `Closed | `Displaced _) as r -> r

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  Mutex.unlock t.lock;
  ring t

(* Only once producers and the consumer are both done with the queue:
   a pusher racing destroy would ring a dead (or worse, reused)
   descriptor. *)
let destroy t =
  close t;
  (try Unix.close t.bell_r with _ -> ());
  try Unix.close t.bell_w with _ -> ()

let is_closed t =
  Mutex.lock t.lock;
  let c = t.closed in
  Mutex.unlock t.lock;
  c

let depth t =
  Mutex.lock t.lock;
  let d = t.len in
  Mutex.unlock t.lock;
  d

let max_depth t =
  Mutex.lock t.lock;
  let d = t.max_depth in
  Mutex.unlock t.lock;
  d

(* Pop up to [room] items right now.  Returns them newest-last. *)
let take_now t room =
  Mutex.lock t.lock;
  let out = ref [] in
  let k = ref 0 in
  while
    !k < room
    &&
    match t.head with
    | None -> false
    | Some n ->
        unlink t n;
        out := n.v :: !out;
        incr k;
        true
  do
    ()
  done;
  let closed = t.closed in
  Mutex.unlock t.lock;
  (List.rev !out, closed)

(* [timeout_ns < 0] waits forever *)
let wait_bell t timeout_ns =
  if Readiness.wait_readable_ns t.bell_r ~timeout_ns then drain_bell t

let pop_batch t ~max ~window_ns =
  let max = if max < 1 then 1 else max in
  let window_ns = Int64.to_float window_ns in
  let rec fill acc got deadline_ns =
    if got >= max then List.concat (List.rev acc)
    else begin
      let rem_ns = deadline_ns -. Obs.Clock.now_ns () in
      if rem_ns <= 0.0 then List.concat (List.rev acc)
      else begin
        wait_bell t (int_of_float (Float.ceil rem_ns));
        let items, closed = take_now t (max - got) in
        let got = got + List.length items in
        let acc = if items = [] then acc else items :: acc in
        if closed && items = [] then List.concat (List.rev acc)
        else fill acc got deadline_ns
      end
    end
  in
  let rec first () =
    let items, closed = take_now t max in
    match items with
    | [] ->
        if closed then []
        else begin
          wait_bell t (-1);
          first ()
        end
    | _ ->
        let got = List.length items in
        if got >= max || window_ns <= 0.0 then items
        else fill [ items ] got (Obs.Clock.now_ns () +. window_ns)
  in
  first ()
