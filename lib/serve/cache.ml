(* Bounded LRU: Hashtbl + intrusive doubly-linked ring, O(1) find /
   add / evict, one mutex (contention is two tiny critical sections
   per request; the io domain and the batcher's reply path are the
   only writers).  The ring closes on a sentinel node, so links are
   plain fields: moving a node to the front allocates nothing, where
   [node option] links allocated a [Some] cell per hit and per insert
   and stored it into long-lived nodes, which promoted it. *)

module P = Protocol

(* The cached value carries everything the reply needs: for SLA
   requests the chosen tier and certified bound replay along with the
   result, so a hit is byte-identical to the miss that populated it. *)
type value = {
  result : float array array;
  chosen : string option;
  bound : float option;
}

type node = {
  key : string;
  mutable value : value;
  mutable prev : node;  (* toward MRU; the sentinel's is the LRU node *)
  mutable next : node;  (* toward LRU; the sentinel's is the MRU node *)
}

type t = {
  cap : int;
  lock : Mutex.t;
  tbl : (string, node) Hashtbl.t;
  ring : node;  (* sentinel: linked to itself when empty *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  by_kind : (string, int ref * int ref) Hashtbl.t;  (* kind -> (hits, misses) *)
}

type kind_stats = { kind : string; k_hits : int; k_misses : int }

type stats = {
  hits : int;
  misses : int;
  size : int;
  evictions : int;
  by_kind : kind_stats list;
}

let create ~capacity =
  let rec ring =
    { key = ""; value = { result = [||]; chosen = None; bound = None }; prev = ring; next = ring }
  in
  {
    cap = capacity;
    lock = Mutex.create ();
    tbl = Hashtbl.create (max 16 capacity);
    ring;
    hits = 0;
    misses = 0;
    evictions = 0;
    by_kind = Hashtbl.create 16;
  }

let disabled = create ~capacity:0

let capacity t = t.cap

(* --- list surgery (lock held) --------------------------------------- *)

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_mru t n =
  n.prev <- t.ring;
  n.next <- t.ring.next;
  t.ring.next.prev <- n;
  t.ring.next <- n

(* --- keying --------------------------------------------------------- *)

(* Total operand elements worth hashing: the scalar ops have 1-2, and
   a short Sum/Dot still beats re-running an mf4 kernel.  Past this,
   key construction itself starts costing like the arithmetic. *)
let max_key_elements = 8

let cacheable_op = function
  | P.Add | P.Mul | P.Div | P.Sqrt | P.Exp | P.Log | P.Sin -> true
  | P.Dot | P.Axpy | P.Sum | P.Poly_eval | P.Program -> true
  | P.Stats -> false

(* The stats kind a request's traffic is attributed to; SLA-keyed
   entries are distinguishable from fixed-tier ones per op. *)
let kind_of_request (r : P.request) =
  match r.P.sla with
  | None -> P.op_name r.P.op
  | Some _ -> "sla:" ^ P.op_name r.P.op

let key_of_request (r : P.request) =
  if
    (not (cacheable_op r.P.op))
    || r.P.deadline_ms <> None
    || Array.length r.P.x + Array.length r.P.y + Array.length r.P.z
       > max_key_elements
  then None
  else begin
    let b = Buffer.create 96 in
    Buffer.add_string b (P.op_name r.P.op);
    Buffer.add_char b '/';
    Buffer.add_string b (P.tier_name r.P.tier);
    (* the SLA class is part of the identity: a loose-bound entry must
       never answer a tighter-bound request (and the operands below are
       the unpadded wire operands, so tier alone cannot disambiguate) *)
    (match r.P.sla with
    | None -> ()
    | Some q ->
        Buffer.add_string b "/sla";
        Buffer.add_string b (string_of_int q));
    List.iter
      (fun step ->
        Buffer.add_char b ';';
        Buffer.add_string b step)
      r.P.prog;
    (* operands as raw bit patterns (signed zeros, NaN payloads and
       subnormals stay distinct), each operand prefixed by its element
       count and each element by its width: fixed-size words, so no
       delimiters are needed *)
    let word n = Buffer.add_int64_le b (Int64.of_int n) in
    let operand els =
      word (Array.length els);
      Array.iter
        (fun comps ->
          word (Array.length comps);
          Array.iter (fun c -> Buffer.add_int64_le b (Int64.bits_of_float c)) comps)
        els
    in
    Buffer.add_char b '|';
    operand r.P.x;
    operand r.P.y;
    operand r.P.z;
    Some (Buffer.contents b)
  end

(* --- operations ------------------------------------------------------ *)

let kind_cell (t : t) kind =
  match Hashtbl.find_opt t.by_kind kind with
  | Some cell -> cell
  | None ->
      let cell = (ref 0, ref 0) in
      Hashtbl.add t.by_kind kind cell;
      cell

let find ?(kind = "other") t key =
  if t.cap < 1 then None
  else begin
    Mutex.lock t.lock;
    let kh, km = kind_cell t kind in
    let r =
      match Hashtbl.find_opt t.tbl key with
      | Some n ->
          unlink n;
          push_mru t n;
          t.hits <- t.hits + 1;
          incr kh;
          Some n.value
      | None ->
          t.misses <- t.misses + 1;
          incr km;
          None
    in
    Mutex.unlock t.lock;
    r
  end

let add t key value =
  if t.cap >= 1 then begin
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.tbl key with
    | Some n ->
        (* racing misses on the same key both insert; keep one node *)
        n.value <- value;
        unlink n;
        push_mru t n
    | None ->
        let victim = t.ring.prev in
        if Hashtbl.length t.tbl >= t.cap && victim != t.ring then begin
          unlink victim;
          Hashtbl.remove t.tbl victim.key;
          t.evictions <- t.evictions + 1
        end;
        let n = { key; value; prev = t.ring; next = t.ring } in
        Hashtbl.replace t.tbl key n;
        push_mru t n);
    Mutex.unlock t.lock
  end

let stats t =
  Mutex.lock t.lock;
  let by_kind =
    Hashtbl.fold
      (fun kind (kh, km) acc -> { kind; k_hits = !kh; k_misses = !km } :: acc)
      t.by_kind []
    |> List.sort (fun a b -> compare a.kind b.kind)
  in
  let s =
    { hits = t.hits; misses = t.misses; size = Hashtbl.length t.tbl;
      evictions = t.evictions; by_kind }
  in
  Mutex.unlock t.lock;
  s

let fold_lru f t init =
  Mutex.lock t.lock;
  let rec go acc n = if n == t.ring then acc else go (f n.key acc) n.prev in
  let r = go init t.ring.prev in
  Mutex.unlock t.lock;
  r
