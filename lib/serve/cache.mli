(** Memoizing hot-path cache for repeated scalar requests.

    A bounded LRU keyed on the request's exact identity: operation,
    tier, SLA exponent, program chain, and every operand component's
    bit pattern ([Int64.bits_of_float]) — one key string per distinct
    bit pattern, so [0.0] vs [-0.0], subnormals, and NaN payloads
    never collapse onto each other.  The cached value is the full result
    component array; replaying it re-encodes through the same
    deterministic emitter, so a hit is bitwise-identical to the miss
    that populated it {e by construction}.

    Only cheap-to-key requests are memoized: the scalar arithmetic and
    elementary ops ([add mul div sqrt exp log sin]) — transcendentals
    are exactly where repeated-operand traffic pays — plus any other
    request whose total operand element count stays under a small
    bound.  Vector requests with large operands are not worth hashing.

    Thread-safe (one mutex; all operations are O(1)).  Hits, misses
    and evictions are counted under that mutex and reported by
    {!stats}. *)

type t

val create : capacity:int -> t
(** [capacity < 1] is {!disabled} (every lookup misses, nothing is
    stored). *)

val disabled : t

val capacity : t -> int

type value = {
  result : float array array;
  chosen : string option;
      (** SLA entries: the tier that met the budget, replayed on hits. *)
  bound : float option;  (** SLA entries: the certified error bound. *)
}

type kind_stats = { kind : string; k_hits : int; k_misses : int }

type stats = {
  hits : int;
  misses : int;
  size : int;
  evictions : int;
  by_kind : kind_stats list;  (** per-request-kind counters, sorted by kind *)
}

val stats : t -> stats

val kind_of_request : Protocol.request -> string
(** The stats kind a request's lookups are attributed to: the op name,
    prefixed with ["sla:"] for SLA requests. *)

val key_of_request : Protocol.request -> string option
(** [None] when the request is not cacheable (stats, vector ops with
    large operands, or any request carrying a deadline — a deadline
    makes the reply timing-dependent, so it must travel the queue).
    For SLA requests the key includes the SLA exponent, so a
    loose-bound entry never answers a tighter-bound request. *)

val find : ?kind:string -> t -> string -> value option
(** LRU touch on hit.  Counts a hit or a miss, both globally and under
    [kind] (default ["other"]). *)

val add : t -> string -> value -> unit
(** Insert (or refresh) a binding, evicting the least-recently-used
    entry when at capacity. *)

val fold_lru : (string -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the keys, least-recently-used first (tests pin the
    eviction order through this). *)
