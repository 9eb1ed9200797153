(** Registries of counters, gauges, and log2 histograms.

    A {!registry} is one name space of metrics.  Each server owns one
    (created by [Serve.Batcher]), so servers sharing a process report
    separate numbers; {!global} is the process-wide registry everything
    else (fuzz campaigns, traces, benches) records into.

    Counters and histograms are sharded per domain (one private cell
    per domain per metric, created on first touch), so updates are
    plain mutable stores — no locks, no atomics — and {!snapshot}
    merges the shards.  The merge is pointwise commutative: counter
    sum, gauge max, bucketwise histogram sum, so snapshots are
    independent of shard and merge order.

    Histogram bucketing ({!bucket_of}, shared with Check.Ulp_stats):
    bucket 0 is everything below [2^lo_exp] (including NaN), the last
    bucket everything at or above [2^hi_exp], bucket [i] in between
    covers [[2^(lo_exp+i-1), 2^(lo_exp+i))]. *)

type histogram = {
  lo_exp : int;
  hi_exp : int;
  buckets : int array;
  count : int;
  sum : float;  (** finite observations only *)
  max_v : float;
}

type value = Counter of int | Gauge of float | Hist of histogram

type snapshot = (string * value) list
(** Sorted by metric name. *)

type registry
type counter
type gauge
type hist

val create : unit -> registry
(** A fresh, empty registry. *)

val global : registry
(** The process-wide registry. *)

val counter : registry -> string -> counter
(** Find or register.  [Invalid_argument] if the name is already
    registered with a different kind (same for {!gauge}, {!hist}). *)

val gauge : registry -> string -> gauge

val hist : registry -> ?lo_exp:int -> ?hi_exp:int -> string -> hist
(** Default bucket range [2^-12 .. 2^40] — wide enough for both ulp
    ratios and nanosecond durations. *)

val add : counter -> int -> unit
val incr : counter -> unit
val set : gauge -> float -> unit
val observe : hist -> float -> unit

val bucket_of : lo_exp:int -> hi_exp:int -> float -> int
(** The bucket index {!observe} uses (exposed for the boundary tests). *)

val snapshot : registry -> snapshot
(** Merge all shards of all metrics of one registry.  Take it while
    updating domains are quiescent for exact values. *)

val reset : registry -> unit

val count : snapshot -> string -> int
(** A counter's value; 0 if [snapshot] has no counter of that name. *)

val family : snapshot -> string -> (string * int) list
(** [family s prefix] is the counter family under [prefix]:
    [(label, n)] for every counter named [prefix ^ label] with
    [n > 0], in name order. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise union-merge; commutative.  [Invalid_argument] on metric
    kind or histogram-shape mismatch. *)

val to_json : snapshot -> Json_out.t
