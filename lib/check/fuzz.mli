(** The fuzzing campaign: deterministic corpus generation over the
    implementation registry, with shrinking and a machine-readable
    report (schema ["fpan-check/1"], written next to the BENCH_*.json
    files by [fpan_tool fuzz]). *)

type config = {
  cases : int;          (** scalar cases per tier; vector cases are [cases/64] *)
  seed : int;
  tiers : int list;     (** subset of [2; 3; 4] *)
  ops : Corpus.op list;
  vec_len : int;
  max_findings : int;   (** findings shrunk and carried in the report *)
}

val default : config

type shrunk_finding = {
  finding : Differ.finding;
  shrunk : float array array;
  shrunk_terms : int;
}

type stat_row = {
  impl : string;
  op : string;
  q : int;
  gated : bool;
  stats : Ulp_stats.t;
}

type report = {
  config : config;
  scalar_cases : int;
  vector_cases : int;
  failure_count : int;
  failures : shrunk_finding list;
  rows : stat_row list;
}

val passed : report -> bool
val run : config -> report

val self_test : unit -> (Differ.finding * float array array * int, string) result
(** Mutation sanity check: enrolls QD's [sloppy_add] (broken
    renormalization under cancellation) as a gated implementation; it
    must be caught and its counterexample shrunk to at most four
    nonzero terms.  Returns the finding, the shrunk inputs, and the
    term count — or a diagnostic if the harness failed to catch it. *)

val to_json : report -> Obs.Json_out.t
val write_report : string -> report -> unit
