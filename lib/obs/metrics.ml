(* Registries of counters, gauges, and log2 histograms.

   A registry is a name table plus the lock that guards it.  Each
   server owns one (Serve.Batcher creates it), so two servers in one
   process keep separate numbers; [global] serves everything else
   (fuzz campaigns, traces, benches).

   Counters and histograms are sharded per domain: each domain gets a
   private cell on first touch (via a per-metric [Domain.DLS] key), so
   the hot update path is a plain mutable store with no atomics and no
   lock.  [snapshot] merges the shards under the registry lock; the
   merge is pointwise commutative (counter sum, gauge max, bucketwise
   histogram sum), so the result does not depend on shard or argument
   order — the property test/test_obs.ml exercises.

   Histograms bucket by log2 (Check.Ulp_stats reuses [bucket_of]):
   bucket 0 collects everything below 2^lo_exp (including NaN), the
   last bucket everything at or above 2^hi_exp, and bucket i in
   between covers [2^(lo_exp+i-1), 2^(lo_exp+i)). *)

type histogram = {
  lo_exp : int;
  hi_exp : int;
  buckets : int array;
  count : int;
  sum : float;
  max_v : float;
}

type value = Counter of int | Gauge of float | Hist of histogram

type snapshot = (string * value) list

(* --- shards --------------------------------------------------------- *)

type cshard = { mutable cs_n : int }

type hshard = {
  hs_buckets : int array;
  mutable hs_count : int;
  mutable hs_sum : float;
  mutable hs_max : float;
}

type counter = { c_shards : cshard list ref; c_key : cshard Domain.DLS.key }

type gauge = { mutable g_v : float }

type hist = {
  h_lo : int;
  h_hi : int;
  h_shards : hshard list ref;
  h_key : hshard Domain.DLS.key;
}

type metric = M_counter of counter | M_gauge of gauge | M_hist of hist

type registry = { tbl : (string, metric) Hashtbl.t; lock : Mutex.t }

let create () = { tbl = Hashtbl.create 97; lock = Mutex.create () }
let global = create ()

let locked r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

(* --- registration --------------------------------------------------- *)

(* The DLS initialiser runs on a domain's first update, not under the
   registry lock the registering caller holds, and links the domain's
   new shard in for [snapshot]. *)
let shard_key r shards fresh =
  Domain.DLS.new_key (fun () ->
      let s = fresh () in
      Mutex.lock r.lock;
      shards := s :: !shards;
      Mutex.unlock r.lock;
      s)

let counter r name =
  locked r (fun () ->
      match Hashtbl.find_opt r.tbl name with
      | Some (M_counter c) -> c
      | Some _ -> invalid_arg ("Obs.Metrics.counter: " ^ name ^ " has another kind")
      | None ->
          let shards = ref [] in
          let key = shard_key r shards (fun () -> { cs_n = 0 }) in
          let c = { c_shards = shards; c_key = key } in
          Hashtbl.add r.tbl name (M_counter c);
          c)

let gauge r name =
  locked r (fun () ->
      match Hashtbl.find_opt r.tbl name with
      | Some (M_gauge g) -> g
      | Some _ -> invalid_arg ("Obs.Metrics.gauge: " ^ name ^ " has another kind")
      | None ->
          let g = { g_v = 0.0 } in
          Hashtbl.add r.tbl name (M_gauge g);
          g)

let default_lo_exp = -12
let default_hi_exp = 40

let hist r ?(lo_exp = default_lo_exp) ?(hi_exp = default_hi_exp) name =
  if hi_exp <= lo_exp then invalid_arg "Obs.Metrics.hist: hi_exp <= lo_exp";
  locked r (fun () ->
      match Hashtbl.find_opt r.tbl name with
      | Some (M_hist h) -> h
      | Some _ -> invalid_arg ("Obs.Metrics.hist: " ^ name ^ " has another kind")
      | None ->
          let nb = hi_exp - lo_exp + 2 in
          let shards = ref [] in
          let key =
            shard_key r shards (fun () ->
                { hs_buckets = Array.make nb 0; hs_count = 0; hs_sum = 0.0; hs_max = 0.0 })
          in
          let h = { h_lo = lo_exp; h_hi = hi_exp; h_shards = shards; h_key = key } in
          Hashtbl.add r.tbl name (M_hist h);
          h)

(* --- updates -------------------------------------------------------- *)

let add c k =
  let s = Domain.DLS.get c.c_key in
  s.cs_n <- s.cs_n + k

let incr c = add c 1

let set g v = g.g_v <- v

let bucket_of ~lo_exp ~hi_exp v =
  let nb = hi_exp - lo_exp + 2 in
  if not (v >= Float.ldexp 1.0 lo_exp) then 0 (* below range, and NaN *)
  else if not (v < Float.ldexp 1.0 hi_exp) then nb - 1
  else begin
    (* frexp gives floor(log2 v) = e - 1 exactly; Float.log2 would
       round values one ulp below a power of two up onto the boundary
       and misbucket them *)
    let b = 1 + (snd (Float.frexp v) - 1 - lo_exp) in
    Stdlib.min (nb - 2) (Stdlib.max 1 b)
  end

let observe h v =
  let s = Domain.DLS.get h.h_key in
  let b = bucket_of ~lo_exp:h.h_lo ~hi_exp:h.h_hi v in
  s.hs_buckets.(b) <- s.hs_buckets.(b) + 1;
  s.hs_count <- s.hs_count + 1;
  if Float.is_finite v then s.hs_sum <- s.hs_sum +. v;
  if v > s.hs_max then s.hs_max <- v

(* --- snapshot / merge ----------------------------------------------- *)

let snapshot r =
  locked r (fun () ->
      let rows =
        Hashtbl.fold
          (fun name m acc ->
            let v =
              match m with
              | M_counter c -> Counter (List.fold_left (fun a s -> a + s.cs_n) 0 !(c.c_shards))
              | M_gauge g -> Gauge g.g_v
              | M_hist h ->
                  let nb = h.h_hi - h.h_lo + 2 in
                  let buckets = Array.make nb 0 in
                  let count = ref 0 and sum = ref 0.0 and max_v = ref 0.0 in
                  List.iter
                    (fun s ->
                      Array.iteri (fun i b -> buckets.(i) <- buckets.(i) + b) s.hs_buckets;
                      count := !count + s.hs_count;
                      sum := !sum +. s.hs_sum;
                      if s.hs_max > !max_v then max_v := s.hs_max)
                    !(h.h_shards);
                  Hist
                    { lo_exp = h.h_lo; hi_exp = h.h_hi; buckets; count = !count; sum = !sum;
                      max_v = !max_v }
            in
            (name, v) :: acc)
          r.tbl []
      in
      List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let reset r =
  locked r (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | M_counter c -> List.iter (fun s -> s.cs_n <- 0) !(c.c_shards)
          | M_gauge g -> g.g_v <- 0.0
          | M_hist h ->
              List.iter
                (fun s ->
                  Array.fill s.hs_buckets 0 (Array.length s.hs_buckets) 0;
                  s.hs_count <- 0;
                  s.hs_sum <- 0.0;
                  s.hs_max <- 0.0)
                !(h.h_shards))
        r.tbl)

let merge_value a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (Float.max x y)
  | Hist x, Hist y when x.lo_exp = y.lo_exp && x.hi_exp = y.hi_exp ->
      Hist
        { lo_exp = x.lo_exp; hi_exp = x.hi_exp;
          buckets = Array.init (Array.length x.buckets) (fun i -> x.buckets.(i) + y.buckets.(i));
          count = x.count + y.count; sum = x.sum +. y.sum; max_v = Float.max x.max_v y.max_v }
  | _ -> invalid_arg "Obs.Metrics.merge: metric kind/shape mismatch"

let merge (a : snapshot) (b : snapshot) : snapshot =
  let tbl = Hashtbl.create 97 in
  let fold rows =
    List.iter
      (fun (name, v) ->
        match Hashtbl.find_opt tbl name with
        | None -> Hashtbl.add tbl name v
        | Some prev -> Hashtbl.replace tbl name (merge_value prev v))
      rows
  in
  fold a;
  fold b;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let count (s : snapshot) name =
  match List.assoc_opt name s with Some (Counter n) -> n | _ -> 0

let family (s : snapshot) prefix =
  let k = String.length prefix in
  List.filter_map
    (fun (name, v) ->
      match v with
      | Counter n when n > 0 && String.starts_with ~prefix name ->
          Some (String.sub name k (String.length name - k), n)
      | _ -> None)
    s

(* --- JSON ----------------------------------------------------------- *)

let to_json (s : snapshot) =
  Json_out.List
    (List.map
       (fun (name, v) ->
         match v with
         | Counter n ->
             Json_out.Obj
               [ ("name", Json_out.Str name); ("type", Json_out.Str "counter");
                 ("value", Json_out.Num (Float.of_int n)) ]
         | Gauge g ->
             Json_out.Obj
               [ ("name", Json_out.Str name); ("type", Json_out.Str "gauge");
                 ("value", Json_out.Num g) ]
         | Hist h ->
             Json_out.Obj
               [ ("name", Json_out.Str name); ("type", Json_out.Str "histogram");
                 ("lo_exp", Json_out.Num (Float.of_int h.lo_exp));
                 ("hi_exp", Json_out.Num (Float.of_int h.hi_exp));
                 ("count", Json_out.Num (Float.of_int h.count)); ("sum", Json_out.Num h.sum);
                 ("max", Json_out.Num h.max_v);
                 ( "buckets",
                   Json_out.List
                     (Array.to_list (Array.map (fun c -> Json_out.Num (Float.of_int c)) h.buckets))
                 ) ])
       s)
