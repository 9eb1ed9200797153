(* Stress and soak for the sharded serving layer.

   Test order is load-bearing.  OCaml 5 forbids Unix.fork in a process
   that has ever spawned a domain, so every sharded fixture (which
   forks shard children) runs before any in-process server (which
   spawns io/batcher domains).  Alcotest runs cases sequentially in
   declaration order; the "sharded" group is declared first, the
   single-process slowloris/soak cases after.

   Scale: the concurrent-connection test aims for 4096 connections —
   past select's FD_SETSIZE by 4x — and degrades gracefully where
   ulimit forbids (it keeps as many as the kernel grants and skips
   below a floor).  FPAN_STRESS=1 lengthens the soak. *)

module P = Serve.Protocol
module J = Obs.Json_out

let stress = Sys.getenv_opt "FPAN_STRESS" <> None

let bits = Int64.bits_of_float

let elements_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ea eb ->
         Array.length ea = Array.length eb
         && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) ea eb)
       a b

(* a small deterministic mix, distinct operands per index *)
let req_for i =
  let v k = 1.0 +. (float_of_int ((i + k) mod 1009) /. 1009.0) in
  let e k = [| v k; v k *. 1e-17 |] in
  match i mod 3 with
  | 0 ->
      { P.id = i + 1; op = P.Add; tier = P.Mf2; sla = None; deadline_ms = None; prog = [];
        x = [| e 0 |]; y = [| e 1 |]; z = [||] }
  | 1 ->
      { P.id = i + 1; op = P.Mul; tier = P.Mf2; sla = None; deadline_ms = None; prog = [];
        x = [| e 0 |]; y = [| e 1 |]; z = [||] }
  | _ ->
      { P.id = i + 1; op = P.Sqrt; tier = P.Mf2; sla = None; deadline_ms = None; prog = [];
        x = [| e 0 |]; y = [||]; z = [||] }

let frame_of_req i =
  P.frame_of_string (J.to_string_compact (P.request_to_json (req_for i)))

let connect_retry sockaddr =
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sockaddr) SOCK_STREAM 0 in
  let rec go tries =
    try Unix.connect fd sockaddr
    with Unix.Unix_error ((ECONNREFUSED | EAGAIN | EINTR), _, _) when tries < 100 ->
      (* accept-backlog overflow under the storm: back off, retry *)
      Unix.sleepf 0.01;
      go (tries + 1)
  in
  go 0;
  fd

let roundtrip fd i =
  let r = req_for i in
  P.write_frame fd (J.to_string_compact (P.request_to_json r));
  match P.read_frame fd with
  | None -> Alcotest.fail "server closed connection mid-request"
  | Some payload -> (
      match P.response_of_json (J.parse_exn payload) with
      | Ok (P.Result { id; result; _ }) ->
          Alcotest.(check int) "response id" r.P.id id;
          let expect =
            match Serve.Batcher.eval_one r with
            | Ok e -> e
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check bool) "bitwise vs scalar path" true
            (elements_bits_equal result expect)
      | Ok _ -> Alcotest.fail "request was shed or failed"
      | Error e -> Alcotest.fail e)

(* --- sharded fixtures (fork before any domain exists) ----------------- *)

(* Sockets live under a per-process temp directory, never the source
   tree, and are swept (with the directory) on exit — even when a test
   fails mid-fixture, since the server's own unlink never runs for
   SIGKILLed shards. *)
let sock_dir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpan_stress_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (EEXIST, _, _) -> ());
  at_exit (fun () ->
      (try
         Array.iter
           (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ());
  dir

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat sock_dir
    (Printf.sprintf "serve_stress_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let with_fleet ?(shards = 2) ?cache_capacity f =
  let path = fresh_sock () in
  let t =
    Serve.Shard.start ~addr:(Serve.Server.Unix_path path) ~shards
      ~queue_capacity:256 ~max_batch:1 ~window_us:0. ?cache_capacity ()
  in
  Fun.protect ~finally:(fun () -> Serve.Shard.stop t) (fun () -> f t (Unix.ADDR_UNIX path))

(* 4096 concurrent connections — 4x past FD_SETSIZE — all open at
   once, each completing one bitwise-checked request.  Where ulimit
   denies descriptors the test keeps what it got; below a minimum
   floor there is nothing meaningful left to assert, so it skips. *)
let test_concurrent_connections () =
  with_fleet (fun fleet sockaddr ->
      let target = 4096 in
      let conns = ref [] in
      let n = ref 0 in
      (try
         while !n < target do
           conns := connect_retry sockaddr :: !conns;
           incr n
         done
       with Unix.Unix_error ((EMFILE | ENFILE), _, _) -> ());
      let conns = Array.of_list (List.rev !conns) in
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun fd -> try Unix.close fd with _ -> ()) conns)
        (fun () ->
          let got = Array.length conns in
          if got < 1024 then begin
            Printf.printf "ulimit granted only %d fds; skipping\n%!" got;
            Alcotest.skip ()
          end;
          (* every connection is open simultaneously; requests complete
             on each while all the others stay connected *)
          Array.iteri (fun i fd -> roundtrip fd i) conns;
          Alcotest.(check bool)
            (Printf.sprintf "held %d concurrent connections" got)
            true (got >= 1024);
          if got >= target then
            Alcotest.(check int) "full target reached" target got;
          (* both shards took a share *)
          let s = Serve.Shard.stats fleet in
          Array.iteri
            (fun i d ->
              Alcotest.(check bool)
                (Printf.sprintf "shard %d dispatched (%d)" i d)
                true (d > 0))
            s.Serve.Shard.dispatched))

(* Mass-disconnect storms: hundreds of connections vanish abruptly —
   some mid-frame — and the fleet keeps serving new arrivals. *)
let test_disconnect_storm () =
  with_fleet (fun _fleet sockaddr ->
      for round = 1 to 3 do
        let conns = Array.init 512 (fun _ -> connect_retry sockaddr) in
        Array.iteri
          (fun i fd ->
            match i mod 3 with
            | 0 ->
                (* complete frame, then vanish without reading the reply *)
                let s = frame_of_req i in
                ignore (Unix.write_substring fd s 0 (String.length s))
            | 1 ->
                (* half a frame: the deframer holds a partial cursor *)
                let s = frame_of_req i in
                ignore (Unix.write_substring fd s 0 (String.length s / 2))
            | _ -> ())
          conns;
        (* the storm: everyone disconnects at once *)
        Array.iter (fun fd -> try Unix.close fd with _ -> ()) conns;
        (* service is undisturbed for the next client *)
        let fd = connect_retry sockaddr in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with _ -> ())
          (fun () -> roundtrip fd (round * 1000))
      done)

(* Kill a shard mid-service: the parent detects the death, forks a
   replacement, and the endpoint keeps answering. *)
let test_shard_death_restart () =
  with_fleet (fun fleet sockaddr ->
      (* prove service first *)
      let fd = connect_retry sockaddr in
      roundtrip fd 1;
      (try Unix.close fd with _ -> ());
      (match Serve.Shard.pids fleet with
      | pid :: _ -> Unix.kill pid Sys.sigkill
      | [] -> Alcotest.fail "no live shards");
      (* wait for the reaper to notice and re-fork *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        (Serve.Shard.stats fleet).Serve.Shard.restarts < 1
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.02
      done;
      Alcotest.(check int) "restart recorded" 1
        (Serve.Shard.stats fleet).Serve.Shard.restarts;
      (* a shard killed young counts as a quick death, so the re-fork
         may sit out one short backoff delay before the slot refills *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        List.length (Serve.Shard.pids fleet) < 2
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.02
      done;
      Alcotest.(check int) "fleet back to strength" 2
        (List.length (Serve.Shard.pids fleet));
      (* and the endpoint still serves — several conns so both the
         survivor and the replacement take traffic *)
      for i = 0 to 7 do
        let fd = connect_retry sockaddr in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with _ -> ())
          (fun () -> roundtrip fd (2000 + i))
      done)

(* A crash-looping shard must not pin the distributor in a fork storm:
   every replacement fork is chaos-doomed (the child aborts before
   building anything), so consecutive quick deaths have to accumulate
   exponential re-fork delays.  Disarming ends the storm and the fleet
   must recover to full strength and keep serving. *)
let test_refork_backoff () =
  with_fleet (fun fleet sockaddr ->
      let fd = connect_retry sockaddr in
      roundtrip fd 1;
      (try Unix.close fd with _ -> ());
      (* every fork from here aborts in the child *)
      Chaos.Injector.arm ~seed:0
        [ (Chaos.Fault.Fork, [ (Chaos.Fault.Abort_child, 1) ]) ];
      Fun.protect
        ~finally:(fun () -> Chaos.Injector.disarm ())
        (fun () ->
          (match Serve.Shard.pids fleet with
          | pid :: _ -> Unix.kill pid Sys.sigkill
          | [] -> Alcotest.fail "no live shards");
          let deadline = Unix.gettimeofday () +. 15.0 in
          while
            (Serve.Shard.stats fleet).Serve.Shard.backoff_delays < 2
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.02
          done;
          let s = Serve.Shard.stats fleet in
          Alcotest.(check bool)
            (Printf.sprintf "backoff delays recorded (%d)" s.Serve.Shard.backoff_delays)
            true
            (s.Serve.Shard.backoff_delays >= 2);
          Alcotest.(check bool)
            (Printf.sprintf "every death was reaped (%d)" s.Serve.Shard.restarts)
            true
            (s.Serve.Shard.restarts >= 2);
          (* the surviving shard kept the endpoint alive all along *)
          let fd = connect_retry sockaddr in
          roundtrip fd 2;
          (try Unix.close fd with _ -> ()));
      (* storm over: the next delayed re-fork sticks *)
      let deadline = Unix.gettimeofday () +. 15.0 in
      while
        List.length (Serve.Shard.pids fleet) < 2
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.05
      done;
      Alcotest.(check int) "fleet recovered to strength" 2
        (List.length (Serve.Shard.pids fleet));
      (* deadline-bounded client against the recovered fleet *)
      let cl = Serve.Client.connect_sockaddr ~deadline_ms:10_000 sockaddr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let r = req_for 3 in
          match Serve.Client.call_retry ~seed:0 cl r with
          | P.Result { result; _ } ->
              let expect =
                match Serve.Batcher.eval_one r with
                | Ok e -> e
                | Error e -> Alcotest.fail e
              in
              Alcotest.(check bool) "post-recovery bitwise" true
                (elements_bits_equal result expect)
          | _ -> Alcotest.fail "post-recovery request not served"))

(* --- single-process cases (domains fine; no forking after this) ------- *)

let with_server ?cache_capacity f =
  let path = fresh_sock () in
  Runtime.Sched.with_sched ~workers:2 (fun sched ->
      let srv =
        Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path)
          ~queue_capacity:256 ?cache_capacity ()
      in
      Fun.protect
        ~finally:(fun () -> Serve.Server.stop srv)
        (fun () -> f srv (Unix.ADDR_UNIX path)))

(* Slowloris: one client trickles a frame a byte at a time through the
   cursor deframer while a fast client completes a hundred requests on
   the side.  The slow frame must still evaluate correctly once its
   last byte lands, and the slow client must never stall the fast
   one. *)
let test_slowloris () =
  with_server (fun _srv sockaddr ->
      let slow = connect_retry sockaddr in
      let fast = connect_retry sockaddr in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close slow with _ -> ());
          try Unix.close fast with _ -> ())
        (fun () ->
          let sreq = req_for 77 in
          let sframe = frame_of_req 77 in
          ignore sreq;
          let n = String.length sframe in
          for k = 0 to n - 1 do
            ignore (Unix.write_substring slow sframe k 1);
            (* fast traffic interleaves with every trickled byte *)
            if k mod 2 = 0 then roundtrip fast (k mod 97)
          done;
          match P.read_frame slow with
          | None -> Alcotest.fail "slow connection dropped"
          | Some payload -> (
              match P.response_of_json (J.parse_exn payload) with
              | Ok (P.Result { id; result; _ }) ->
                  Alcotest.(check int) "slow response id" sreq.P.id id;
                  let expect =
                    match Serve.Batcher.eval_one sreq with
                    | Ok e -> e
                    | Error e -> Alcotest.fail e
                  in
                  Alcotest.(check bool) "slow response bitwise" true
                    (elements_bits_equal result expect)
              | _ -> Alcotest.fail "slow request not served")))

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

(* Timed soak: churn connections — orderly and abrupt — against one
   server and assert the process descriptor count returns exactly to
   its baseline.  Both sides of every socket live in this process, so
   a leak on either the client or the server path shows up here. *)
let test_soak_no_fd_leak () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  with_server ~cache_capacity:64 (fun _srv sockaddr ->
      let baseline = fd_count () in
      let deadline = Unix.gettimeofday () +. if stress then 10.0 else 2.0 in
      let i = ref 0 in
      while Unix.gettimeofday () < deadline do
        incr i;
        let fd = connect_retry sockaddr in
        (match !i mod 5 with
        | 0 ->
            (* abrupt: request written, reply never read, fd slammed *)
            let s = frame_of_req !i in
            ignore (Unix.write_substring fd s 0 (String.length s))
        | 1 ->
            (* mid-frame abandon *)
            let s = frame_of_req !i in
            ignore (Unix.write_substring fd s 0 (max 1 (String.length s / 3)))
        | _ -> roundtrip fd !i);
        try Unix.close fd with _ -> ()
      done;
      (* let the io domain sweep the corpses, then the count must be
         exactly the baseline — zero descriptors leaked *)
      let settle = Unix.gettimeofday () +. 3.0 in
      while fd_count () > baseline && Unix.gettimeofday () < settle do
        Unix.sleepf 0.05
      done;
      Alcotest.(check int)
        (Printf.sprintf "fd count after %d churned connections" !i)
        baseline (fd_count ()))

let () =
  Alcotest.run "serve_stress"
    [ ( "sharded",
        [ Alcotest.test_case "4096 concurrent connections" `Slow
            test_concurrent_connections;
          Alcotest.test_case "mass-disconnect storms" `Slow test_disconnect_storm;
          Alcotest.test_case "shard death and restart" `Slow
            test_shard_death_restart;
          Alcotest.test_case "re-fork storm backoff" `Slow
            test_refork_backoff ] );
      ( "single",
        [ Alcotest.test_case "slowloris byte-at-a-time" `Slow test_slowloris;
          Alcotest.test_case "soak: zero fd leaks" `Slow test_soak_no_fd_leak ] ) ]
