(* Readiness: poll(2) behind a small capability interface.  The
   registration set lives in three parallel int arrays (fds, interest
   masks, revents out) that are handed to the C stub as-is, so a wait
   is one stub call and no per-call allocation beyond the event list it
   returns.  Slots are kept dense by swap-removal; a Hashtbl maps
   fd -> slot. *)

(* the timeout is in nanoseconds (ppoll where the platform has it),
   negative = forever *)
external poll_stub :
  int array -> int array -> int array -> int -> int -> int = "caml_fpan_poll"

let ns_of_ms ms = if ms < 0 then -1 else ms * 1_000_000

external poll_bits : unit -> int * int * int * int * int * int = "caml_fpan_poll_bits"

let bit_in, bit_out, bit_err, bit_hup, bit_nval, _bit_pri = poll_bits ()

(* Unix.file_descr is an immediate int on every Unix port (the C stub
   relies on the same fact); this cast is what unixsupport.h's
   Int_val does on the other side of the boundary. *)
let int_of_fd : Unix.file_descr -> int = Obj.magic
let fd_of_int : int -> Unix.file_descr = Obj.magic

type event = {
  fd : Unix.file_descr;
  readable : bool;
  writable : bool;
  hangup : bool;
  error : bool;
}

type t = {
  mutable fds : int array;
  mutable events : int array;
  mutable revents : int array;
  mutable n : int;
  slots : (int, int) Hashtbl.t;  (* fd -> index below n *)
}

let create () =
  {
    fds = Array.make 64 (-1);
    events = Array.make 64 0;
    revents = Array.make 64 0;
    n = 0;
    slots = Hashtbl.create 64;
  }

let interest ~read ~write =
  (if read then bit_in else 0) lor if write then bit_out else 0

let grow p =
  let cap = Array.length p.fds in
  if p.n >= cap then begin
    let cap' = 2 * cap in
    let copy src mk = Array.init cap' (fun i -> if i < cap then src.(i) else mk) in
    p.fds <- copy p.fds (-1);
    p.events <- copy p.events 0;
    p.revents <- copy p.revents 0
  end

let add p fd ~read ~write =
  let k = int_of_fd fd in
  if Hashtbl.mem p.slots k then
    invalid_arg "Serve.Readiness.add: descriptor already registered";
  grow p;
  p.fds.(p.n) <- k;
  p.events.(p.n) <- interest ~read ~write;
  Hashtbl.replace p.slots k p.n;
  p.n <- p.n + 1

let modify p fd ~read ~write =
  match Hashtbl.find_opt p.slots (int_of_fd fd) with
  | None -> invalid_arg "Serve.Readiness.modify: descriptor not registered"
  | Some i -> p.events.(i) <- interest ~read ~write

let remove p fd =
  let k = int_of_fd fd in
  match Hashtbl.find_opt p.slots k with
  | None -> ()
  | Some i ->
      let last = p.n - 1 in
      Hashtbl.remove p.slots k;
      if i < last then begin
        p.fds.(i) <- p.fds.(last);
        p.events.(i) <- p.events.(last);
        Hashtbl.replace p.slots p.fds.(i) i
      end;
      p.fds.(last) <- -1;
      p.events.(last) <- 0;
      p.n <- last

let mem p fd = Hashtbl.mem p.slots (int_of_fd fd)
let registered p = p.n

let event_of_mask fd mask =
  {
    fd;
    readable = mask land bit_in <> 0;
    writable = mask land bit_out <> 0;
    hangup = mask land bit_hup <> 0;
    error = mask land (bit_err lor bit_nval) <> 0;
  }

let wait p ~timeout_ms =
  (* chaos seam: a spurious wakeup (or injected EINTR) surfaces as an
     empty event list, exactly what a real EINTR produces below.  The
     disarmed hook is a single atomic branch returning Pass. *)
  match Chaos.Injector.wait_fault () with
  | Chaos.Fault.Spurious_wake | Chaos.Fault.Eintr -> []
  | _ -> (
      match poll_stub p.fds p.events p.revents p.n (ns_of_ms timeout_ms) with
      | 0 -> []
      | _ ->
          let out = ref [] in
          for i = p.n - 1 downto 0 do
            let mask = p.revents.(i) in
            if mask <> 0 then out := event_of_mask (fd_of_int p.fds.(i)) mask :: !out
          done;
          !out
      | exception Unix.Unix_error (EINTR, _, _) -> [])

(* --- single-descriptor helpers -------------------------------------- *)

let one_fds = [| -1 |]

let poll1_ns fd ~read ~write ~timeout_ns =
  (* tiny fresh arrays per call: poll1 sits on slow paths (write
     stalls, doorbell waits), never in the per-event hot loop *)
  let fds = Array.copy one_fds in
  fds.(0) <- int_of_fd fd;
  let events = [| interest ~read ~write |] in
  let revents = [| 0 |] in
  match poll_stub fds events revents 1 timeout_ns with
  | 0 -> None
  | _ -> Some (event_of_mask fd revents.(0))
  | exception Unix.Unix_error (EINTR, _, _) -> None

let poll1 fd ~read ~write ~timeout_ms = poll1_ns fd ~read ~write ~timeout_ns:(ns_of_ms timeout_ms)

let wait_readable_ns fd ~timeout_ns =
  match poll1_ns fd ~read:true ~write:false ~timeout_ns with
  | Some e -> e.readable || e.hangup || e.error
  | None -> false

let wait_readable fd ~timeout_ms = wait_readable_ns fd ~timeout_ns:(ns_of_ms timeout_ms)

let wait_writable fd ~timeout_ms =
  match poll1 fd ~read:false ~write:true ~timeout_ms with
  | Some e -> e.writable || e.hangup || e.error
  | None -> false
