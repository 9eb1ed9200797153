(** Readiness abstraction for the serving layer's event loops.

    A small capability interface over [poll(2)] (via a C stub that
    releases the runtime lock while sleeping), which has no
    [FD_SETSIZE] ceiling: descriptors with values far above 1024
    register and wait like any other, so one server process can hold
    thousands of connections.

    The registration set is edge-agnostic level-triggered dispatch:
    {!wait} reports every registered descriptor currently ready, and
    the caller is expected to read/write until [EAGAIN] (the server's
    loops do), so a spurious or coalesced wakeup is always harmless. *)

type t

val create : unit -> t

type event = {
  fd : Unix.file_descr;
  readable : bool;
  writable : bool;
  hangup : bool;  (** peer hung up ([POLLHUP]); treat as readable EOF *)
  error : bool;  (** [POLLERR]/[POLLNVAL]; drop the descriptor *)
}

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Register a descriptor.  [Invalid_argument] if already registered. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Change the interest set of a registered descriptor.
    [Invalid_argument] if not registered. *)

val remove : t -> Unix.file_descr -> unit
(** Deregister.  Unknown descriptors are ignored (removing a conn that
    was already swept must be idempotent). *)

val mem : t -> Unix.file_descr -> bool
val registered : t -> int

val wait : t -> timeout_ms:int -> event list
(** Block until at least one registered descriptor is ready, the
    timeout lapses ([[]]), or a signal arrives ([[]] on [EINTR] —
    callers loop).  [timeout_ms < 0] waits forever.  Events for
    descriptors removed since the last wait are never reported. *)

(** {1 Single-descriptor helpers} (no registration set) *)

val poll1 : Unix.file_descr -> read:bool -> write:bool -> timeout_ms:int -> event option
(** One-shot readiness wait on one descriptor; [None] on timeout or
    [EINTR].  Works on descriptors above [FD_SETSIZE]; the serving
    layer uses it for write-stall waits and doorbells. *)

val wait_readable : Unix.file_descr -> timeout_ms:int -> bool
val wait_writable : Unix.file_descr -> timeout_ms:int -> bool

val wait_readable_ns : Unix.file_descr -> timeout_ns:int -> bool
(** {!wait_readable} with a nanosecond timeout ([< 0] waits forever):
    ppoll(2) where the platform has it, so a sub-millisecond wait
    lasts its own length rather than poll(2)'s whole milliseconds. *)
