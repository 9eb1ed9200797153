(** Wire protocol of the batched evaluation service: length-prefixed
    JSON frames, schema [fpan-serve/1] — or [fpan-serve/2] for frames
    carrying the adaptive-precision fields ([sla] on requests,
    [chosen] / [bound] on results).

    A frame is a 4-byte big-endian payload length followed by one JSON
    document.  Requests name an operation, a precision tier, and
    operands; operands and results travel as C99 hexadecimal float
    component strings (["0x1.8p+1"]) — the only JSON transport that is
    exact for every double including the infinities, signed zero, and
    subnormals ({!Obs.Json_out} numbers turn non-finite values into
    [null]).  NaNs carry their exact bit pattern (["nan:7ff8..."]),
    since ["%h"] collapses every payload to ["nan"].

    The frame shapes are declared in {!Obs.Schemas.serve_request} /
    {!Obs.Schemas.serve_response}.  Requests are decoded in one pass
    from the payload bytes ({!request_of_frame}), which enforces that
    schema and {!Obs.Json_out.parse}'s grammar as it goes, so a frame
    with unknown keys, wrong types, duplicate keys or trailing garbage
    never reaches the execution path.  Result replies are written
    straight into a connection's output ({!write_response}). *)

type tier = Mf2 | Mf3 | Mf4

val tier_terms : tier -> int

val tier_of_terms : int -> tier
(** Inverse of {!tier_terms}; raises [Invalid_argument] outside 2..4. *)

val tier_name : tier -> string
val tier_of_name : string -> tier option

type op =
  | Add | Mul | Div | Sqrt  (** binary/unary scalar arithmetic *)
  | Exp | Log | Sin  (** unary elementary functions *)
  | Dot  (** x · y over element vectors *)
  | Axpy
      (** [y.(i) <- alpha * x.(i) + y.(i)]; operand [y] carries [alpha]
          as its first element followed by the vector, so it is one
          element longer than [x]. *)
  | Sum  (** index-order fold of x *)
  | Poly_eval  (** Horner: coefficients x (low degree first) at point y *)
  | Program
      (** A multi-op chain named by [prog] (one of {!programs}),
          evaluated as the op-by-op composition.  [["mul"; "sum"]]
          takes x and y (same length) and returns the scalar sum of
          the products; [["axpy"; "dot"]]
          takes x, y = alpha followed by a vector of x's length, and z
          of x's length, returning the dot of the updated y against z
          followed by the updated y itself; [["sum"]] is the plain
          fold of x. *)
  | Stats  (** server introspection; no operands *)

val op_name : op -> string
val op_of_name : string -> op option
val compute_ops : op list
(** Every operation except [Stats]. *)

val arity : op -> int
(** Operand vectors consumed: 0 ([Stats]), 1 ([Sqrt], [Exp], ...), 2. *)

val programs : string list list
(** The chains a [Program] request may name. *)

val program_name : string list -> string
(** Display name of a chain: steps joined with [";"]. *)

type request = {
  id : int;  (** client-chosen correlation id, echoed in the response *)
  op : op;
  tier : tier;
      (** For SLA requests (decoded from an [fpan-serve/2] frame that
          carries [sla] instead of [tier]): the derived starting tier
          of the escalation ladder — the cheapest tier holding the
          operands without truncation. *)
  sla : int option;
      (** Accuracy SLA exponent [q]: the certified absolute error of
          the response must be at most [Certify.scale * 2^-q].  Only
          the certifiable ops qualify ({!Adaptive.Sla.of_wire});
          mutually exclusive with an explicit wire [tier]. *)
  deadline_ms : float option;  (** serving budget from arrival; shed after *)
  prog : string list;  (** chain for [Program]; empty otherwise *)
  x : float array array;  (** elements x components *)
  y : float array array;
  z : float array array;  (** third operand of [["axpy"; "dot"]]; empty otherwise *)
}

type response =
  | Result of {
      id : int;
      result : float array array;
      batch : int;
      chosen : string option;
          (** SLA requests: the rung that met the budget — ["mf2"],
              ["mf3"], ["mf4"], or ["bigfloat"]. *)
      bound : float option;
          (** SLA requests: the certified absolute error bound. *)
    }
      (** [batch] is the size of the micro-batch the request executed in. *)
  | Shed of { id : int; reason : string }
      (** Explicit refusal: ["queue_full"], ["deadline"], or ["closed"]. *)
  | Failed of { id : int; error : string }
  | Stats_reply of { id : int; stats : Obs.Json_out.t }

val response_id : response -> int

val float_to_wire : float -> string
(** The exact hex-float transport encoding of one component
    (["0x1.8p+1"], ["nan:7ff8000000000001"], ["-0x0p+0"], ...): the
    text of [Printf "%h"] for every non-NaN double, and ["nan:"] with
    the bit pattern in hex for a NaN.  One string per double bit
    pattern, so distinct NaN payloads and [0.0] vs [-0.0] never
    collapse. *)

val float_of_wire : string -> float option
(** Inverse of {!float_to_wire}; also accepts every other spelling
    [float_of_string] takes. *)

(** {1 Requests} *)

val request_of_frame : string -> (request, int * string) result
(** Decode one frame payload in a single pass.  Accepts any key order
    and any JSON whitespace; rejects what {!Obs.Json_out.parse} rejects
    (the text is then ["bad json: ..."] with id 0), a schema violation
    (the text names its path, ["$: ..."] or [".x[0][1]: ..."]), and a
    request the protocol cannot serve (unknown op or tier, arity,
    lengths, component counts, {!Adaptive.Sla.check}).  [Error (id,
    text)] carries the frame's integer id when it has one, else 0, so
    the rejection can echo it.  Canonical hex components are parsed in
    place; any other spelling goes through {!float_of_wire}. *)

val request_to_json : request -> Obs.Json_out.t

val request_of_json : Obs.Json_out.t -> (request, string) result
(** {!request_of_frame} on the document's compact rendering. *)

(** {1 Responses} *)

val response_to_json : response -> Obs.Json_out.t
val response_of_json : Obs.Json_out.t -> (response, string) result

type sink = { mutable bytes : Bytes.t; mutable len : int }
(** Growable output buffer: [bytes] holds [len] bytes of complete
    frames. *)

val sink : unit -> sink

val write_response : sink -> response -> unit
(** Append one reply frame, byte for byte
    [frame_of_string (to_string_compact (response_to_json r))].  A
    [Result] is written in place: no JSON tree, no string per
    component. *)

(** {1 Framing} *)

val ignore_sigpipe : unit -> unit
(** Set SIGPIPE to be ignored process-wide so a write into a socket the
    peer abruptly closed raises [Unix_error (EPIPE, ...)] — handled by
    dropping the connection — instead of killing the whole process.
    Called by {!Server.start} and {!Client.connect}; a no-op on
    platforms without the signal. *)

val max_frame : int
(** Refuse frames above this payload size (16 MiB). *)

val frame_of_string : string -> string
(** Prefix with the 4-byte big-endian length. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one complete frame (retrying partial writes). *)

val read_frame : Unix.file_descr -> string option
(** Blocking read of one complete frame; [None] on orderly EOF at a
    frame boundary.  Raises [Failure] on truncation or an oversized
    length prefix. *)

(** {1 Incremental deframing} (for the server's event loop) *)

type deframer

val deframer : unit -> deframer

val feed : deframer -> bytes -> int -> (string list, string) result
(** Append [len] bytes just read into the deframer's buffer and return
    the complete frames now available, in arrival order.  [Error] on a
    malformed length prefix (connection should be dropped). *)
