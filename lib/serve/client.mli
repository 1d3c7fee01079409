(** Client side of the serve wire protocol.

    Replies on one connection may arrive out of send order (control
    verbs are answered inline, compute verbs in batches), so the client
    keeps a pending-reply table and correlates by request id.

    Connection loss during {!send} surfaces as a located
    {!Cayman_frontend.Diag.Error} naming the socket path; {!rpc_retry}
    additionally retries shed ([overloaded]) requests and reconnects
    through daemon restarts with seeded jittered exponential backoff. *)

type t

(** Connect to a daemon's Unix-domain socket.
    @raise Unix.Unix_error when nothing is listening. *)
val connect : ?max_frame:int -> string -> t

(** {!connect} to a daemon that may not be listening yet, retrying every
    10 ms for about 5 s.
    @raise Unix.Unix_error from the last try. *)
val connect_when_up : string -> t

(** Wrap an already-connected fd pair (socketpair tests, stdio mode).
    The fds stay owned by the caller. *)
val of_fds :
  ?max_frame:int ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  t

(** Closes the fd only when this client opened it ({!connect},
    {!reconnect}). *)
val close : t -> unit

(** Drop the current connection and dial the daemon's socket again.
    Parked replies survive; in-flight ones are lost with the old
    connection.
    @raise Cayman_frontend.Diag.Error on an fd-pair client (no path).
    @raise Unix.Unix_error when nothing is listening. *)
val reconnect : t -> unit

(** Next unused request id on this connection (1, 2, ...). *)
val fresh_id : t -> int

(** @raise Cayman_frontend.Diag.Error when the peer hung up mid-send
    ([EPIPE]/[ECONNRESET]), naming the socket path. *)
val send : t -> Protocol.request -> unit

(** Wait for the reply with [id], parking other replies.
    @raise End_of_file when the daemon hangs up first. *)
val recv : t -> id:int -> Protocol.reply

(** A parked reply when one is waiting (lowest id), else the next
    reply off the wire. *)
val recv_any : t -> Protocol.reply

(** [send] then [recv] that request's id. *)
val request : t -> Protocol.request -> Protocol.reply

(** One-call convenience: build a request with a fresh id (defaults as
    {!Protocol.request}), send it, await its reply. *)
val rpc :
  t ->
  ?bench:string ->
  ?source:string ->
  ?budget:float ->
  ?mode:string ->
  ?alpha:float ->
  ?fuel:int ->
  ?max_invocations:int ->
  ?n:int ->
  ?deadline_ms:int ->
  string ->
  Protocol.reply

(** Retry policy for {!rpc_retry}: up to [r_attempts] tries, delay
    [min r_max_delay_s (r_base_delay_s * 2^attempt)] scaled by a
    seeded jitter in [0.5, 1.0) — never below the server's
    retry-after-ms hint when one was shed. *)
type retry = {
  r_attempts : int;
  r_base_delay_s : float;
  r_max_delay_s : float;
}

(** 5 attempts, 50 ms base, 1 s cap. *)
val default_retry : retry

(** {!rpc} plus the client half of the overload contract: a structured
    [overloaded] reply backs off (honoring the server's retry-after-ms
    hint as the delay floor) and resends; a lost connection reconnects
    (socket-path clients only) and resends. Safe for every verb — all
    replies are pure functions of the request or idempotent. The final
    attempt's reply (including an [overloaded] one) is returned as-is.
    @raise Cayman_frontend.Diag.Error when every attempt loses the
    connection. *)
val rpc_retry :
  t ->
  ?retry:retry ->
  ?bench:string ->
  ?source:string ->
  ?budget:float ->
  ?mode:string ->
  ?alpha:float ->
  ?fuel:int ->
  ?max_invocations:int ->
  ?n:int ->
  ?deadline_ms:int ->
  string ->
  Protocol.reply

(** Ask the daemon to exit (awaits the acknowledgement). *)
val shutdown : t -> unit

(** One telemetry scrape: the reply output is Prometheus-style
    exposition text ({!Obs.Expose.parse} reads it back). *)
val telemetry : t -> Protocol.reply

(** Last [n] (default 20) audit records as a JSON document. *)
val log_tail : t -> ?n:int -> unit -> Protocol.reply

(** Start a telemetry stream: sends [watch], returns the stream id and
    the immediate first frame. The daemon pushes another frame under
    the same id every window tick; pull them with {!watch_next}. *)
val watch : t -> int * Protocol.reply

(** Next pushed frame of a {!watch} stream.
    @raise End_of_file when the daemon hangs up. *)
val watch_next : t -> id:int -> Protocol.reply
