(* Client side of the serve wire protocol.

   A client owns one connection and a pending-reply table: the daemon
   answers control verbs inline and batches compute verbs, so replies
   on a single connection are NOT guaranteed to arrive in send order —
   correlation is by request id. [recv ~id] buffers whatever else
   arrives until the wanted id shows up; [recv_any] hands back the next
   reply in arrival order.

   Overload behaviour (DESIGN.md section 14): the daemon may shed a
   request with a structured `overloaded` error carrying a
   retry-after-ms hint, or disconnect a peer outright (slow-client
   policy, drain timeout). [rpc_retry] wraps one request in the
   client-side half of that contract — seeded jittered exponential
   backoff, honoring the server's hint as a floor, reconnecting through
   connection loss — so callers that are happy to wait see neither
   sheds nor daemon restarts. Retrying through a dropped connection is
   safe for every verb the daemon serves: compute replies are pure
   functions of the request and control verbs are either read-only or
   idempotent. *)

type t = {
  mutable cl_in : Unix.file_descr;
  mutable cl_out : Unix.file_descr;
  mutable cl_dec : Protocol.decoder;
  cl_pending : (int, Protocol.reply) Hashtbl.t;
  mutable cl_next_id : int;
  mutable cl_owns_fds : bool;
  cl_path : string option;  (* reconnect target, when socket-connected *)
  cl_max_frame : int;
  cl_rng : Cayman_fault.Rng.t;  (* backoff jitter; seeded for replay *)
}

let of_fds ?(max_frame = Protocol.default_max_frame) ~input ~output () =
  { cl_in = input;
    cl_out = output;
    cl_dec = Protocol.decoder ~max_frame ();
    cl_pending = Hashtbl.create 16;
    cl_next_id = 1;
    cl_owns_fds = false;
    cl_path = None;
    cl_max_frame = max_frame;
    cl_rng = Cayman_fault.Rng.make 0x5eed }

let peer_name t =
  match t.cl_path with Some p -> p | None -> "<fd peer>"

let connect_fd path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect ?(max_frame = Protocol.default_max_frame) path =
  let fd = connect_fd path in
  { (of_fds ~max_frame ~input:fd ~output:fd ()) with
    cl_owns_fds = true;
    cl_path = Some path }

let connect_when_up path =
  let rec go n =
    match connect path with
    | cl -> cl
    | exception Unix.Unix_error _ when n > 1 ->
      Unix.sleepf 0.01;
      go (n - 1)
  in
  go 500

let close t =
  if t.cl_owns_fds then begin
    t.cl_owns_fds <- false;
    try Unix.close t.cl_in with Unix.Unix_error _ -> ()
  end

(* Drop the dead connection and dial the daemon again. Parked replies
   survive (they were fully received); undelivered ones are gone with
   the old connection — that is what the caller is retrying.
   @raise Cayman_frontend.Diag.Error when this client has no socket
   path to dial (fd-pair clients cannot reconnect). *)
let reconnect t =
  match t.cl_path with
  | None ->
    Cayman_frontend.Diag.error ~phase:"serve-client"
      "connection to %s lost and this client has no socket path to \
       reconnect"
      (peer_name t)
  | Some path ->
    close t;
    let fd = connect_fd path in
    t.cl_in <- fd;
    t.cl_out <- fd;
    t.cl_dec <- Protocol.decoder ~max_frame:t.cl_max_frame ();
    t.cl_owns_fds <- true

let fresh_id t =
  let id = t.cl_next_id in
  t.cl_next_id <- id + 1;
  id

(* A peer that hung up mid-send surfaces as a located diagnostic naming
   the socket path, not a raw Unix_error escaping to the CLI. *)
let send t (r : Protocol.request) =
  let s = Protocol.encode_request r in
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write t.cl_out b off (n - off))
  in
  try go 0
  with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF) as err, _, _) ->
    Cayman_frontend.Diag.error ~phase:"serve-client"
      "connection to %s lost while sending request %d (%s); is the \
       daemon still running?"
      (peer_name t) r.Protocol.rq_id
      (Unix.error_message err)

let read_buf_len = 65536

(* One blocking read into the decoder. @raise End_of_file on EOF. *)
let fill t =
  let buf = Bytes.create read_buf_len in
  match Unix.read t.cl_in buf 0 read_buf_len with
  | 0 -> raise End_of_file
  | n -> Protocol.feed t.cl_dec buf 0 n
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
    raise End_of_file

let rec next_wire_reply t =
  match Protocol.next_frame t.cl_dec with
  | Protocol.Frame payload ->
    (match Protocol.parse_reply payload with
     | Ok r -> r
     | Error m -> failwith ("serve client: " ^ m))
  | Protocol.Oversized n ->
    failwith
      (Printf.sprintf "serve client: oversized reply frame (%d bytes)" n)
  | Protocol.Need_more ->
    fill t;
    next_wire_reply t

(* A parked reply when one is waiting (lowest id wins, for
   determinism), else the next frame off the wire. *)
let recv_any t =
  let first =
    Hashtbl.fold
      (fun id _ acc ->
        match acc with Some id' when id' <= id -> acc | _ -> Some id)
      t.cl_pending None
  in
  match first with
  | Some id ->
    let r = Hashtbl.find t.cl_pending id in
    Hashtbl.remove t.cl_pending id;
    r
  | None -> next_wire_reply t

let rec recv t ~id =
  match Hashtbl.find_opt t.cl_pending id with
  | Some r ->
    Hashtbl.remove t.cl_pending id;
    r
  | None ->
    let r = next_wire_reply t in
    if r.Protocol.rp_id = id then r
    else begin
      Hashtbl.replace t.cl_pending r.Protocol.rp_id r;
      recv t ~id
    end

let request t (r : Protocol.request) =
  send t r;
  recv t ~id:r.Protocol.rq_id

let rpc t ?bench ?source ?budget ?mode ?alpha ?fuel ?max_invocations ?n
    ?deadline_ms verb =
  let r =
    Protocol.request ?bench ?source ?budget ?mode ?alpha ?fuel
      ?max_invocations ?n ?deadline_ms ~id:(fresh_id t) verb
  in
  request t r

(* --- retrying rpc ---------------------------------------------------- *)

type retry = {
  r_attempts : int;
  r_base_delay_s : float;
  r_max_delay_s : float;
}

let default_retry =
  { r_attempts = 5; r_base_delay_s = 0.05; r_max_delay_s = 1.0 }

(* The server's shed reply embeds "retry-after-ms=N"; honor it as the
   backoff floor so a deep queue spreads retries further apart. *)
let retry_after_hint_s output =
  let tok = "retry-after-ms=" in
  let tn = String.length tok in
  let n = String.length output in
  let rec find i =
    if i + tn > n then None
    else if String.sub output i tn = tok then begin
      let j = ref (i + tn) in
      while !j < n && output.[!j] >= '0' && output.[!j] <= '9' do incr j done;
      if !j = i + tn then None
      else Some (float_of_string (String.sub output (i + tn) (!j - i - tn)) /. 1e3)
    end
    else find (i + 1)
  in
  find 0

let backoff_delay t (retry : retry) ~attempt ~floor_s =
  let exp =
    retry.r_base_delay_s *. (2.0 ** float_of_int attempt)
  in
  let capped = Float.min retry.r_max_delay_s exp in
  (* jitter in [0.5, 1.0) of the capped delay, off the client's seeded
     stream: deterministic schedules for the chaos campaign, no
     thundering herd in real fleets *)
  let jitter =
    0.5 +. (float_of_int (Cayman_fault.Rng.int t.cl_rng 500) /. 1000.0)
  in
  Float.max floor_s (capped *. jitter)

let rpc_retry t ?(retry = default_retry) ?bench ?source ?budget ?mode ?alpha
    ?fuel ?max_invocations ?n ?deadline_ms verb =
  let rec attempt k =
    let outcome =
      match
        rpc t ?bench ?source ?budget ?mode ?alpha ?fuel ?max_invocations ?n
          ?deadline_ms verb
      with
      | reply -> Ok reply
      | exception End_of_file -> Error ()
      | exception Cayman_frontend.Diag.Error _ -> Error ()
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT | ECONNRESET), _, _)
        ->
        (* daemon mid-restart: the socket may briefly refuse or vanish *)
        Error ()
    in
    match outcome with
    | Ok reply
      when (not reply.Protocol.rp_ok)
           && reply.Protocol.rp_class = "overloaded"
           && k + 1 < retry.r_attempts ->
      let floor_s =
        Option.value (retry_after_hint_s reply.Protocol.rp_output) ~default:0.0
      in
      Unix.sleepf (backoff_delay t retry ~attempt:k ~floor_s);
      attempt (k + 1)
    | Ok reply -> reply
    | Error () when k + 1 < retry.r_attempts && t.cl_path <> None ->
      Unix.sleepf (backoff_delay t retry ~attempt:k ~floor_s:0.0);
      (match reconnect t with
       | () -> ()
       | exception Unix.Unix_error _ -> ()
       | exception Cayman_frontend.Diag.Error _ -> ());
      attempt (k + 1)
    | Error () ->
      Cayman_frontend.Diag.error ~phase:"serve-client"
        "request %s to %s failed after %d attempts (connection lost)" verb
        (peer_name t) (k + 1)
  in
  attempt 0

let shutdown t = ignore (rpc t "shutdown")

let telemetry t = rpc t "telemetry"
let log_tail t ?n () = rpc t ?n "log-tail"

(* The streaming path: one request, many replies under the same id.
   The first frame comes back immediately; the daemon pushes another
   every window tick, and [watch_next] pulls them in arrival order. *)
let watch t =
  let r = Protocol.request ~id:(fresh_id t) "watch" in
  send t r;
  let first = recv t ~id:r.Protocol.rq_id in
  r.Protocol.rq_id, first

let watch_next t ~id = recv t ~id
