(** Structured, leveled event log.

    Events are appended to per-domain ring buffers (lock-free past the
    first use per domain, like {!Trace}) and merged on read into one
    id-sorted sequence. Rings overwrite their oldest entries when full:
    the log is a bounded in-memory tail, with overwrites counted by
    {!dropped}.

    Timestamps are wall-clock and ring contents depend on scheduling,
    so the log — like gauges and wall histograms — sits outside the
    determinism contract. *)

type level =
  | Debug
  | Info
  | Warn
  | Error

val level_name : level -> string
val level_of_string : string -> level option

(** Events below this level are discarded at the call site (one atomic
    load). Default: [Info]. *)
val set_level : level -> unit

val enabled : level -> bool

(** Interned field key. Intern once at module init, not per event. *)
type key

val key : string -> key
val key_name : key -> string

type value =
  | I of int
  | F of float
  | S of string
  | B of bool

type event = {
  ev_id : int;  (** unique, monotone in append order across domains *)
  ev_t : float;  (** seconds since the log epoch *)
  ev_level : level;
  ev_msg : string;
  ev_fields : (key * value) list;
  ev_dom : int;  (** appending domain id *)
}

val log : level -> string -> (key * value) list -> unit
val debug : string -> (key * value) list -> unit
val info : string -> (key * value) list -> unit
val warn : string -> (key * value) list -> unit
val error : string -> (key * value) list -> unit

(** Merged snapshot of every domain's ring, sorted by id. The caller
    owns quiescence; concurrent appends may or may not be included. *)
val events : unit -> event list

(** Last [n] events of the merged snapshot (all of them if fewer). *)
val tail : int -> event list

(** Events overwritten by ring wrap-around, summed over domains. *)
val dropped : unit -> int

(** Clear every ring and restart ids and the epoch (tests). *)
val reset : unit -> unit

val event_to_json : event -> Json.t

(** [{"events": [...], "dropped": n}]; [?tail] limits to the last
    [n] events (default: all retained). *)
val to_json : ?tail:int -> unit -> Json.t
