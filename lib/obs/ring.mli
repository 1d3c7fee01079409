(** Per-domain bounded rings with one global id sequence: the recording
    half shared by {!Trace} and {!Log}.

    Each domain appends to its own ring, reached through [Domain.DLS]
    (no lock past the first use per domain). Ids come from one global
    monotone counter, so {!contents} merges every ring into one
    id-sorted sequence. A full ring overwrites its oldest entry; the
    losses are counted by {!dropped}. *)

type 'a t

(** This domain's ring. *)
type 'a local

val create : capacity:int -> 'a t

(** The calling domain's ring, created and registered on first use. *)
val local : 'a t -> 'a local

(** The id of the domain that owns the ring. *)
val dom : 'a local -> int

(** A fresh id: unique and monotone across all domains. *)
val next_id : 'a t -> int

(** Append an entry, overwriting the oldest once the ring is full. *)
val push : 'a t -> 'a local -> 'a -> unit

(** Ids of the entries still open on this domain, innermost first (the
    nesting stack of {!Trace}); cleared by {!reset}. *)
val open_ids : 'a local -> int list

val set_open_ids : 'a local -> int list -> unit

(** Wall-clock time ([Unix.gettimeofday]) that entry timestamps are
    taken relative to. *)
val epoch : 'a t -> float

(** Restart the epoch at the current time. *)
val rearm : 'a t -> unit

(** Every retained entry, merged across domains and sorted by [id]. The
    caller owns quiescence: entries pushed concurrently with the read
    may or may not be included. *)
val contents : 'a t -> id:('a -> int) -> 'a list

(** Entries lost to overwrite, summed over domains. *)
val dropped : 'a t -> int

(** Empty every ring, restart ids at 1 and rearm the epoch. *)
val reset : 'a t -> unit
