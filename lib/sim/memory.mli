(** Program memory: one flat, element-granular array per global. *)

exception Fault of string

type t

val create : Cayman_ir.Program.t -> t

(** @raise Fault on unknown array or out-of-bounds access. *)
val load : t -> base:string -> index:int -> Value.t

val store : t -> base:string -> index:int -> Value.t -> unit
val size : t -> string -> int

(** Raw backing arrays, shared (not copied) with the memory — used by
    the staged interpreter to resolve a base name once at compile time
    instead of per access. [None] when the array is absent or of the
    other element kind. *)

val int_cells : t -> string -> int array option
val float_cells : t -> string -> float array option

(** {1 Resolved arrays}

    An array looked up once by name, for callers that access it many
    times (the RTL netlist simulator resolves each base once per
    invocation, and reads and writes its typed backing array directly).
    Errors carry the same text as {!load} and {!store}. *)

type cell =
  | Ints of int array  (** I32 and Bool elements *)
  | Floats of float array

(** The array named [base], shared with the memory; [None] when absent. *)
val find_cell : t -> string -> cell option

val load_cell : cell -> base:string -> index:int -> Value.t
val store_cell : cell -> base:string -> index:int -> Value.t -> unit

(** [blit ~src ~dst base] replaces [dst]'s contents of array [base] with
    those of [src]'s, in place when [dst] holds an array of the same
    kind and length (a fresh copy otherwise).
    @raise Fault when [src] has no such array. *)
val blit : src:t -> dst:t -> string -> unit

(** {1 Shadows}

    Private copies of a few arrays, so that a computation replayed from
    a memory's current state copies only the arrays it can write (the
    RTL co-simulation and the netlist simulator's scratchpad). *)

type shadow

(** [shadow bases] shadows the arrays named in [bases]. *)
val shadow : string list -> shadow

(** [view sh t] is a memory that shares every array of [t] except those
    named by [sh], which are private copies of [t]'s current contents
    (names absent from [t] are ignored). The copies are allocated on the
    first view of [t] and refilled in place by later views of the same
    [t] — which return the same memory. A shadow is mutable state that
    belongs to one caller on one domain. *)
val view : shadow -> t -> t

(** Arrays whose contents differ between two memories, sorted by name,
    each with a human-readable first-mismatch description. Only arrays
    of the first memory are compared — only those named in [bases] when
    given. Arrays missing from the second memory are reported; extra
    arrays there are not. *)
val diff : ?bases:string list -> t -> t -> (string * string) list

(** {1 Store logs}

    The (array, index) of each completed store, in order: the observed
    interpreter logs the stores of the blocks its observer marks, and
    the RTL netlist simulator logs every store of an invocation. A log
    is mutable state that belongs to one caller on one domain. *)

module Log : sig
  type t

  val create : unit -> t

  (** The log's number for array [base], assigned on first sight; a
      store is logged by number, so appending allocates nothing. *)
  val id : t -> string -> int

  (** [add t id index] appends a store to element [index] of the array
      numbered [id]. *)
  val add : t -> int -> int -> unit

  (** Entries logged since the last {!clear}. *)
  val length : t -> int

  (** Drops every entry; the numbers of arrays stay. *)
  val clear : t -> unit

  (** [get t k] is the [k]-th entry, counting from 0: array and index.
      @raise Invalid_argument unless [0 <= k < length t]. *)
  val get : t -> int -> string * int
end

(** [diff_logged ~bases a b logs] is [diff ~bases a b], provided every
    element that no entry of [logs] names is equal in [a] and [b]; each
    log is read from the entry position paired with it. It reads only
    the logged elements of arrays of the same kind and length in both
    memories, so its cost is that of the logs, not of the arrays. *)
val diff_logged :
  bases:string list -> t -> t -> (Log.t * int) list -> (string * string) list

(** Snapshot of an array's contents (for checking example results). *)
val to_float_array : t -> string -> float array

val to_int_array : t -> string -> int array
