(** Structural hashing for cache keys.

    Two layers:

    - a tiny incremental {e key builder} ([b]): callers feed it strings,
      ints, floats and booleans (each self-delimiting, so concatenated
      fields can never collide by sliding), and read back an MD5 digest.
      Every builder is seeded with {!version} — the library version salt
      — and a caller-chosen namespace, so keys from different subsystems
      or library versions never collide;

    - a {e canonicalizer} for IR regions ({!canon_region}): a
      deterministic traversal of a region's blocks that renames labels
      and virtual registers by first occurrence. Two regions that differ
      only in register/label names produce the same canonical code, so
      cache keys built from it survive irrelevant renames; any semantic
      change (an opcode, a constant, a type, the shape of the CFG)
      changes it. Array/global names are kept verbatim — they are
      program symbols with aliasing semantics, not renameable
      temporaries.

    Soundness contract for cache keys built here: equal keys must imply
    equal results. The canonical code makes that hold for anything
    computed from the region's instructions alone; facts a computation
    reads from outside the code (profiles, analyses, configuration) must
    be fed to the builder explicitly by the caller. *)

(** Version salt mixed into every key (and into {!Store}'s on-disk
    digests). Bump on any change to cached-value semantics, the key
    derivation, or the codec: old entries then simply miss. *)
val version : string

(** {1 Key builder} *)

type b

(** [builder ~ns] is a fresh builder seeded with {!version} and the
    namespace [ns]. *)
val builder : ns:string -> b

val str : b -> string -> unit
val int : b -> int -> unit
val bool : b -> bool -> unit

(** Exact: hashes the IEEE-754 bits, not a decimal rendering. *)
val float : b -> float -> unit

val int_opt : b -> int option -> unit

(** 32-character lowercase hex MD5 of everything fed so far. *)
val digest : b -> string

(** {1 IR listings}

    One emitter renders IR for every key: a region under canonical or
    original names, and a whole program. It writes straight into a
    buffer, and prints float immediates exactly ([%h]), so two
    programs that differ in any constant get different listings. *)

type listing = {
  code : string;  (** the listing *)
  block_order : string list;  (** original labels, canonical order *)
  label_name : string -> string;
      (** the name a label has in [code]: for a canonical listing
          [B<k>] inside the region, [X<k>] for recorded exit targets,
          [?<l>] otherwise; the identity for an exact one *)
}

(** The alpha-renamed listing of [region] of [func]: blocks in canonical
    order, labels as [B0..], registers as [r0..], exit targets as
    [X0..]. The canonical order is a breadth-first walk from the region
    entry in terminator successor order — a property of the CFG shape
    only, so the order and every derived name are invariant under
    renaming. Blocks the walk does not reach (defensive; SESE regions
    have none) are appended in sorted label order. Names are numbered
    by first occurrence: within an instruction its operands last to
    first, then its destination; a store its value, then its index; a
    call its destination, then its arguments left to right; a branch
    its false target, its true target, then its condition. *)
val canon_region : Cayman_ir.Func.t -> Cayman_analysis.Region.t -> listing

(** The same walk under original names (for caches whose values embed
    names, e.g. netlists). *)
val exact_region : Cayman_ir.Func.t -> Cayman_analysis.Region.t -> listing

(** Exact listing of a whole program under original names: its entry
    function, globals, and every function's signature and blocks, in
    program order. *)
val program_code : Cayman_ir.Program.t -> string

(** Hex MD5 of {!program_code}. *)
val program_digest : Cayman_ir.Program.t -> string

(** {1 Canon digests, collision-guarded}

    Fleet-scale clustering compares kernels by the digest of their
    canonical listing and treats equal digests as "structurally identical" —
    a hash collision would silently merge different datapaths. The
    digest below therefore passes through a process-wide guard that
    remembers every distinct canonical code seen per digest and bumps
    the [memo.canon_collisions] counter (surfaced by
    [cayman cache stats]) whenever two different codes map to the same
    digest. The count is schedule-independent: it equals the sum over
    digests of (distinct codes − 1), in whatever order regions are
    canonicalized. *)

(** Guarded, version-salted digest of a {!canon_region} listing. *)
val canon_digest : listing -> string

(** The guard itself, exposed so tests can exercise the collision path
    directly (real MD5 collisions being unconstructible here): records
    [code] under [digest] and counts a collision when a different code
    was already recorded for it. *)
val guard_digest : digest:string -> code:string -> unit
