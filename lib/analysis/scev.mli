(** Scalar evolution: affine address analysis for memory accesses.

    Stands in for LLVM's ScalarEvolution plus the paper's custom stream-
    pattern pass. An access whose index is an affine function of enclosing
    loop induction variables has a statically computable address sequence
    — the paper's *stream* pattern — and a statically analyzable footprint. *)

type affine = {
  const : int;
  ivs : (string * int) list;
      (** coefficient per loop (keyed by header label); IVs count
          iterations from 0 *)
  syms : (string * int) list;  (** loop-invariant symbolic terms *)
}

type form =
  | Affine of affine
  | Unknown

(** Access pattern with respect to the innermost enclosing loop. *)
type pattern =
  | Invariant
  | Stream of int  (** element stride per iteration *)
  | Irregular

type iv_info = { iv_loop : string; step : int; start : form }

type t

(** Resolves and classifies every memory access of the function once;
    the queries below read the result and never write [t], so one [t]
    may be read from several domains at once. *)
val create : Cayman_ir.Func.t -> Loops.t -> t

(** Loops containing a block, innermost first ({!Loops.enclosing}, built
    once per block by {!create}). *)
val enclosing : t -> string -> Loops.loop list

val affine_equal : affine -> affine -> bool
val coeff_of : affine -> string -> int

(** Affine form of the address of the memory instruction at [(block, pos)]
    (instruction index within the block). *)
val access_form : t -> block:string -> pos:int -> form

(** Counts one [analysis.scev_accesses_classified] per call. *)
val classify : t -> block:string -> pos:int -> pattern

(** [footprint t ~block ~pos ~trips] is the number of distinct elements the
    access touches while the loops in [trips] (pairs of header label and
    trip count) run; [None] when the address is not statically
    analyzable. *)
val footprint :
  t -> block:string -> pos:int -> trips:(string * int) list -> int option

(** {!footprint} of an access of the given address form. *)
val footprint_of_form : form -> trips:(string * int) list -> int option

(** Whether the register is a canonical induction variable of some loop. *)
val is_iv : t -> string -> bool

val iv_of : t -> string -> iv_info option

val pp_affine : Format.formatter -> affine -> unit
val pp_form : Format.formatter -> form -> unit
val pattern_to_string : pattern -> string
