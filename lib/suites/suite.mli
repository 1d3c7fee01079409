(** Registry of the 28 evaluation benchmarks of Table II, grouped by
    suite (PolyBench, MachSuite, MediaBench, CoreMark-Pro). *)

type benchmark = {
  name : string;
  suite : string;
  source : string;  (** MiniC source *)
}

val all : benchmark list
val find : string -> benchmark option

(** @raise Invalid_argument on unknown name. *)
val find_exn : string -> benchmark

val names : string list

(** Benchmarks plotted in Fig. 6 (one per suite). *)
val fig6 : string list

(** Compile a benchmark's MiniC source to checked IR.
    @raise Cayman_frontend.Diag.Error on frontend errors. *)
val compile : benchmark -> Cayman_ir.Validate.t
