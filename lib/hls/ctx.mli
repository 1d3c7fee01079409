(** Per-function analysis context: the paper's profiling/analysis results
    [R], bundled for the accelerator model and candidate selection.

    A context is immutable once {!create} returns: selection reads one
    from several pool domains at once, so anything derived from the
    function or its profile must be built eagerly in {!create}, never
    cached on first use. *)

type t = {
  program : Cayman_ir.Program.t;
  func : Cayman_ir.Func.t;
  profile : Cayman_sim.Profile.t;
  loops : Cayman_analysis.Loops.t;
  scev : Cayman_analysis.Scev.t;
  loop_info : (string, Cayman_analysis.Memdep.loop_info) Hashtbl.t;
  dfgs : (string, Dfg.t) Hashtbl.t;
  trips : (string, float) Hashtbl.t;
  entries : (string, int) Hashtbl.t;
      (** per loop header: profiled entries into the loop from outside *)
}

val create :
  Cayman_ir.Program.t -> Cayman_sim.Profile.t -> Cayman_ir.Func.t -> t

val dfg : t -> string -> Dfg.t
val loop_info : t -> string -> Cayman_analysis.Memdep.loop_info option

(** Average profiled trip count, rounded (0 if the loop never entered). *)
val trip : t -> string -> int

val block_exec : t -> string -> int

(** Profiled host cycles of one block ({!Cayman_sim.Profile.block_cycles}). *)
val block_cycles : t -> string -> int

val loop_entries : t -> Cayman_analysis.Loops.loop -> int

(** Contexts for every function reachable from main. *)
val for_program :
  Cayman_ir.Program.t -> Cayman_sim.Profile.t -> (string, t) Hashtbl.t
