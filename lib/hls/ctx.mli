(** Per-function analysis context: the paper's profiling/analysis results
    [R], bundled for the accelerator model and candidate selection.

    A context is immutable once {!create} returns: selection reads one
    from several pool domains at once, so anything derived from the
    function or its profile must be built eagerly in {!create}, never
    cached on first use. *)

type t = {
  program : Cayman_ir.Program.t;
  func : Cayman_ir.Func.t;
  counts : Cayman_sim.Profile.counts;  (** the function's profile, by id *)
  loops : Cayman_analysis.Loops.t;
  scev : Cayman_analysis.Scev.t;
  cfg : Cayman_ir.Cfg.t;  (** the index the function's wPST was built from *)
  dfgs : Dfg.t array;  (** per block id *)
  cycles : int array;  (** per block id: {!block_cycles} *)
  loop_info : Cayman_analysis.Memdep.loop_info option array;
      (** per block id, [Some] for loop headers *)
  trips : float array;  (** per loop header id: average profiled trip count *)
  entries : int array;
      (** per loop header id: profiled entries into the loop from outside *)
}

(** The context of an indexed function of the program, whose counts it
    reads from the program's profile by the index's ids.
    @raise Invalid_argument when the profile has no function of that
    name. *)
val create :
  Cayman_ir.Program.t -> Cayman_sim.Profile.t -> Cayman_ir.Cfg.t -> t

val dfg : t -> string -> Dfg.t
val loop_info : t -> string -> Cayman_analysis.Memdep.loop_info option

(** Average profiled trip count, rounded (0 if the loop never entered). *)
val trip : t -> string -> int

val block_exec : t -> string -> int

(** Profiled host cycles of one block: its executions times its static
    cost. *)
val block_cycles : t -> string -> int

(** The loops that lie wholly inside a region. *)
val loops_inside :
  t -> Cayman_analysis.Region.t -> Cayman_analysis.Loops.loop list

(** [region_trips t r label]: (header, {!trip}) of each loop around
    [label] that lies wholly inside [r], innermost first — the loops
    whose iterations one execution of [r] covers. *)
val region_trips :
  t -> Cayman_analysis.Region.t -> string -> (string * int) list

(** Profiled host cycles spent in a region's own blocks (callee time
    excluded). *)
val region_cycles : t -> Cayman_analysis.Region.t -> int

(** Executions of a region: entries into its entry block from outside
    it, each edge counted once; a whole-function region counts calls. *)
val region_entries : t -> Cayman_analysis.Region.t -> int

val loop_entries : t -> Cayman_analysis.Loops.loop -> int

(** Contexts for every function of the wPST (those reachable from
    main), each over the index its region tree was built from. *)
val for_program :
  Cayman_analysis.Wpst.t -> Cayman_sim.Profile.t -> (string, t) Hashtbl.t
