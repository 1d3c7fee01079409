(** Per-function analysis context: the paper's profiling/analysis results
    [R], bundled for the accelerator model and candidate selection.

    A context is immutable once {!create} returns: selection reads one
    from several pool domains at once, so anything derived from the
    function or its profile must be built eagerly in {!create}, never
    cached on first use. *)

(** One memory access of a block. *)
type access = {
  ac_pos : int;  (** its DFG node (instruction index) *)
  ac_base : string;  (** the array it reads or writes *)
  ac_store : bool;
  ac_form : Cayman_analysis.Scev.form;  (** address form *)
  ac_pattern : Cayman_analysis.Scev.pattern;
}

(** What the accelerator model reads about one loop, whatever the
    region around it. *)
type loop_facts = {
  lf_loop : Cayman_analysis.Loops.loop;
  lf_header : int;  (** header id *)
  lf_blocks : Cayman_ir.Cfg.Bits.t;  (** member ids *)
  lf_body : int;
      (** id of the body block when the loop is pipelineable (innermost
          with a straight-line body), else [-1] *)
  lf_trip : int;  (** {!trip} of its header *)
  lf_unroll_trip : int;
      (** [lf_trip] when the loop has no carried dependency, else 0: an
          unroll factor up to it applies *)
  lf_entries : int;  (** profiled entries from outside the loop *)
}

type t = {
  program : Cayman_ir.Program.t;
  func : Cayman_ir.Func.t;
  counts : Cayman_sim.Profile.counts;  (** the function's profile, by id *)
  loops : Cayman_analysis.Loops.t;
  scev : Cayman_analysis.Scev.t;
  cfg : Cayman_ir.Cfg.t;  (** the index the function's wPST was built from *)
  dfgs : Dfg.t array;  (** per block id *)
  cycles : int array;  (** per block id: {!block_cycles} *)
  units_area : float array;  (** per block id: area of its DFG's units *)
  accesses : access array array;
      (** per block id: its memory accesses, in DFG node order *)
  enclosing : int array array;
      (** per block id: the loops around it, innermost first, as indices
          into [loop_facts] *)
  loop_info : Cayman_analysis.Memdep.loop_info option array;
      (** per block id, [Some] for loop headers *)
  trips : float array;  (** per loop header id: average profiled trip count *)
  loop_facts : loop_facts array;  (** in [loops] order *)
  loop_at : int array;
      (** per block id: the index in [loop_facts] of the loop it heads,
          or [-1] *)
}

(** The context of an indexed function of the program, whose counts it
    reads from the program's profile by the index's ids; [md] is the
    index's must-defined solution, whose register numbering the
    liveness behind [loop_info] uses.
    @raise Invalid_argument when the profile has no function of that
    name. *)
val create :
  Cayman_ir.Program.t ->
  Cayman_sim.Profile.t ->
  Cayman_ir.Cfg.t ->
  Cayman_ir.Cfg.Must_defined.t ->
  t

val dfg : t -> string -> Dfg.t
val loop_info : t -> string -> Cayman_analysis.Memdep.loop_info option

(** Average profiled trip count, rounded (0 if the loop never entered). *)
val trip : t -> string -> int

val block_exec : t -> string -> int

(** Profiled host cycles of one block: its executions times its static
    cost. *)
val block_cycles : t -> string -> int

val loop_entries : t -> Cayman_analysis.Loops.loop -> int

(** A region's member blocks resolved to ids once, for every
    per-region query below. *)
type region = private {
  region : Cayman_analysis.Region.t;
  labels : string array;  (** member labels, sorted *)
  ids : int array;  (** their ids, in the same (label) order *)
  set : Cayman_ir.Cfg.Bits.t;  (** the same ids, as a set *)
  inside : bool array;
      (** per entry of [loop_facts]: whether the loop lies wholly inside
          the region *)
}

(** @raise Not_found when a member label is not a block of the
    function. *)
val resolve : t -> Cayman_analysis.Region.t -> region

(** The loops that lie wholly inside a region, in [loops] order. *)
val loops_inside : t -> region -> Cayman_analysis.Loops.loop list

(** [region_trips t r v]: (header, {!trip}) of each loop around block id
    [v] that lies wholly inside [r], innermost first — the loops whose
    iterations one execution of [r] covers. *)
val region_trips : t -> region -> int -> (string * int) list

(** Profiled host cycles spent in a region's own blocks (callee time
    excluded). *)
val region_cycles : t -> Cayman_analysis.Region.t -> int

(** Executions of a region: entries into its entry block from outside
    it, each edge counted once; a whole-function region counts calls. *)
val region_entries : t -> region -> int

(** Contexts for every function of the wPST (those reachable from
    main), each over the index its region tree was built from. *)
val for_program :
  Cayman_analysis.Wpst.t -> Cayman_sim.Profile.t -> (string, t) Hashtbl.t
