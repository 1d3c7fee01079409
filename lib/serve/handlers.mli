(** Request handlers shared by the CLI and the serve daemon.

    Each handler renders the full textual result of one pipeline flow
    into a string; the CLI prints it, the daemon frames it into a
    reply. One implementation means a warm-cache daemon reply is
    byte-identical to the one-shot CLI stdout for the same request, by
    construction.

    Handlers raise the documented pipeline exceptions
    ([Cayman_sim.Interp.Out_of_fuel], [Runtime_error],
    [Cayman_frontend.Diag.Error]); non-exceptional user errors come
    back as [Error message]. *)

(** Dynamic instruction count of the last profile run on this domain,
    noted by the handlers as a side channel and consumed (and cleared)
    by the daemon's audit log. 0 when nothing ran since the last take —
    e.g. a request answered from the memo layer. *)
val note_instrs : int -> unit

val take_instrs : unit -> int

(** Compile a request's program: a suite benchmark by name, or inline
    MiniC source. Exactly one must be given. *)
val load :
  ?bench:string ->
  ?source:string ->
  unit ->
  (Cayman_ir.Validate.t, string) result

(** Selection generator for a [--mode] string ([full],
    [coupled-only], [novia], [qscores]). *)
val gen_of_mode : string -> (Core.Select.accel_gen, string) result

(** Kernel interface mode for a cosim [--mode] string. *)
val kernel_mode_of : string -> (Cayman_hls.Kernel.mode, string) result

(** The [run] subcommand body: profile, select, pick the best solution
    under [budget] (fraction of a CVA6 tile), merge. *)
val run_text :
  ?fuel:int ->
  budget:float ->
  mode:string ->
  alpha:float ->
  Cayman_ir.Validate.t ->
  (string, string) result

(** Pretty-printed IR only. *)
val compile_text : Cayman_ir.Validate.t -> string

(** Profile summary line only. *)
val profile_text : ?fuel:int -> Cayman_ir.Validate.t -> string

(** The [dump] subcommand body: IR, wPST, profile total. *)
val dump_text : ?fuel:int -> Cayman_ir.Validate.t -> string

(** The [cosim] subcommand body. Returns the text and the verdict
    (lint-clean and all reports functionally and cycle-wise OK) the CLI
    maps to its exit code. *)
val cosim_text :
  ?fuel:int ->
  ?max_invocations:int ->
  budget:float ->
  mode:string ->
  Cayman_ir.Validate.t ->
  (string * bool, string) result
