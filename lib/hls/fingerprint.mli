(** Cache-key derivation for the memoization store ({!Memo.Store}).

    A cache key must determine the computation's result: it is built by
    {e fact enumeration} — every input the estimator/netlist backend
    reads is fed to a {!Memo.Hash} builder. Concretely that is the
    region's exact code, the profile facts
    (region cycles/entries, per-block execution counts and cycles,
    per-loop trip counts and entries), the memory-dependence facts
    (recurrences, loop-carried dependencies), the scalar-evolution facts
    (access pattern, affine form, static footprint w.r.t. the region's
    loop trips — mirroring [Kernel.assign_interfaces]), the technology
    table ({!tech}), and the kernel configuration. The library
    version salt rides in via {!Memo.Hash.builder}.

    [netlist_key] uses the {e exact} listing and original names:
    netlists embed real names (module name, FSM states, architectural
    registers), so those keys are rename-sensitive by design. Design
    points are not cached: {!Kernel.estimate_all} costs about as much
    as a key for its region would. *)

(** Digest of the full {!Tech} characterization table: any change to a
    delay/area/latency constant invalidates every key derived here. *)
val tech : string

(** Key for [Netlist.of_kernel ctx region ?beta config]. *)
val netlist_key :
  Ctx.t ->
  Cayman_analysis.Region.t ->
  beta:float ->
  config:Kernel.config ->
  string
