(** Candidate selection: the dynamic-programming knapsack over the wPST
    (Algorithm 1 of the paper), with heuristic pruning and solution
    filtering.

    The accelerator model is injected as an {!accel_gen}, so the same DP
    serves full Cayman, the coupled-only ablation, and the NOVIA/QsCores
    baselines. *)

type accel_gen =
  Cayman_hls.Ctx.t -> Cayman_analysis.Region.t -> Cayman_hls.Kernel.point list

type params = {
  alpha : float;  (** filter spacing ratio *)
  prune_threshold : float;
      (** regions with profiled duration below this fraction of [T_all]
          are pruned (their whole subtree is skipped) *)
}

val default_params : params

(** A region whose candidate generation raised. Selection degrades
    rather than aborts: the region contributes no accelerator (it stays
    on the CPU) and the failure is reported here. *)
type failure = {
  fb_func : string;  (** enclosing function *)
  fb_region : string;  (** region name *)
  fb_reason : string;  (** stable one-line cause *)
}

type stats = {
  visited : int;  (** wPST vertices entered *)
  pruned : int;
  points_evaluated : int;  (** design points produced by the model *)
  failures : failure list;
      (** generation failures in region visit order; empty on a healthy
          run *)
}

val failure_reason : exn -> string
(** Deterministic one-line rendering of a generation failure's cause
    (used for {!failure.fb_reason}; exposed for the fault campaign). *)

(** [select ~gen ctxs wpst profile] returns the filtered Pareto frontier
    [F(root)] of the whole application plus search statistics.

    Candidate generation — the [gen] call on every non-pruned region —
    runs across [jobs] domains via [Engine.Pool.map_result] (default:
    the engine's resolution of [CAYMAN_JOBS] /
    [Domain.recommended_domain_count]). The result is deterministic:
    any [jobs] value yields the same frontier and stats,
    solution-for-solution, as [~jobs:1]. A [gen] that raises on some
    region poisons only that region: it is recorded in
    [stats.failures], its subtree still combines children normally, and
    every other region's candidates are unaffected.

    Selection never reads or writes the {!Memo.Store}: every task
    calls [gen]. One model call costs about as much as deriving a
    cache key for its region, so caching candidate lists would cost
    more than it saves. What a warm run reuses is the profile that
    {!Cayman.analyze} keeps in the store. *)
val select :
  ?params:params ->
  ?jobs:int ->
  gen:accel_gen ->
  (string, Cayman_hls.Ctx.t) Hashtbl.t ->
  Cayman_analysis.Wpst.t ->
  Cayman_sim.Profile.t ->
  Solution.t list * stats
