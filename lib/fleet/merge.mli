(** Cross-program accelerator merging over a generated fleet.

    The end-to-end fleet pipeline:

    + {e collect} — for each program index, generate its MiniC source
      ({!Genprog.minic_source}), compile/profile/analyze it, run
      selection under the per-program budget, and lift every selected
      accelerator into a {!Cluster.kernel} (canon digest, coarse
      signature, program-qualified {!Core.Merge.accel}). One
      {!Memo.Store} entry per program ([fleet.prog]) makes warm reruns
      skip the whole per-program pipeline;
    + {e cluster} — {!Cluster.group} buckets kernels by coarse
      signature so the expensive pairwise merge never crosses buckets;
    + {e merge} — inside each cluster, alpha-equivalent kernels (equal
      canon digest) are chain-merged linearly, then the distinct
      representatives go through {!Core.Merge.merge_accels}. Per-cluster
      results are memoized ([fleet.cluster]) keyed by the members'
      digests and resource vectors;
    + {e budget} — shared accelerators are packed greedily by
      saved-seconds-per-area density under the global area budget, and
      the coverage is compared against per-program merging under the
      same budget.

    Collection and per-cluster merging fan out over {!Engine.Pool};
    reports are byte-identical for every [CAYMAN_JOBS] (results arrive
    in task order, all floats are folded in fleet order). *)

type options = {
  o_kernels : int;  (** number of generated kernel programs *)
  o_seed : int;
  o_budget : float;  (** global area budget, in CVA6 tiles *)
  o_per_budget : float;  (** per-program selection budget, in tiles *)
  o_jobs : int option;  (** worker override; [None] = engine default *)
}

(** 1000 kernels, seed 42, global budget 4.0 tiles, per-program budget
    0.25 tiles. *)
val default_options : options

type report = {
  r_seed : int;
  r_programs : int;  (** generated programs *)
  r_failed : int;  (** programs whose pipeline failed (0 by design) *)
  r_kernels : int;  (** selected kernel accelerators fleet-wide *)
  r_clusters : int;
  r_distinct : int;  (** distinct canon digests fleet-wide *)
  r_accels : int;  (** shared accelerators after fleet merging *)
  r_reusable : int;  (** those covering >= 2 kernel regions *)
  r_regions_per_reusable : float;
  r_area_solo : float;  (** um^2, no merging at all *)
  r_area_per_program : float;  (** um^2, after per-program merging *)
  r_area_fleet : float;  (** um^2, after cross-program merging *)
  r_saving_per_program_pct : float;  (** per-program vs solo *)
  r_saving_fleet_pct : float;  (** fleet vs solo *)
  r_saving_vs_per_program_pct : float;  (** fleet vs per-program *)
  r_budget : float;  (** global budget, tiles *)
  r_budget_kernels_fleet : int;
      (** kernel regions served by fleet accelerators packed under the
          global budget *)
  r_budget_kernels_per_program : int;  (** same for per-program accels *)
  r_budget_saved_fleet : float;  (** host seconds saved under budget *)
  r_budget_saved_per_program : float;
}

(** The {e collect} phase alone: every selected kernel of the fleet, in
    fleet order (program index, then selection order). *)
val kernels : options -> Cluster.kernel list

(** The {e merge} phase of one cluster, unmemoized: alpha-equivalent
    members chain-merged, then the distinct representatives through
    {!Core.Merge.merge_accels}. *)
val merge_cluster : Cluster.cluster -> Core.Merge.accel list

(** Run the full pipeline. Deterministic for fixed [options] (modulo
    the memo store being semantically transparent). *)
val run : options -> report

(** Byte-stable human rendering (no wall times, no schedule-dependent
    detail) — the determinism contract surface. *)
val report_to_string : report -> string

val report_to_json : report -> Obs.Json.t
