(* Tests for solutions, the Pareto/filter machinery (with qcheck), and
   the selection dynamic program. *)

module An = Cayman_analysis
module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

(* Make a synthetic solution with a given (area, saved). *)
let sol area saved =
  { Core.Solution.empty with Core.Solution.area; saved }

let arb_solutions =
  QCheck.(
    list_of_size
      (QCheck.Gen.int_range 0 40)
      (pair (float_bound_inclusive 5.0e5) (float_bound_inclusive 1.0)))
  |> QCheck.map (List.map (fun (a, s) -> sol a s))

let is_sorted_increasing_area =
  let rec go = function
    | a :: (b :: _ as rest) ->
      a.Core.Solution.area <= b.Core.Solution.area && go rest
    | [ _ ] | [] -> true
  in
  go

let is_strictly_increasing_saved =
  let rec go = function
    | a :: (b :: _ as rest) ->
      a.Core.Solution.saved < b.Core.Solution.saved && go rest
    | [ _ ] | [] -> true
  in
  go

let qcheck_pareto_sorted =
  Testutil.qtest ~count:200 "pareto is sorted with increasing saved"
    arb_solutions (fun xs ->
      let p = Core.Solution.pareto xs in
      is_sorted_increasing_area p && is_strictly_increasing_saved p)

let qcheck_pareto_contains_empty =
  Testutil.qtest ~count:100 "pareto starts from the empty solution"
    arb_solutions (fun xs ->
      match Core.Solution.pareto xs with
      | first :: _ -> first.Core.Solution.area = 0.0
      | [] -> false)

let qcheck_pareto_dominates_input =
  Testutil.qtest ~count:200 "every input is dominated by a pareto point"
    arb_solutions (fun xs ->
      let p = Core.Solution.pareto xs in
      List.for_all
        (fun x ->
          List.exists
            (fun y ->
              y.Core.Solution.area <= x.Core.Solution.area
              && y.Core.Solution.saved >= x.Core.Solution.saved)
            p)
        xs)

let qcheck_filter_spacing =
  Testutil.qtest ~count:200 "filter enforces alpha spacing"
    arb_solutions (fun xs ->
      let alpha = 1.2 in
      let f = Core.Solution.filter ~alpha (Core.Solution.pareto xs) in
      (* consecutive areas grow by alpha; only the final element may break
         the spacing (it is the retained maximum-saving solution) *)
      let rec go = function
        | [ _ ] | [] | [ _; _ ] -> true
        | a :: (b :: _ as rest) ->
          b.Core.Solution.area
          > alpha *. Float.max a.Core.Solution.area Core.Solution.area_quantum
          && go rest
      in
      let spacing_first a b =
        b.Core.Solution.area
        > alpha *. Float.max a.Core.Solution.area Core.Solution.area_quantum
      in
      (match f with
       | a :: b :: _ when List.length f > 2 -> spacing_first a b
       | _ -> true)
      && go f)

let qcheck_filter_keeps_best =
  Testutil.qtest ~count:200 "filter keeps the maximum saving"
    arb_solutions (fun xs ->
      let p = Core.Solution.pareto xs in
      let f = Core.Solution.filter ~alpha:1.5 p in
      let best l =
        List.fold_left (fun acc s -> Float.max acc s.Core.Solution.saved) 0.0 l
      in
      abs_float (best p -. best f) < 1e-12)

let qcheck_combine_additive =
  Testutil.qtest ~count:100 "combine unions areas and savings"
    (QCheck.pair arb_solutions arb_solutions) (fun (xs, ys) ->
      let combined =
        Core.Solution.combine ~alpha:1.1 (Core.Solution.pareto xs)
          (Core.Solution.pareto ys)
      in
      (* every combined solution's totals equal the sum over its accels;
         since synthetic solutions have no accels, just check the list is a
         valid pareto sequence *)
      is_sorted_increasing_area combined
      && is_strictly_increasing_saved combined)

let test_best_under () =
  let xs =
    [ sol 0.0 0.0; sol 100_000.0 0.2; sol 200_000.0 0.5; sol 400_000.0 0.7 ]
  in
  let get budget =
    match Core.Solution.best_under ~budget xs with
    | Some s -> s.Core.Solution.saved
    | None -> -1.0
  in
  Alcotest.(check (float 1e-9)) "tight budget" 0.2 (get 150_000.0);
  Alcotest.(check (float 1e-9)) "mid budget" 0.5 (get 200_000.0);
  Alcotest.(check (float 1e-9)) "large budget" 0.7 (get 1.0e9);
  Alcotest.(check (float 1e-9)) "zero budget keeps empty" 0.0 (get 0.0)

let test_speedup_formula () =
  let s = sol 1000.0 0.5 in
  Alcotest.(check (float 1e-9)) "Eq 1" 2.0 (Core.Solution.speedup ~t_all:1.0 s);
  Alcotest.(check (float 1e-9)) "no saving" 1.0
    (Core.Solution.speedup ~t_all:1.0 Core.Solution.empty)

(* --- DP on real benchmarks --- *)

let analyzed_cache : (string, Core.Cayman.analyzed) Hashtbl.t =
  Hashtbl.create 4

let analyzed name =
  match Hashtbl.find_opt analyzed_cache name with
  | Some a -> a
  | None ->
    let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn name)) in
    Hashtbl.replace analyzed_cache name a;
    a

let frontier_of name gen =
  let a = analyzed name in
  let frontier, stats =
    Core.Select.select ~gen a.Core.Cayman.ctxs a.Core.Cayman.wpst
      a.Core.Cayman.profile
  in
  a, frontier, stats

let test_dp_nonoverlap () =
  (* the knapsack constraint: selected kernels of any solution belong to
     non-overlapping regions (block sets disjoint per function) *)
  List.iter
    (fun name ->
      let a, frontier, _ =
        frontier_of name (Core.Cayman.gen Hls.Kernel.Heuristic)
      in
      List.iter
        (fun s ->
          let by_func = Hashtbl.create 4 in
          List.iter
            (fun (acc : Core.Solution.accel) ->
              let region = (Core.Cayman.kernel_of a acc).Hls.Kernel.k_region in
              let prev =
                try Hashtbl.find by_func acc.Core.Solution.a_func
                with Not_found -> An.Region.String_set.empty
              in
              if
                not
                  (An.Region.String_set.is_empty
                     (An.Region.String_set.inter prev region.An.Region.blocks))
              then
                Alcotest.failf "%s: overlapping kernels in one solution" name;
              Hashtbl.replace by_func acc.Core.Solution.a_func
                (An.Region.String_set.union prev region.An.Region.blocks))
            s.Core.Solution.accels)
        frontier)
    [ "atax"; "trisolv"; "fft" ]

let test_dp_budget_monotone () =
  let _, frontier, _ =
    frontier_of "atax" (Core.Cayman.gen Hls.Kernel.Heuristic)
  in
  let a = analyzed "atax" in
  let speedups =
    List.map
      (fun budget ->
        match
          Core.Solution.best_under
            ~budget:(budget *. Hls.Tech.cva6_tile_area)
            frontier
        with
        | Some s -> Core.Solution.speedup ~t_all:a.Core.Cayman.t_all s
        | None -> 1.0)
      [ 0.05; 0.15; 0.25; 0.45; 0.65; 1.0 ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "speedup grows with budget" true (monotone speedups)

let test_dp_saved_within_total () =
  List.iter
    (fun name ->
      let a, frontier, _ =
        frontier_of name (Core.Cayman.gen Hls.Kernel.Heuristic)
      in
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (name ^ ": saved below T_all")
            true
            (s.Core.Solution.saved <= a.Core.Cayman.t_all +. 1e-12
             && s.Core.Solution.saved >= -1e-12))
        frontier)
    [ "atax"; "bicg"; "spmv" ]

let test_baselines_dominated () =
  (* NOVIA's design space is a subset of Cayman's: at every budget, full
     Cayman is at least as fast. Same for QsCores and coupled-only. *)
  List.iter
    (fun name ->
      let a = analyzed name in
      let run gen =
        let frontier, _ =
          Core.Select.select ~gen a.Core.Cayman.ctxs a.Core.Cayman.wpst
            a.Core.Cayman.profile
        in
        frontier
      in
      let full = run (Core.Cayman.gen Hls.Kernel.Heuristic) in
      let others =
        [ "coupled", run (Core.Cayman.gen Hls.Kernel.Coupled_only);
          "novia", run Cayman_baselines.Novia.gen;
          "qscores", run Cayman_baselines.Qscores.gen ]
      in
      List.iter
        (fun budget ->
          let best frontier =
            match
              Core.Solution.best_under
                ~budget:(budget *. Hls.Tech.cva6_tile_area)
                frontier
            with
            | Some s -> Core.Solution.speedup ~t_all:a.Core.Cayman.t_all s
            | None -> 1.0
          in
          let sp_full = best full in
          List.iter
            (fun (label, f) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: full >= %s at %.0f%%" name label
                   (100.0 *. budget))
                true
                (* allow a tiny tolerance: the filter may drop points *)
                (sp_full >= best f *. 0.95))
            others)
        [ 0.25; 0.65 ])
    [ "atax"; "mvt" ]

let test_pruning_reduces_work () =
  let a = analyzed "atax" in
  let run threshold =
    let params =
      { Core.Select.default_params with Core.Select.prune_threshold = threshold }
    in
    let _, stats =
      Core.Select.select ~params
        ~gen:(Core.Cayman.gen Hls.Kernel.Heuristic)
        a.Core.Cayman.ctxs a.Core.Cayman.wpst a.Core.Cayman.profile
    in
    stats
  in
  let none = run 0.0 in
  let aggressive = run 0.05 in
  Alcotest.(check bool) "pruning skips vertices" true
    (aggressive.Core.Select.pruned > none.Core.Select.pruned);
  Alcotest.(check bool) "pruning evaluates fewer points" true
    (aggressive.Core.Select.points_evaluated
     <= none.Core.Select.points_evaluated)

let test_alpha_bounds_frontier () =
  let a = analyzed "atax" in
  let frontier_len alpha =
    let params = { Core.Select.default_params with Core.Select.alpha } in
    let frontier, _ =
      Core.Select.select ~params
        ~gen:(Core.Cayman.gen Hls.Kernel.Heuristic)
        a.Core.Cayman.ctxs a.Core.Cayman.wpst a.Core.Cayman.profile
    in
    List.length frontier
  in
  Alcotest.(check bool) "larger alpha gives shorter frontier" true
    (frontier_len 2.0 <= frontier_len 1.05)

(* The DP folds a region's children from the first child's frontier:
   crossing a filtered Pareto sequence with the empty solution alone
   gives the same sequence back. *)
let qcheck_combine_empty_identity =
  Testutil.qtest ~count:300 "combine with the empty solution is identity"
    QCheck.(pair arb_solutions (float_range 1.01 3.0))
    (fun (xs, alpha) ->
      let s = Core.Solution.filter ~alpha (Core.Solution.pareto xs) in
      Core.Solution.equal_frontier
        (Core.Solution.combine ~alpha [ Core.Solution.empty ] s)
        s)

(* Over the Table II programs and four generated fleets, in all five
   modes, selection with four jobs equals selection with one over the
   same shared contexts: frontier and stats. *)
let test_select_jobs_agree () =
  let runs = ref 0 in
  List.iter
    (fun (name, (a : Core.Cayman.analyzed)) ->
      List.iter
        (fun mode ->
          let select jobs =
            Core.Select.select ~jobs ~gen:(Core.Cayman.gen mode)
              a.Core.Cayman.ctxs a.Core.Cayman.wpst a.Core.Cayman.profile
          in
          let f1, s1 = select 1 and f4, s4 = select 4 in
          incr runs;
          if not (Core.Solution.equal_frontier f1 f4 && s1 = s4) then
            Alcotest.failf "%s, %s: 4 jobs differ from 1" name
              (Hls.Kernel.mode_to_string mode))
        Testutil.all_modes)
    (Lazy.force Testutil.sweep_corpus);
  Alcotest.(check bool) "selections compared" true (!runs > 0)

let tests =
  [ qcheck_pareto_sorted;
    qcheck_combine_empty_identity;
    qcheck_pareto_contains_empty;
    qcheck_pareto_dominates_input;
    qcheck_filter_spacing;
    qcheck_filter_keeps_best;
    qcheck_combine_additive;
    Alcotest.test_case "best_under budgets" `Quick test_best_under;
    Alcotest.test_case "speedup formula" `Quick test_speedup_formula;
    Alcotest.test_case "DP kernels never overlap" `Slow test_dp_nonoverlap;
    Alcotest.test_case "budget monotonicity" `Quick test_dp_budget_monotone;
    Alcotest.test_case "saved within T_all" `Quick test_dp_saved_within_total;
    Alcotest.test_case "baselines dominated by full Cayman" `Slow
      test_baselines_dominated;
    Alcotest.test_case "pruning reduces work" `Quick test_pruning_reduces_work;
    Alcotest.test_case "4 jobs select as 1 on shared contexts" `Slow
      test_select_jobs_agree;
    Alcotest.test_case "alpha bounds frontier size" `Quick
      test_alpha_bounds_frontier ]
