(* Shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.equal (String.sub haystack i nn) needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

(* Compile MiniC and run it, returning the int exit value, the
   interpreter result and the checked program's indices. *)
let compile_run ?fuel src =
  let program =
    (Cayman_frontend.Lower.compile src :> Cayman_ir.Cfg.program)
  in
  let res = Cayman_sim.Interp.run ?fuel program in
  let value =
    match res.Cayman_sim.Interp.return_value with
    | Some (Cayman_sim.Value.Vint n) -> n
    | Some (Cayman_sim.Value.Vfloat _ | Cayman_sim.Value.Vbool _) | None ->
      Alcotest.fail "main must return an int"
  in
  value, res, program

(* Compile MiniC, run main, and check its integer return value. *)
let check_main_returns name src expected =
  let value, _, _ = compile_run src in
  Alcotest.(check int) name expected value

let expect_frontend_error name src =
  match Cayman_frontend.Lower.compile src with
  | _ -> Alcotest.failf "%s: expected a frontend error" name
  | exception Cayman_frontend.Diag.Error _ -> ()

(* The program structure tree of a raw function. *)
let pst f = Cayman_analysis.Region.pst_of_cfg (Cayman_ir.Cfg.of_func f)

(* The index of the first function with the given name. *)
let cfg_of program name =
  match Cayman_ir.Cfg.find program name with
  | Some (cfg, _) -> cfg
  | None -> Alcotest.failf "no indexed function %s" name

(* First function with the given name, with its analyses. *)
let func_ctx program res name =
  let ctxs =
    Cayman_hls.Ctx.for_program
      (Cayman_analysis.Wpst.build program)
      res.Cayman_sim.Interp.profile
  in
  match Hashtbl.find_opt ctxs name with
  | Some ctx -> ctx
  | None -> Alcotest.failf "no context for function %s" name

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* The datapath profile of a unit multiset, every node issued at level
   0: what a synthetic accelerator with those units brings to merging. *)
let profile_of_units units =
  Cayman_hls.Datapath.of_nodes
    (List.concat_map
       (fun (n_kind, count) ->
         List.init count (fun _ -> { Cayman_hls.Datapath.n_kind; n_level = 0 }))
       units)

(* The 28 Table II programs and the generated programs of fleet seeds
   1000-1003, each analysed once and shared by the suites that sweep
   every wPST region. *)
let sweep_corpus =
  lazy
    (List.map
       (fun (b : Cayman_suites.Suite.benchmark) ->
         b.Cayman_suites.Suite.name,
         Core.Cayman.analyze (Cayman_suites.Suite.compile b))
       Cayman_suites.Suite.all
    @ List.concat_map
        (fun seed ->
          List.init 32 (fun index ->
              ( Printf.sprintf "genprog-%d-%d" seed index,
                Core.Cayman.analyze_source
                  (Fleet.Genprog.minic_source ~seed ~index) )))
        [ 1000; 1001; 1002; 1003 ])

(* Every interface mode of the accelerator model. *)
let all_modes =
  [ Cayman_hls.Kernel.Heuristic; Cayman_hls.Kernel.Coupled_only;
    Cayman_hls.Kernel.Scan_only; Cayman_hls.Kernel.Scratchpad_preferred;
    Cayman_hls.Kernel.Decoupled_preferred ]
