module Ir = Cayman_ir
module An = Cayman_analysis
module Hls = Cayman_hls
module Value = Cayman_sim.Value
module Memory = Cayman_sim.Memory
module Interp = Cayman_sim.Interp

(* Differential co-simulation: one observed run of the golden IR
   interpreter, with the RTL netlist simulator replayed against it at
   every kernel-region entry.

   Each kernel's netlist is compiled once ({!Sim.compile}). When the
   golden execution reaches a kernel's region entry, we execute it from
   the live registers and memory: the arrays in the kernel's write set
   are private copies refilled from the golden memory, every other array
   is the golden one. When the golden execution next leaves the region
   (first block outside it, or the function's return), the two worlds
   are compared exactly: architectural registers the golden model holds
   at the exit, the write set's arrays, the dynamic exit edge, and the
   return value if the region returned. Kernel regions contain no calls
   (unsynthesizable otherwise), so every golden observation between
   entry and exit belongs to the same invocation.

   Simulated cycles accumulate across invocations and are compared to
   {!Hls.Kernel.estimate}'s [accel_cycles] under a documented tolerance:
   the estimator works from profiled *average* trip counts (rounded) and
   ceil-divided unroll groups, while the simulator executes actual
   per-entry trips, so the two agree exactly on affine loops with
   uniform trip counts and drift slightly when trip counts vary between
   entries. Functional comparison has no tolerance: values must be
   equal, bit-for-bit. *)

type tolerance = {
  tol_rel : float;
  tol_abs : int;
}

(* Estimate-vs-simulation cycle agreement: |est - sim| may not exceed
   tol_abs + tol_rel * sim. The default admits the rounding inherent in
   the estimator's averaged-trip model (see DESIGN.md §7); functional
   equivalence is always exact. *)
(* On kernels whose loops have uniform trip counts the simulator
   reproduces [Kernel.estimate] exactly (the Table II sweep agrees to
   +0.00%). Divergence appears only where per-invocation trip counts
   vary: the estimator charges the profile-average trip while the
   simulator executes each actual trip, and pipeline group quantisation
   does not commute with averaging. The worst case observed across the
   full suite x {heuristic, coupled-only, scan-only} is fft's butterfly
   loop at +8.4% (geometrically varying trips), so the default relative
   tolerance is 10%; the absolute floor absorbs rounding on very short
   kernels. *)
let default_tolerance = { tol_rel = 0.10; tol_abs = 16 }

type mismatch = {
  m_invocation : int;
  m_kind : string;  (* "register" | "memory" | "control" | "sim-error" *)
  m_detail : string;
}

type report = {
  r_kernel : string;
  r_config : string;
  r_invocations : int;  (* invocations co-simulated *)
  r_capped : bool;  (* hit [max_invocations]: cycle check skipped *)
  r_sim_cycles : int;
  r_est_cycles : float;
  r_cycles_checked : bool;
  r_cycles_ok : bool;
  r_iterations : int;
  r_mismatches : mismatch list;  (* first [mismatch_cap] in order *)
  r_n_mismatches : int;
  r_fault_fired : bool;  (* injected register fault activated at least once *)
}

let mismatch_cap = 8

let functional_ok r = r.r_n_mismatches = 0

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s [%s]: %d invocation%s, %s" r.r_kernel r.r_config
       r.r_invocations
       (if r.r_invocations = 1 then "" else "s")
       (if functional_ok r then "functionally equivalent"
        else Printf.sprintf "%d MISMATCH%s" r.r_n_mismatches
               (if r.r_n_mismatches = 1 then "" else "ES")));
  if r.r_cycles_checked then
    Buffer.add_string b
      (Printf.sprintf "; cycles sim=%d est=%.0f (%+.2f%%) %s" r.r_sim_cycles
         r.r_est_cycles
         (if r.r_sim_cycles = 0 then 0.0
          else
            (r.r_est_cycles -. float_of_int r.r_sim_cycles)
            *. 100.0
            /. float_of_int r.r_sim_cycles)
         (if r.r_cycles_ok then "within tolerance" else "OUT OF TOLERANCE"))
  else if r.r_capped then
    Buffer.add_string b "; cycle check skipped (invocation cap)"
  else Buffer.add_string b "; never invoked";
  List.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf "\n  inv %d %s: %s" m.m_invocation m.m_kind m.m_detail))
    r.r_mismatches;
  if r.r_n_mismatches > List.length r.r_mismatches then
    Buffer.add_string b
      (Printf.sprintf "\n  ... and %d more"
         (r.r_n_mismatches - List.length r.r_mismatches));
  Buffer.contents b

type spec = {
  k_ctx : Hls.Ctx.t;
  k_region : An.Region.t;
  k_config : Hls.Kernel.config;
}

(* A co-simulation harness invariant was violated: a bug in this
   module, not a netlist/golden-model mismatch (those are reported). *)
exception Internal_error of string

(* Arrays the golden execution of a region can store to. The region has
   no calls, so between its entry and exit the golden run executes
   these blocks only. *)
let region_stores (ctx : Hls.Ctx.t) (region : An.Region.t) =
  List.concat_map
    (fun (b : Ir.Block.t) ->
      if An.Region.String_set.mem b.Ir.Block.label region.An.Region.blocks
      then
        List.filter_map
          (fun (i : Ir.Instr.t) ->
            match i with
            | Ir.Instr.Store (m, _) -> Some m.Ir.Instr.base
            | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
            | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
            | Ir.Instr.Call _ ->
              None)
          b.Ir.Block.instrs
      else [])
    ctx.Hls.Ctx.func.Ir.Func.blocks

(* per-kernel live state during the observed run *)
type kstate = {
  ks_spec : spec;
  ks_sim : Sim.compiled;  (* the netlist, with its injected fault if any *)
  ks_writes : string list;  (* sorted: every array an invocation can change *)
  ks_shadow : Memory.shadow;  (* private copies of [ks_writes] *)
  ks_func : string;
  ks_name : string;
  mutable ks_pending : (Sim.outcome, string) result option;
  mutable ks_inv : int;  (* golden invocations seen *)
  mutable ks_sim_inv : int;  (* invocations actually co-simulated *)
  mutable ks_cycles : int;
  mutable ks_iters : int;
  mutable ks_mm : mismatch list;  (* reversed *)
  mutable ks_n_mm : int;
  mutable ks_capped : bool;
  mutable ks_fault_fired : bool;
}

let note ks kind fmt =
  Printf.ksprintf
    (fun detail ->
      ks.ks_n_mm <- ks.ks_n_mm + 1;
      if ks.ks_n_mm <= mismatch_cap then
        ks.ks_mm <-
          { m_invocation = ks.ks_inv; m_kind = kind; m_detail = detail }
          :: ks.ks_mm)
    fmt

let value_str v = Format.asprintf "%a" Value.pp v

let opt_value_str = function
  | Some v -> value_str v
  | None -> "<none>"

let resolve ks (read : string -> Value.t option) (golden_mem : Memory.t) how =
  match ks.ks_pending with
  | None -> ()
  | Some pending ->
    ks.ks_pending <- None;
    (match pending with
     | Error msg -> note ks "sim-error" "%s" msg
     | Ok (o : Sim.outcome) ->
       ks.ks_cycles <- ks.ks_cycles + o.Sim.o_cycles;
       ks.ks_iters <- ks.ks_iters + o.Sim.o_iterations;
       (* control: the dynamic exit edge / return value *)
       (match how, o.Sim.o_exit with
        | `Exit l, Some l' when String.equal l l' -> ()
        | `Exit l, e ->
          note ks "control" "golden exits to %s, netlist to %s" l
            (Option.value ~default:"<return>" e)
        | `Return _, Some e ->
          note ks "control" "golden returns, netlist exits to %s" e
        | `Return gv, None ->
          let sv = o.Sim.o_return in
          let eq =
            match gv, sv with
            | None, None -> true
            | Some a, Some b -> Value.equal a b
            | Some _, None | None, Some _ -> false
          in
          if not eq then
            note ks "control" "return value: golden %s, netlist %s"
              (opt_value_str gv) (opt_value_str sv));
       (* registers: every architectural register the golden model holds
          at the exit must match; registers the golden execution never
          defined (dead paths) are unobservable and skipped *)
       List.iter
         (fun (rid, sv) ->
           match read rid with
           | None -> ()
           | Some gv ->
             if not (Value.equal gv sv) then
               note ks "register" "%%%s: golden %s, netlist %s" rid
                 (value_str gv) (value_str sv))
         o.Sim.o_regs;
       (* memory: exact, array by array; every other array is shared
          by the two worlds *)
       List.iter
         (fun (base, detail) -> note ks "memory" "%s: %s" base detail)
         (Memory.diff ~bases:ks.ks_writes golden_mem o.Sim.o_mem))

(* The netlist runs to completion here, before the golden run moves
   on, so it may read every array it does not write straight from the
   golden memory. *)
let enter ks max_invocations (read : string -> Value.t option)
    (mem : Memory.t) =
  ks.ks_inv <- ks.ks_inv + 1;
  match max_invocations with
  | Some cap when ks.ks_sim_inv >= cap -> ks.ks_capped <- true
  | Some _ | None ->
    ks.ks_sim_inv <- ks.ks_sim_inv + 1;
    ks.ks_pending <-
      Some
        (try
           let o =
             Sim.exec ks.ks_sim ~env:read ~mem:(Memory.view ks.ks_shadow mem)
           in
           if o.Sim.o_fault_fired then ks.ks_fault_fired <- true;
           Ok o
         with
        | Sim.Rtl_error m -> Error ("Rtl_error: " ^ m)
        | Interp.Runtime_error m -> Error ("Runtime_error: " ^ m)
        | Memory.Fault m -> Error ("memory fault: " ^ m)
        | Value.Type_error m -> Error ("type error: " ^ m))

let m_runs = Obs.Metrics.counter "rtl.cosim_runs"
let m_kernels = Obs.Metrics.counter "rtl.cosim_kernels"
let m_invocations = Obs.Metrics.counter "rtl.cosim_invocations"
let m_sim_cycles = Obs.Metrics.counter "rtl.cosim_sim_cycles"
let m_mismatches = Obs.Metrics.counter "rtl.cosim_mismatches"

let fp_cosim = Obs.Faultpoint.register "cosim"

let run_many_uncached ?fuel ?(tolerance = default_tolerance) ?max_invocations
    ?max_cycles ?faults (program : Ir.Program.t) (specs : spec list) =
  Obs.Trace.span ~cat:"rtl" "rtl.cosim" @@ fun () ->
  Obs.Faultpoint.hit fp_cosim;
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_kernels (List.length specs);
  (* [faults] pairs up with [specs] positionally: a structure override
     (a pre-mutated netlist replacing the freshly built one) and/or a
     register fault for the netlist simulator. *)
  let fault_for =
    match faults with
    | None -> fun _ -> None, None
    | Some fs ->
      let n_specs = List.length specs and n_faults = List.length fs in
      if n_faults <> n_specs then
        invalid_arg
          (Printf.sprintf "Cosim: %d fault slots for %d specs" n_faults
             n_specs);
      let arr = Array.of_list fs in
      fun i -> arr.(i)
  in
  let kstates =
    List.mapi
      (fun i spec ->
        let func = spec.k_ctx.Hls.Ctx.func.Ir.Func.name in
        let structure_override, sim_fault = fault_for i in
        let nl =
          match structure_override with
          | Some s -> s
          | None ->
            (match
               Hls.Netlist.of_kernel spec.k_ctx spec.k_region spec.k_config
             with
             | Some { Hls.Netlist.structure = Some s; _ } -> s
             | Some { Hls.Netlist.structure = None; _ } | None ->
               invalid_arg
                 (Printf.sprintf "Cosim: kernel %s/%s is not synthesizable"
                    func
                    (An.Region.name spec.k_region)))
        in
        let sim = Sim.compile ?max_cycles ?fault:sim_fault spec.k_ctx nl in
        (* An invocation can change only what the netlist writes and
           what the golden region writes; every other array is equal in
           both worlds at the exit, so it is neither copied nor
           compared. *)
        let writes =
          List.sort_uniq String.compare
            (Sim.writes sim @ region_stores spec.k_ctx spec.k_region)
        in
        List.iter
          (fun base ->
            if not (List.mem base writes) then
              raise
                (Internal_error
                   (Printf.sprintf
                      "rtl.cosim: %s stores to %s outside its write set" func
                      base)))
          (Sim.writes sim);
        { ks_spec = spec;
          ks_sim = sim;
          ks_writes = writes;
          ks_shadow = Memory.shadow writes;
          ks_func = func;
          ks_name = func ^ "/" ^ An.Region.name spec.k_region;
          ks_pending = None;
          ks_inv = 0;
          ks_sim_inv = 0;
          ks_cycles = 0;
          ks_iters = 0;
          ks_mm = [];
          ks_n_mm = 0;
          ks_capped = false;
          ks_fault_fired = false })
      specs
  in
  let observer =
    { Interp.obs_block =
        (fun ~func ~label ~read ~mem ->
          List.iter
            (fun ks ->
              if String.equal ks.ks_func func then begin
                if
                  ks.ks_pending <> None
                  && not
                       (An.Region.String_set.mem label
                          ks.ks_spec.k_region.An.Region.blocks)
                then resolve ks read mem (`Exit label);
                if
                  String.equal label ks.ks_spec.k_region.An.Region.entry
                  && ks.ks_pending = None
                then enter ks max_invocations read mem
              end)
            kstates);
      Interp.obs_return =
        (fun ~func ~read ~value ~mem ->
          List.iter
            (fun ks ->
              if String.equal ks.ks_func func && ks.ks_pending <> None then
                resolve ks read mem (`Return value))
            kstates) }
  in
  let fuel = Engine.Config.fuel ?fuel () in
  let (_ : Interp.result) = Interp.run ~fuel ~observer program in
  List.map
    (fun ks ->
      (* a pending invocation can only survive the run if the golden
         interpreter aborted inside the region; Interp.run raising would
         have propagated, so this is purely defensive *)
      if ks.ks_pending <> None then begin
        ks.ks_pending <- None;
        note ks "control" "invocation never left the region"
      end;
      let est =
        match
          Hls.Kernel.estimate ks.ks_spec.k_ctx ks.ks_spec.k_region
            ks.ks_spec.k_config
        with
        | Some p -> p.Hls.Kernel.accel_cycles
        | None -> 0.0
      in
      Obs.Metrics.add m_invocations ks.ks_sim_inv;
      Obs.Metrics.add m_sim_cycles ks.ks_cycles;
      Obs.Metrics.add m_mismatches ks.ks_n_mm;
      let checked = (not ks.ks_capped) && ks.ks_sim_inv > 0 in
      let ok =
        Float.abs (est -. float_of_int ks.ks_cycles)
        <= float_of_int tolerance.tol_abs
           +. (tolerance.tol_rel *. float_of_int ks.ks_cycles)
      in
      { r_kernel = ks.ks_name;
        r_config = Hls.Kernel.config_to_string ks.ks_spec.k_config;
        r_invocations = ks.ks_sim_inv;
        r_capped = ks.ks_capped;
        r_sim_cycles = ks.ks_cycles;
        r_est_cycles = est;
        r_cycles_checked = checked;
        r_cycles_ok = (not checked) || ok;
        r_iterations = ks.ks_iters;
        r_mismatches = List.rev ks.ks_mm;
        r_n_mismatches = ks.ks_n_mm;
        r_fault_fired = ks.ks_fault_fired })
    kstates

(* One spec's verdict is independent of which other specs observe the
   same golden run (observers are read-only), so reports cache
   per-spec. The key enumerates everything a verdict depends on: the
   whole program (the golden run), the interpreter fuel, the tolerance
   and caps, and the exact netlist key (code + profile/analysis facts +
   config + tech + version salt). Cached verdicts are only consulted on
   fault-free runs: an injection campaign must re-execute the build and
   simulate paths it is trying to break. *)
let m_cached = Obs.Metrics.counter "rtl.cosim_cached_reports"

let spec_key ~program_digest ~fuel ~tolerance ~max_invocations ~max_cycles
    spec =
  let b = Memo.Hash.builder ~ns:"cosim" in
  Memo.Hash.str b program_digest;
  Memo.Hash.int b fuel;
  Memo.Hash.float b tolerance.tol_rel;
  Memo.Hash.int b tolerance.tol_abs;
  Memo.Hash.int_opt b max_invocations;
  Memo.Hash.int_opt b max_cycles;
  Memo.Hash.str b
    (Hls.Fingerprint.netlist_key spec.k_ctx spec.k_region
       ~beta:Hls.Kernel.default_beta ~config:spec.k_config);
  Memo.Hash.digest b

let run_many ?fuel ?(tolerance = default_tolerance) ?max_invocations
    ?max_cycles ?faults (program : Ir.Program.t) (specs : spec list) =
  match faults with
  | Some _ ->
    run_many_uncached ?fuel ~tolerance ?max_invocations ?max_cycles ?faults
      program specs
  | None ->
    if not (Memo.Store.active ()) then
      run_many_uncached ?fuel ~tolerance ?max_invocations ?max_cycles program
        specs
    else begin
      let fuel = Engine.Config.fuel ?fuel () in
      let program_digest =
        Digest.to_hex (Digest.string (Ir.Program.to_string program))
      in
      let keys =
        List.map
          (spec_key ~program_digest ~fuel ~tolerance ~max_invocations
             ~max_cycles)
          specs
      in
      let cached =
        List.map (fun key -> (Memo.Store.find ~ns:"cosim" ~key : report option)) keys
      in
      let missing =
        List.filter_map
          (fun (spec, hit) -> if hit = None then Some spec else None)
          (List.combine specs cached)
      in
      (* Only the uncached specs replay against the golden run; with a
         fully warm cache the interpreter pass is skipped entirely. *)
      let fresh =
        match missing with
        | [] -> []
        | _ ->
          run_many_uncached ~fuel ~tolerance ?max_invocations ?max_cycles
            program missing
      in
      let fresh = ref fresh in
      List.map2
        (fun key hit ->
          match hit with
          | Some r ->
            Obs.Metrics.incr m_cached;
            r
          | None ->
            (match !fresh with
             | r :: rest ->
               fresh := rest;
               Memo.Store.save ~ns:"cosim" ~key r;
               r
             | [] ->
               raise
                 (Internal_error
                    "rtl.cosim: fewer fresh reports than uncached specs")))
        keys cached
    end

let run ?fuel ?tolerance ?max_invocations program spec =
  match run_many ?fuel ?tolerance ?max_invocations program [ spec ] with
  | [ r ] -> r
  | rs ->
    raise
      (Internal_error
         (Printf.sprintf
            "rtl.cosim: run_many returned %d reports for a singleton spec"
            (List.length rs)))
