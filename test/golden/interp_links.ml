(* Prints the dispatch cost of profiling each of the 28 Table II
   programs, if-converted and chain-merged as [Core.Cayman.analyze]
   profiles them, on the staged engine:

     <program> instrs=<n> links=<n> entries=<n>
     total instrs=<n> links=<n> links/instr=<r> entries=<n>

   [instrs] is the run's executed IR instructions, [links] the links of
   its block chains it ran (the [sim.profile_links] counter), each one
   indirect call, and [entries] the blocks its block loop entered (the
   [sim.profile_entries] counter; a loop header threaded into the jump
   that enters it is not one). All three are facts of the programs and
   of how the staged engine compiles them, so they repeat on any host; a
   change in how instructions are fused into links shows up here as a
   diff. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim

let m_links = Obs.Metrics.counter "sim.profile_links"
let m_entries = Obs.Metrics.counter "sim.profile_entries"

let () =
  let instrs = ref 0 and links = ref 0 and entries = ref 0 in
  List.iter
    (fun (b : Cayman_suites.Suite.benchmark) ->
      let p = Cayman_suites.Suite.compile b in
      let p =
        Ir.Validate.check_exn
          (An.Simplify.merge_chains (An.Ifconv.run (p :> Ir.Cfg.program)))
      in
      let links0 = Obs.Metrics.value m_links in
      let entries0 = Obs.Metrics.value m_entries in
      let r =
        Sim.Interp.run ~engine:Sim.Interp.Staged (p :> Ir.Cfg.program)
      in
      let n = Sim.Profile.total_instrs r.Sim.Interp.profile in
      let l = Obs.Metrics.value m_links - links0 in
      let e = Obs.Metrics.value m_entries - entries0 in
      instrs := !instrs + n;
      links := !links + l;
      entries := !entries + e;
      Printf.printf "%s instrs=%d links=%d entries=%d\n"
        b.Cayman_suites.Suite.name n l e)
    Cayman_suites.Suite.all;
  Printf.printf "total instrs=%d links=%d links/instr=%.4f entries=%d\n"
    !instrs !links
    (float_of_int !links /. float_of_int !instrs)
    !entries
