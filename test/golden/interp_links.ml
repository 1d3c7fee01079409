(* Prints the dispatch cost of profiling each of the 28 Table II
   programs, if-converted and chain-merged as [Core.Cayman.analyze]
   profiles them, on the staged engine:

     <program> instrs=<n> links=<n>
     total instrs=<n> links=<n> links/instr=<r>

   [instrs] is the run's executed IR instructions and [links] the links
   of its block chains it ran (the [sim.profile_links] counter), each one
   indirect call. Both are facts of the programs and of how the staged
   engine compiles them, so they repeat on any host; a change in how
   instructions are fused into links shows up here as a diff. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim

let m_links = Obs.Metrics.counter "sim.profile_links"

let () =
  let instrs = ref 0 and links = ref 0 in
  List.iter
    (fun (b : Cayman_suites.Suite.benchmark) ->
      let p = Cayman_suites.Suite.compile b in
      let p =
        Ir.Validate.check_exn
          (An.Simplify.merge_chains (An.Ifconv.run (p :> Ir.Cfg.program)))
      in
      let before = Obs.Metrics.value m_links in
      let r =
        Sim.Interp.run ~engine:Sim.Interp.Staged (p :> Ir.Cfg.program)
      in
      let n = Sim.Profile.total_instrs r.Sim.Interp.profile in
      let l = Obs.Metrics.value m_links - before in
      instrs := !instrs + n;
      links := !links + l;
      Printf.printf "%s instrs=%d links=%d\n" b.Cayman_suites.Suite.name n l)
    Cayman_suites.Suite.all;
  Printf.printf "total instrs=%d links=%d links/instr=%.4f\n" !instrs !links
    (float_of_int !links /. float_of_int !instrs)
