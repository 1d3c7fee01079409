(** The staged (closure-compiled) interpreter engine: each block is
    pre-compiled into one chain of closures, one per instruction, that
    read and write typed, integer-indexed register banks directly and
    tail-call the next; the chain ends in the block's terminator, which
    returns the next block. An integer compare feeding the block's
    branch, or an integer add before its jump, is fused into it, and an
    integer mul feeding the next add (with the load that add indexes)
    is one link. A jump into a loop header that holds only such a fused
    compare, with no watch point and no kept def byte, runs the header
    in the same link (charging its fuel only where the fuel covers it),
    so the block loop is not re-entered for it; the
    [sim.profile_links] and [sim.profile_entries] counters report the
    links and block-loop entries a completed run took. No
    per-instruction match dispatch and no
    boxed float; allocation is per call and per run, not per
    instruction. Semantics are differentially tested against
    {!Interp_reference} (test/test_interp_diff.ml); programs that fail
    the static cleanliness analysis fall back to the reference engine
    wholesale. Use {!Interp.run} (which dispatches on the selected
    engine) rather than calling this directly. *)

val run :
  ?fuel:int ->
  ?cache_config:Cache.config ->
  ?observer:Interp_common.observer ->
  Cayman_ir.Cfg.program ->
  Interp_common.result

(** [analyze p] is [Some _] when [p] passes the static cleanliness
    check and will execute on the staged fast path, [None] when [run]
    would fall back to the reference engine. Exposed for tests. *)

type pmeta

val analyze : Cayman_ir.Cfg.program -> pmeta option
