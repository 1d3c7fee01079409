(* Host-speed reference loop.

   This module links against nothing but the standard library and Unix,
   so the reference can never run Cayman code: a change to the program
   cannot move it, and only the host's speed can.

   The loop's character matters. On the 2-vCPU host this benchmark was
   built on, the drift comes from memory-system contention, not the
   clock: a non-allocating integer loop varied by 2% while the
   program's ops varied by 10%. Allocation tracks it. Of the loops
   tried, the two that tracked the ops best are used together:
   short-lived boxed floats in small lists (minor heap only), and a
   persistent map rebuilt by insertion (allocation plus pointer
   chasing). A hashtable that grows into the major heap tracked it
   worse than no normalisation at all. *)

module IM = Map.Make (Int)

(* Median reference time on the host the nominal figures were frozen
   on (2-vCPU x86-64 VM, OCaml 5.1.1). Every reported time is scaled by
   [nominal_s /. measured], so reported times read as if they ran on
   that host. *)
let nominal_s = 0.0130

let sink = ref 0.0

let work () =
  let s = ref 0.0 in
  for i = 0 to 249_999 do
    let l = [ float_of_int i; float_of_int (i + 1); float_of_int (i + 2) ] in
    s := !s +. List.fold_left ( +. ) 0.0 l
  done;
  let m = ref IM.empty in
  for i = 0 to 29_999 do
    m := IM.add (i * 7919 land 2047) (float_of_int i) !m
  done;
  IM.fold (fun _ v a -> a +. v) !m !s

(* One timed pass on a settled heap: the untimed [Gc.full_major] first
   collects whatever the program left behind, so none of the program's
   garbage is collected on the reference's time. Returns seconds. *)
let run () =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  sink := work ();
  Unix.gettimeofday () -. t0
