(* Per-domain bounded rings with one global id sequence: the recording
   half shared by [Trace] and [Log].

   Each domain appends to its own fixed-capacity ring reached through
   [Domain.DLS]; the only lock is taken once per domain, when its ring
   is first created and added to the registry. Ids come from one global
   monotone counter ([Atomic.fetch_and_add], lock-free), so a read can
   merge every ring into one canonical id-sorted sequence no matter
   which domain recorded what. A full ring overwrites its oldest entry
   and counts the loss. *)

type 'a local = {
  dom : int;
  slots : 'a option array;
  mutable n_written : int;  (* total ever pushed; slot = n mod capacity *)
  mutable open_ids : int list;
}

type 'a t = {
  capacity : int;
  key : 'a local Domain.DLS.key;
  registry : 'a local list ref;
  registry_mutex : Mutex.t;
  next : int Atomic.t;
  epoch : float Atomic.t;
}

let create ~capacity =
  let registry = ref [] and registry_mutex = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let l =
          { dom = (Domain.self () :> int);
            slots = Array.make capacity None;
            n_written = 0;
            open_ids = [] }
        in
        Mutex.lock registry_mutex;
        registry := l :: !registry;
        Mutex.unlock registry_mutex;
        l)
  in
  { capacity; key; registry; registry_mutex; next = Atomic.make 1;
    epoch = Atomic.make (Unix.gettimeofday ()) }

let local t = Domain.DLS.get t.key
let dom l = l.dom
let next_id t = Atomic.fetch_and_add t.next 1

let push t l x =
  l.slots.(l.n_written mod t.capacity) <- Some x;
  l.n_written <- l.n_written + 1

let open_ids l = l.open_ids
let set_open_ids l ids = l.open_ids <- ids

let epoch t = Atomic.get t.epoch
let rearm t = Atomic.set t.epoch (Unix.gettimeofday ())

let locals t =
  Mutex.lock t.registry_mutex;
  let ls = !(t.registry) in
  Mutex.unlock t.registry_mutex;
  ls

let contents t ~id =
  let all =
    List.concat_map
      (fun l ->
        let acc = ref [] in
        for i = 0 to min l.n_written t.capacity - 1 do
          match l.slots.(i) with
          | Some x -> acc := x :: !acc
          | None -> ()
        done;
        !acc)
      (locals t)
  in
  List.sort (fun a b -> compare (id a) (id b)) all

let dropped t =
  List.fold_left
    (fun acc l -> acc + max 0 (l.n_written - t.capacity))
    0 (locals t)

let reset t =
  List.iter
    (fun l ->
      Array.fill l.slots 0 t.capacity None;
      l.n_written <- 0;
      l.open_ids <- [])
    (locals t);
  Atomic.set t.next 1;
  rearm t
