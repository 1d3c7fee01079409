module Ir = Cayman_ir

exception Fault of string

type cell =
  | Ints of int array
  | Floats of float array

type t = (string, cell) Hashtbl.t

let create (p : Ir.Program.t) : t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (g : Ir.Program.global) ->
      let n = Ir.Program.global_size g in
      let cell =
        match g.Ir.Program.elem with
        | Ir.Types.F32 -> Floats (Array.make n 0.0)
        | Ir.Types.I32 | Ir.Types.Bool -> Ints (Array.make n 0)
      in
      Hashtbl.replace tbl g.Ir.Program.gname cell)
    p.Ir.Program.globals;
  tbl

let cell_exn t base =
  match Hashtbl.find_opt t base with
  | Some c -> c
  | None -> raise (Fault ("unknown array " ^ base))

let bounds base idx n =
  if idx < 0 || idx >= n then
    raise
      (Fault (Printf.sprintf "index %d out of bounds for %s[%d]" idx base n))

let find_cell t base = Hashtbl.find_opt t base

let load_cell cell ~base ~index =
  match cell with
  | Ints a ->
    bounds base index (Array.length a);
    Value.Vint a.(index)
  | Floats a ->
    bounds base index (Array.length a);
    Value.Vfloat a.(index)

let store_cell cell ~base ~index v =
  match cell, v with
  | Ints a, Value.Vint n ->
    bounds base index (Array.length a);
    a.(index) <- n
  | Floats a, Value.Vfloat x ->
    bounds base index (Array.length a);
    a.(index) <- x
  | Ints _, (Value.Vfloat _ | Value.Vbool _) ->
    raise (Fault ("type mismatch storing to int array " ^ base))
  | Floats _, (Value.Vint _ | Value.Vbool _) ->
    raise (Fault ("type mismatch storing to float array " ^ base))

let load t ~base ~index = load_cell (cell_exn t base) ~base ~index

let store t ~base ~index v = store_cell (cell_exn t base) ~base ~index v

let int_cells t base =
  match Hashtbl.find_opt t base with
  | Some (Ints a) -> Some a
  | Some (Floats _) | None -> None

let float_cells t base =
  match Hashtbl.find_opt t base with
  | Some (Floats a) -> Some a
  | Some (Ints _) | None -> None

let size t base =
  match cell_exn t base with
  | Ints a -> Array.length a
  | Floats a -> Array.length a

let copy_cell = function
  | Ints a -> Ints (Array.copy a)
  | Floats a -> Floats (Array.copy a)

(* In place when [dst] already holds an array of the same kind and
   length, so a refilled shadow keeps its storage. *)
let blit ~src ~dst base =
  match Hashtbl.find_opt src base with
  | None -> raise (Fault ("unknown array " ^ base))
  | Some cell ->
    (match cell, Hashtbl.find_opt dst base with
     | Ints s, Some (Ints d) when Array.length s = Array.length d ->
       Array.blit s 0 d 0 (Array.length s)
     | Floats s, Some (Floats d) when Array.length s = Array.length d ->
       Array.blit s 0 d 0 (Array.length s)
     | (Ints _ | Floats _), _ -> Hashtbl.replace dst base (copy_cell cell))

type shadow = {
  sh_bases : string list;
  mutable sh_last : (t * t) option;  (* source, view *)
}

let shadow bases = { sh_bases = bases; sh_last = None }

let view sh (src : t) : t =
  match sh.sh_last with
  | Some (last, v) when last == src ->
    List.iter
      (fun base -> if Hashtbl.mem src base then blit ~src ~dst:v base)
      sh.sh_bases;
    v
  | Some _ | None ->
    let v = Hashtbl.copy src in
    List.iter
      (fun base ->
        match Hashtbl.find_opt src base with
        | Some cell -> Hashtbl.replace v base (copy_cell cell)
        | None -> ())
      sh.sh_bases;
    sh.sh_last <- Some (src, v);
    v

(* Co-simulation compares every array of a kernel's write set at every
   invocation exit, so these are plain loops: [Array.for_all2] would
   make a closure call per element, and box both floats of it. *)
let ints_equal (x : int array) (y : int array) =
  let n = Array.length x in
  n = Array.length y
  &&
  let i = ref 0 in
  while !i < n && Array.unsafe_get x !i = Array.unsafe_get y !i do
    incr i
  done;
  !i = n

(* [Float.equal] without its call: equal values, or two NaNs. *)
let floats_equal (x : float array) (y : float array) =
  let n = Array.length x in
  n = Array.length y
  &&
  let i = ref 0 in
  while
    !i < n
    &&
    let a = Array.unsafe_get x !i and b = Array.unsafe_get y !i in
    a = b || (a <> a && b <> b)
  do
    incr i
  done;
  !i = n

let cells_equal a b =
  match a, b with
  | Ints x, Ints y -> ints_equal x y
  | Floats x, Floats y -> floats_equal x y
  | (Ints _ | Floats _), _ -> false

(* First differing element per mismatching array, for diagnostics. *)
let diff ?bases (a : t) (b : t) =
  let bases =
    (match bases with
     | None -> Hashtbl.fold (fun base _ acc -> base :: acc) a []
     | Some bases -> List.filter (Hashtbl.mem a) bases)
    |> List.sort_uniq String.compare
  in
  List.filter_map
    (fun base ->
      match Hashtbl.find_opt a base, Hashtbl.find_opt b base with
      | Some ca, Some cb when cells_equal ca cb -> None
      | Some ca, Some cb ->
        let detail =
          match ca, cb with
          | Ints x, Ints y when Array.length x = Array.length y ->
            let i = ref 0 in
            while !i < Array.length x && x.(!i) = y.(!i) do incr i done;
            Printf.sprintf "%s[%d]: %d vs %d" base !i x.(!i) y.(!i)
          | Floats x, Floats y when Array.length x = Array.length y ->
            let i = ref 0 in
            while !i < Array.length x && Float.equal x.(!i) y.(!i) do
              incr i
            done;
            Printf.sprintf "%s[%d]: %.17g vs %.17g" base !i x.(!i) y.(!i)
          | _ -> Printf.sprintf "%s: element type or size mismatch" base
        in
        Some (base, detail)
      | Some _, None -> Some (base, base ^ ": missing in second memory")
      | None, _ -> None)
    bases

(* A store log: one int per entry, the array's number above bit 32 and
   the index below, in chunks small enough for the minor heap. A
   growing log then never allocates in the major heap itself: a whole-
   array buffer doubled in place did, and each such allocation paced
   the major collector as if the run had kept it. Arrays are numbered by
   the log on first sight. *)
module Log = struct
  let chunk = 256

  type t = {
    ids : (string, int) Hashtbl.t;
    mutable names : string array;  (* by number *)
    mutable chunks : int array array;  (* the used ones, then spares *)
    mutable cur : int array;  (* [chunks.(full)] *)
    mutable pos : int;  (* entries in [cur] *)
    mutable full : int;  (* filled chunks before [cur] *)
  }

  let create () =
    let cur = Array.make chunk 0 in
    { ids = Hashtbl.create 8;
      names = [||];
      chunks = [| cur |];
      cur;
      pos = 0;
      full = 0 }

  let id t base =
    match Hashtbl.find_opt t.ids base with
    | Some i -> i
    | None ->
      let i = Hashtbl.length t.ids in
      Hashtbl.replace t.ids base i;
      t.names <- Array.append t.names [| base |];
      i

  (* [cur] is full: move to the next chunk, kept from before a [clear]
     or fresh. *)
  let next t =
    t.full <- t.full + 1;
    if t.full = Array.length t.chunks then begin
      let chunks = Array.make (2 * t.full) [||] in
      Array.blit t.chunks 0 chunks 0 t.full;
      t.chunks <- chunks
    end;
    if Array.length t.chunks.(t.full) = 0 then
      t.chunks.(t.full) <- Array.make chunk 0;
    t.cur <- t.chunks.(t.full);
    t.pos <- 0

  let[@inline] add t id index =
    if t.pos = chunk then next t;
    Array.unsafe_set t.cur t.pos ((id lsl 32) lor index);
    t.pos <- t.pos + 1

  let length t = (t.full * chunk) + t.pos

  let clear t =
    t.full <- 0;
    t.cur <- t.chunks.(0);
    t.pos <- 0

  let[@inline] entry t k =
    Array.unsafe_get (Array.unsafe_get t.chunks (k / chunk)) (k mod chunk)

  let get t k =
    if k < 0 || k >= length t then invalid_arg "Memory.Log.get";
    let e = entry t k in
    t.names.(e lsr 32), e land 0xFFFF_FFFF
end

(* Whether element [i] differs, as [cells_equal] compares. *)
let element_differs ca cb i =
  match ca, cb with
  | Ints x, Ints y -> Array.unsafe_get x i <> Array.unsafe_get y i
  | Floats x, Floats y ->
    let p = Array.unsafe_get x i and q = Array.unsafe_get y i in
    not (p = q || (p <> p && q <> q))
  | (Ints _ | Floats _), _ -> false

(* [diff] over the logged elements only. For an array of the same kind
   and length in both memories, the first differing element is the
   least logged index whose elements differ: every other element is
   equal by the caller's promise. Any other pair of arrays is reported
   as [diff] reports it, without reading a log. The common verdict, no
   difference, is reached in one pass that looks each array up once per
   run of entries on it and allocates nothing but its result. *)
let diff_logged ~bases (a : t) (b : t) (logs : (Log.t * int) list) =
  (* arrays of the same kind and length in both memories: [first] holds
     the least differing logged index of each, [max_int] for none *)
  let comparable base =
    match Hashtbl.find_opt a base, Hashtbl.find_opt b base with
    | Some (Ints x), Some (Ints y) -> Array.length x = Array.length y
    | Some (Floats x), Some (Floats y) -> Array.length x = Array.length y
    | _ -> false
  in
  let others = List.exists (fun base -> Hashtbl.mem a base && not (comparable base)) bases in
  let first = Hashtbl.create 1 in
  List.iter
    (fun ((log : Log.t), from) ->
      (* the log's arrays by number, resolved on first sight *)
      let by_id = Array.make (Array.length log.Log.names) `Unseen in
      for k = max 0 from to Log.length log - 1 do
        let e = Log.entry log k in
        let id = e lsr 32 and i = e land 0xFFFF_FFFF in
        let cells =
          match Array.unsafe_get by_id id with
          | `Unseen ->
            let base = log.Log.names.(id) in
            let r =
              if List.mem base bases && comparable base then
                `Cells (base, Hashtbl.find a base, Hashtbl.find b base)
              else `Skip
            in
            by_id.(id) <- r;
            r
          | r -> r
        in
        match cells with
        | `Cells (base, ca, cb) when element_differs ca cb i ->
          (match Hashtbl.find_opt first base with
           | Some least -> if i < !least then least := i
           | None -> Hashtbl.replace first base (ref i))
        | `Cells _ | `Skip | `Unseen -> ()
      done)
    logs;
  if Hashtbl.length first = 0 && not others then []
  else
    List.filter_map
      (fun base ->
        match Hashtbl.find_opt first base with
        | Some least ->
          let i = !least in
          Some
            ( base,
              match Hashtbl.find a base, Hashtbl.find b base with
              | Ints x, Ints y ->
                Printf.sprintf "%s[%d]: %d vs %d" base i x.(i) y.(i)
              | Floats x, Floats y ->
                Printf.sprintf "%s[%d]: %.17g vs %.17g" base i x.(i) y.(i)
              | (Ints _ | Floats _), _ -> assert false )
        | None ->
          if comparable base then None
          else (
            match diff ~bases:[ base ] a b with
            | [] -> None
            | d :: _ -> Some d))
      (List.sort_uniq String.compare (List.filter (Hashtbl.mem a) bases))

let to_float_array t base =
  match cell_exn t base with
  | Floats a -> Array.copy a
  | Ints a -> Array.map float_of_int a

let to_int_array t base =
  match cell_exn t base with
  | Ints a -> Array.copy a
  | Floats a -> Array.map int_of_float a
