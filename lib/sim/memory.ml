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

let cells_equal a b =
  match a, b with
  | Ints x, Ints y ->
    Array.length x = Array.length y && Array.for_all2 ( = ) x y
  | Floats x, Floats y ->
    Array.length x = Array.length y && Array.for_all2 Float.equal x y
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

let to_float_array t base =
  match cell_exn t base with
  | Floats a -> Array.copy a
  | Ints a -> Array.map float_of_int a

let to_int_array t base =
  match cell_exn t base with
  | Ints a -> Array.copy a
  | Floats a -> Array.map int_of_float a
