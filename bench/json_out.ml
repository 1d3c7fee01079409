(* JSON sink for the bench harness's --json flag.

   The value type and emitter live in [Obs.Json] (shared with the
   tracing/metrics subsystem); this module re-exports them and keeps the
   bench-side sink: [set_base "out"] arms it; each experiment that
   supports machine-readable output then calls [write "table2" json] to
   produce out_table2.json next to the textual stdout (which stays
   byte-identical whether or not the flag is given). *)

include Obs.Json

let base : string option ref = ref None

let set_base s = base := Some s

let enabled () = !base <> None

(* Writes <base>_<experiment>.json when --json was given; a no-op
   otherwise. The confirmation line goes to stderr so stdout stays
   byte-identical with and without the flag. *)
let write experiment (v : t) =
  match !base with
  | None -> ()
  | Some base ->
    let path = Printf.sprintf "%s_%s.json" base experiment in
    Obs.Json.write_file path v;
    Printf.eprintf "wrote %s\n%!" path

(* Writes <base>_<suffix> verbatim (no JSON encoding) — for non-JSON
   artifacts riding along with an experiment's JSON, like the final
   scraped telemetry exposition of serve-load. *)
let write_text suffix (text : string) =
  match !base with
  | None -> ()
  | Some base ->
    let path = Printf.sprintf "%s_%s" base suffix in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.eprintf "wrote %s\n%!" path
