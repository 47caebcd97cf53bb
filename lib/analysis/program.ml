(* Whole-program view for the interprocedural passes (taint, nested
   locks): every implementation under the scan dirs parsed once, with
   its line texts and in-source suppressions, so the per-file rules and
   the whole-program rules share one parse.

   A unit's [modname] is the OCaml module its file defines inside its
   dune library ("lib/wire/frame.ml" -> "Frame").  Cross-module value
   references are resolved on the (module, value) pair: the dune
   libraries here are all wrapped under distinct [Csm_*] names, so the
   capitalized basename is unambiguous in practice — and when two
   libraries did define the same module name, resolving to either is
   still sound for taint (summaries join), while R9 would follow only
   the first such module's lock facts. *)

type unit_ = {
  path : string;  (* repo-relative, '/'-separated *)
  modname : string;  (* "Frame" for lib/wire/frame.ml *)
  structure : (Parsetree.structure, int * int) result;
      (* Error: the (line, column) where it stops parsing *)
  lines : string array;
  suppress : Suppress.t;
}

let modname_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Where a [Parse] exception says the source stops parsing. *)
let error_position = function
  | Syntaxerr.Error err ->
    let p = (Syntaxerr.location_of_error err).Location.loc_start in
    (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
  | _ -> (1, 0)

(* Parse [src] with [parse] (an implementation or interface parser),
   locations naming [path]. *)
let parse parse ~path src =
  let lb = Lexing.from_string src in
  Lexing.set_filename lb path;
  match parse lb with
  | s -> Ok s
  | exception e -> Error (error_position e)

(* An implementation unit. *)
let of_string ~path src =
  {
    path;
    modname = modname_of_path path;
    structure = parse Parse.implementation ~path src;
    lines = Array.of_list (String.split_on_char '\n' src);
    suppress = Suppress.scan src;
  }

(* Strip a [Csm_foo.] library prefix so [Csm_wire.Frame.decode] and
   [Frame.decode] resolve to the same (module, value) pair; a leading
   [Stdlib] goes the same way. *)
let strip_lib = function
  | first :: (_ :: _ as rest)
    when first = "Stdlib"
         || (String.length first > 4 && String.sub first 0 4 = "Csm_") ->
    rest
  | l -> l

(* The (module, value) key of a value path, with library wrappers
   stripped: ["Frame"; "decode"] stays, ["Csm_wire"; "Frame"; "decode"]
   becomes ["Frame"; "decode"], a bare ["f"] keeps no module. *)
let ref_key parts =
  match List.rev (strip_lib parts) with
  | [] -> None
  | [ v ] -> Some (None, v)
  | v :: m :: _ -> Some (Some m, v)
