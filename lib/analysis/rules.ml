(* The rule catalogue, implemented as one [Ast_iterator] pass over a
   parsed compilation unit.

   R1 determinism boundary — wall-clock and ambient-randomness
      primitives ([Stdlib.Random], [Sys.time], [Unix.gettimeofday],
      [Unix.time], [Domain.self]) are banned outside the explicitly
      nondeterministic layers (lib/obs, lib/transport, lib/sim/net).
      Everything else must draw randomness from [Csm_rng] and time from
      the simulated clock, or Theorem-1-style exact-replay arguments
      stop holding.

   R2 polymorphic comparison — structural [=]/[compare]/[Hashtbl.hash]
      on field elements or wire frames compares representations, not
      values, and silently breaks when a representation gains
      non-canonical forms.  Flagged when an operand mentions a
      field/frame module qualifier; bare [compare] is additionally
      banned wholesale in lib/field, lib/poly, lib/rs and as a sort
      comparator anywhere.

   R3 mutex discipline — no raw [Mutex.lock]/[Mutex.unlock]: every
      critical section is one [Mutex.protect], which releases on every
      exit.  One raise between a raw lock and its unlock deadlocks
      every other domain.

   R4 shared mutable state — module-level refs/tables/arrays are where
      domain races live; each one must be declared in
      lint/shared_state.allow together with its locking story, and
      every entry there must name such a binding ([Driver.lint_tree]
      reports stale entries).

   R5 decoder totality — wire decoders and validators run on
      Byzantine input; a [raise]/[failwith]/[Option.get]/[List.hd]
      inside a [decode_*] or [valid_*] body turns malformed bytes into
      a crash instead of a counted [None] or [false]. *)

open Parsetree

type ctx = {
  path : string;  (* repo-relative, '/'-separated *)
  registry : (string, unit) Hashtbl.t;  (* R4 allow entries "file:name" *)
  live : (string, unit) Hashtbl.t;
      (* every "file:name" module-level mutable binding R4 saw, registered
         or not: what a registry entry must name to stay live *)
  mutable findings : Finding.t list;
}

let make_ctx ?(registry = Hashtbl.create 1) ?(live = Hashtbl.create 1) ~path
    () =
  { path; registry; live; findings = [] }

let report ctx ~rule ~severity ~loc message =
  let p = loc.Location.loc_start in
  ctx.findings <-
    Finding.make ~rule ~severity ~file:ctx.path ~line:p.Lexing.pos_lnum
      ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
      message
    :: ctx.findings

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Flattened path with a leading "Stdlib" stripped, so [Stdlib.compare]
   and [compare] match the same patterns. *)
let flat lid =
  match Longident.flatten lid with "Stdlib" :: (_ :: _ as rest) -> rest | l -> l

(* ----- R1 ----- *)

let r1_allowed path =
  starts_with "lib/obs/" path
  || starts_with "lib/transport/" path
  || starts_with "lib/sim/net." path

let r1_banned = function
  | "Random" :: _ -> Some "Stdlib.Random (use Csm_rng)"
  | [ "Sys"; "time" ] -> Some "Sys.time"
  | [ "Unix"; "gettimeofday" ] -> Some "Unix.gettimeofday"
  | [ "Unix"; "time" ] -> Some "Unix.time"
  | [ "Domain"; "self" ] -> Some "Domain.self"
  | _ -> None

(* ----- R2 ----- *)

let field_modules = [ "F"; "Fp"; "Gf2m"; "Frame"; "Counted" ]

(* Qualified accessors that return plain ints/strings: comparing their
   results structurally is fine. *)
let r2_excluded_leaf =
  [
    "to_int"; "of_int"; "characteristic"; "order"; "to_string"; "tag_of_kind";
    "header_bytes"; "encoded_size"; "max_payload_bytes"; "kind_name";
    "h_sender"; "h_round"; "h_payload_bytes"; "h_version"; "sender"; "round";
    "version"; "payload"; "dim";
  ]

let path_mentions_field ~construct parts =
  match List.rev parts with
  | leaf :: (_ :: _ as rev_prefix) ->
    List.exists (fun m -> List.mem m field_modules) rev_prefix
    && (construct || not (List.mem leaf r2_excluded_leaf))
  | _ -> false

(* Is the head of [e] (an operand of a structural comparison) a value
   qualified by a field/frame module?  Only the head matters: in
   [F.to_int x = y] the compared value is the int [to_int] returns,
   however field-flavoured the subterms are. *)
let rec mentions_field_value e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } | Pexp_field (_, { txt; _ }) ->
    path_mentions_field ~construct:false (Longident.flatten txt)
  | Pexp_construct ({ txt; _ }, _) ->
    path_mentions_field ~construct:true (Longident.flatten txt)
  | Pexp_apply (f, _) -> mentions_field_value f
  | Pexp_constraint (e, _) -> mentions_field_value e
  | _ -> false

let r2_poly_ops = [ [ "=" ]; [ "<>" ]; [ "compare" ]; [ "Hashtbl"; "hash" ] ]

let r2_sorts =
  [
    [ "List"; "sort" ]; [ "List"; "sort_uniq" ]; [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ]; [ "Array"; "sort" ]; [ "Array"; "stable_sort" ];
  ]

let r2_bare_compare_dir path =
  starts_with "lib/field/" path
  || starts_with "lib/poly/" path
  || starts_with "lib/rs/" path

(* ----- R3 ----- *)

let r3_raw = function [ "Mutex"; ("lock" | "unlock") ] -> true | _ -> false

(* ----- R4 ----- *)

let r4_scope path = starts_with "lib/" path || starts_with "bin/" path

let r4_watched = function
  | [ "ref" ]
  | [ "Hashtbl"; "create" ]
  | [ "Queue"; "create" ]
  | [ "Buffer"; "create" ]
  | [ "Array"; "make" ]
  | [ "Bytes"; "create" ]
  | [ "Csm_rng"; "create" ]
  (* atomics and op-counters are mutable too: lock-free, but their
     write discipline (who publishes, who may reset) still belongs in
     the registry *)
  | [ "Atomic"; "make" ]
  | [ "Counter"; "create" ]
  | [ "Csm_metrics"; "Counter"; "create" ] -> true
  | _ -> false

let rec rhs_head e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> rhs_head e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> Some (flat txt)
  | _ -> None

let rec binding_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> binding_name p
  | _ -> None

(* ----- R5 ----- *)

let r5_scope path name =
  starts_with "lib/" path
  && (starts_with "decode" name || starts_with "valid_" name
     || name = "of_header" || name = "frame_bytes")

let r5_banned = function
  | [ "failwith" ] | [ "invalid_arg" ] | [ "raise" ] | [ "raise_notrace" ]
  | [ "Option"; "get" ] | [ "List"; "hd" ] -> true
  | _ -> false

let r5_sites e =
  let sites = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } when r5_banned (flat txt) ->
            sites := (ex.pexp_loc, String.concat "." (flat txt)) :: !sites
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  List.rev !sites

(* ----- the pass ----- *)

let iterator ctx =
  let expr self e =
    (match e.pexp_desc with
    (* R3: a raw lock or unlock *)
    | Pexp_ident { txt; _ } when r3_raw (flat txt) ->
      report ctx ~rule:"R3" ~severity:Finding.Error ~loc:e.pexp_loc
        (Printf.sprintf
           "raw %s: write the critical section as one Mutex.protect, which \
            releases on every exit; a raise under a raw lock deadlocks \
            other domains"
           (String.concat "." (flat txt)))
    (* R1: nondeterminism outside the allowlisted layers *)
    | Pexp_ident { txt; _ } when not (r1_allowed ctx.path) -> (
      match r1_banned (flat txt) with
      | Some what ->
        report ctx ~rule:"R1" ~severity:Finding.Error ~loc:e.pexp_loc
          (Printf.sprintf
             "%s breaks the determinism boundary (allowed only in lib/obs, \
              lib/transport, lib/sim/net)"
             what)
      | None -> ())
    | _ -> ());
    (match e.pexp_desc with
    (* R2a: structural comparison touching field/frame values *)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      let f = flat txt in
      if List.mem f r2_poly_ops then begin
        if List.exists (fun (_, a) -> mentions_field_value a) args then
          report ctx ~rule:"R2" ~severity:Finding.Error ~loc:e.pexp_loc
            (Printf.sprintf
               "polymorphic %s on a field/frame value compares \
                representations; use the module's equal/compare"
               (String.concat "." f))
      end
      (* R2b: polymorphic [compare] as a sort comparator *)
      else if List.mem f r2_sorts && not (r2_bare_compare_dir ctx.path) then begin
        match args with
        | (_, { pexp_desc = Pexp_ident { txt = cmp; _ }; pexp_loc; _ }) :: _
          when flat cmp = [ "compare" ] ->
          report ctx ~rule:"R2" ~severity:Finding.Error ~loc:pexp_loc
            "polymorphic compare as sort comparator; use a typed comparator \
             (Int.compare, String.compare, ...)"
        | _ -> ()
      end
    (* R2c: any bare [compare] in the algebra layers *)
    | Pexp_ident { txt; _ }
      when flat txt = [ "compare" ] && r2_bare_compare_dir ctx.path ->
      report ctx ~rule:"R2" ~severity:Finding.Error ~loc:e.pexp_loc
        "bare polymorphic compare in an algebra layer (lib/field, lib/poly, \
         lib/rs); use a typed comparator"
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let value_binding self vb =
    (* R5: partial operations inside decoder bodies *)
    (match binding_name vb.pvb_pat with
    | Some name when r5_scope ctx.path name ->
      List.iter
        (fun (loc, what) ->
          report ctx ~rule:"R5" ~severity:Finding.Error ~loc
            (Printf.sprintf
               "%s inside decoder %s: Byzantine input must produce None, \
                never an exception"
               what name))
        (r5_sites vb.pvb_expr)
    | _ -> ());
    Ast_iterator.default_iterator.value_binding self vb
  in
  let structure_item self si =
    (match si.pstr_desc with
    (* R4: module-level mutable state must be registered *)
    | Pstr_value (_, vbs) when r4_scope ctx.path ->
      List.iter
        (fun vb ->
          match (binding_name vb.pvb_pat, rhs_head vb.pvb_expr) with
          | Some name, Some head when r4_watched head ->
            let key = ctx.path ^ ":" ^ name in
            Hashtbl.replace ctx.live key ();
            if not (Hashtbl.mem ctx.registry key) then
              report ctx ~rule:"R4" ~severity:Finding.Warning
                ~loc:vb.pvb_loc
                (Printf.sprintf
                   "module-level mutable state '%s' (%s) is not registered \
                    in lint/shared_state.allow; add '%s' with its locking \
                    story"
                   name (String.concat "." head) key)
          | _ -> ())
        vbs
    | _ -> ());
    Ast_iterator.default_iterator.structure_item self si
  in
  { Ast_iterator.default_iterator with expr; value_binding; structure_item }

let run ctx (str : structure) =
  let it = iterator ctx in
  it.structure it str;
  List.rev ctx.findings

let run_signature ctx (sg : signature) =
  let it = iterator ctx in
  it.signature it sg;
  List.rev ctx.findings
