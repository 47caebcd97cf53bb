(* Interprocedural Byzantine-taint analysis (rules R6–R8).

   The paper's correctness story rests on one invariant: every byte a
   node receives may be chosen by the adversary, and must cross a total
   decode / RS-verification boundary before it can influence coded
   state (Table 2 is exactly about how much corrupted input that
   boundary absorbs).  This pass checks the invariant as dataflow over
   the whole program:

     lattice     Untrusted ⊏ Checked ⊏ Trusted  (join = worst)
     sources     wire-frame decodes ([Frame.decode]/[of_header]/
                 [decode_header] — framing is validated, the payload
                 bytes inside are still adversary-chosen), transport
                 reads ([Transport.recv], [Unix.read]/[recv]), and the
                 telemetry bundle/delta decodes in lib/obs/agg.ml
                 (shape-validated, values still adversary-chosen)
     sanitizers  total [decode_*]/[of_header]/[of_wire] returning
                 [option]/[result]: matching [Some]/[Ok] marks both the
                 bound value and the sanitized argument expressions as
                 Checked
     sinks       protocol/ledger state mutation (engine, smr, the node
                 runtime's inbox, consensus), decision commits,
                 adversary-indexable [get]/[set]/[sub], field-kernel
                 entry points, and metric families that feed alerting

   R6  an Untrusted value reaches a sink (directly, or as an argument
       to a function whose body lets a parameter reach one)
   R7  a sanitizer's option/result verdict is discarded or bypassed
       ([ignore]/[let _]/sequencing/[Option.get]/[Result.get_ok])
   R8  an Untrusted value is stored into module-level mutable state
       not registered in lint/shared_state.allow — where taint would
       escape any per-call-path analysis

   Interprocedural machinery: one summary per top-level (or
   functor-nested) binding, computed to a fixpoint over the call graph
   resolved from (module, value) pairs (module aliases like
   [module W = Csm_core.Wire.Make (F)] are followed).  Each summary
   holds the return taint with parameters assumed Trusted ([base]),
   whether parameter taint can flow to the return ([propagates]), and
   which parameters reach a sink inside when Untrusted ([sink_params],
   keyed by positional ordinal or ~label so call sites flag only the
   arguments that actually flow to the sink).
   Unknown callees conservatively propagate the join of their
   arguments.  Known blind spot, accepted for signal/noise: taint does
   not flow into lambdas passed to higher-order functions (their
   parameters start Trusted). *)

open Parsetree

type level =
  | Trusted
  | Checked  (* crossed a total-decode boundary *)
  | Untrusted of string  (* origin, for actionable messages *)

let join a b =
  match (a, b) with
  | (Untrusted _ as u), _ | _, (Untrusted _ as u) -> u
  | Checked, _ | _, Checked -> Checked
  | Trusted, Trusted -> Trusted

let is_untrusted = function Untrusted _ -> true | _ -> false

let origin = function Untrusted o -> o | _ -> "?"

(* The marker origin of the params-assumed-Untrusted summary runs; a
   sink hit with this origin is a *conditional* finding, surfaced only
   at call sites that pass genuinely Untrusted arguments. *)
let param_origin = "parameter"

(* ----- configuration: sources ----- *)

(* (module, value) call heads whose results are adversary-controlled.
   [Agg.decode] is deliberately a source, not a sanitizer, despite its
   name: it validates shape, but the carried metric *values* remain
   whatever the peer claims. *)
let source_refs =
  [
    (Some "Frame", "decode");
    (Some "Frame", "of_header");
    (Some "Frame", "decode_header");
    (Some "Transport", "recv");
    (Some "Unix", "read");
    (Some "Unix", "recv");
    (Some "Agg", "decode");
  ]

let source_ref key =
  match key with
  | None -> false
  | Some (m, v) ->
    List.exists
      (fun (sm, sv) ->
        sv = v && (sm = m || (m = None && sm <> None (* local def in own file *) && false)))
      source_refs

(* A definition [name] inside module [modname] that IS one of the
   configured boundaries: its summary returns Untrusted no matter what
   its body looks like (covers unqualified local calls too). *)
let source_def ~modname ~name =
  List.exists
    (fun (sm, sv) -> sm = Some modname && sv = name)
    source_refs

(* ----- configuration: sanitizers ----- *)

let sanitizer_name v =
  v = "decode" || v = "of_header" || v = "of_wire"
  || (String.length v > 7 && String.sub v 0 7 = "decode_")
  || v = "int_of_string_opt" || v = "float_of_string_opt"
  || v = "kind_of_tag"

let sanitizer_ref key =
  match key with
  | None -> false
  | Some ((_, v) as k) -> sanitizer_name v && not (source_ref (Some k))

(* ----- configuration: sinks ----- *)

type sink = {
  k_mod : string option;  (* None: match any qualification *)
  k_val : string;
  k_pos : int list option;  (* argument positions that must not be
                               Untrusted (0-based over the given args);
                               None = every argument *)
  k_scope : string list;  (* path prefixes; [] = all of lib/ and bin/ *)
  k_what : string;
}

(* Where protocol/ledger state lives: a mutation fed by Untrusted data
   here is the adversary writing coded state. *)
let state_scope =
  [
    "lib/core/engine."; "lib/smr/"; "lib/transport/node."; "lib/consensus/";
  ]

let sinks =
  [
    (* adversary-controlled indexing / slicing, anywhere in lib *)
    { k_mod = Some "String"; k_val = "get"; k_pos = Some [ 1 ];
      k_scope = [ "lib/" ]; k_what = "string indexing" };
    { k_mod = Some "String"; k_val = "sub"; k_pos = Some [ 1; 2 ];
      k_scope = [ "lib/" ]; k_what = "string slicing" };
    { k_mod = Some "String"; k_val = "get_int32_be"; k_pos = Some [ 1 ];
      k_scope = [ "lib/" ]; k_what = "string indexing" };
    { k_mod = Some "String"; k_val = "get_int64_be"; k_pos = Some [ 1 ];
      k_scope = [ "lib/" ]; k_what = "string indexing" };
    { k_mod = Some "Bytes"; k_val = "get"; k_pos = Some [ 1 ];
      k_scope = [ "lib/" ]; k_what = "bytes indexing" };
    { k_mod = Some "Bytes"; k_val = "set"; k_pos = Some [ 1 ];
      k_scope = [ "lib/" ]; k_what = "bytes indexing" };
    { k_mod = Some "Bytes"; k_val = "create"; k_pos = Some [ 0 ];
      k_scope = [ "lib/" ]; k_what = "buffer sizing" };
    { k_mod = Some "Array"; k_val = "get"; k_pos = Some [ 1 ];
      k_scope = [ "lib/" ]; k_what = "array indexing" };
    { k_mod = Some "Array"; k_val = "set"; k_pos = Some [ 1 ];
      k_scope = [ "lib/" ]; k_what = "array indexing" };
    { k_mod = Some "Array"; k_val = "make"; k_pos = Some [ 0 ];
      k_scope = [ "lib/" ]; k_what = "array sizing" };
    (* protocol / ledger state mutation *)
    (* key and value positions; the table handle itself (arg 0) is the
       state being written, not the adversary's lever *)
    { k_mod = Some "Hashtbl"; k_val = "replace"; k_pos = Some [ 1; 2 ];
      k_scope = state_scope; k_what = "protocol-state table write" };
    { k_mod = Some "Hashtbl"; k_val = "add"; k_pos = Some [ 1; 2 ];
      k_scope = state_scope; k_what = "protocol-state table write" };
    { k_mod = None; k_val = ":="; k_pos = Some [ 1 ]; k_scope = state_scope;
      k_what = "protocol-state write" };
    (* consensus decision commit *)
    { k_mod = None; k_val = "on_decide"; k_pos = None;
      k_scope = [ "lib/consensus/" ]; k_what = "consensus decision commit" };
    (* metric families that feed alerting *)
    { k_mod = Some "Metric"; k_val = "set"; k_pos = None; k_scope = [ "lib/" ];
      k_what = "alert-feeding metric write" };
    { k_mod = Some "Metric"; k_val = "add"; k_pos = None; k_scope = [ "lib/" ];
      k_what = "alert-feeding metric write" };
    { k_mod = Some "Metric"; k_val = "observe"; k_pos = None;
      k_scope = [ "lib/" ]; k_what = "alert-feeding metric write" };
    { k_mod = Some "Metric"; k_val = "inc"; k_pos = None; k_scope = [ "lib/" ];
      k_what = "alert-feeding metric write" };
    (* field-op kernel entry points *)
    { k_mod = Some "Bytes_kernel"; k_val = "axpy"; k_pos = None;
      k_scope = [ "lib/" ]; k_what = "field kernel" };
    { k_mod = Some "Bytes_kernel"; k_val = "dot"; k_pos = None;
      k_scope = [ "lib/" ]; k_what = "field kernel" };
    { k_mod = Some "Bytes_kernel"; k_val = "scale"; k_pos = None;
      k_scope = [ "lib/" ]; k_what = "field kernel" };
    { k_mod = Some "Bytes_kernel"; k_val = "eval_many"; k_pos = None;
      k_scope = [ "lib/" ]; k_what = "field kernel" };
  ]

let in_scope path prefixes =
  match prefixes with
  | [] ->
    Rules.starts_with "lib/" path || Rules.starts_with "bin/" path
  | ps -> List.exists (fun p -> Rules.starts_with p path) ps

let sink_matches ~path key =
  match key with
  | None -> []
  | Some (m, v) ->
    List.filter
      (fun s ->
        s.k_val = v
        && (match s.k_mod with None -> true | Some sm -> m = Some sm)
        && in_scope path s.k_scope)
      sinks

(* Record-field assignment counts as a state write in the state scope
   (the engine's [t.coded_states.(i) <- ...] family). *)
let setfield_sink path = List.exists (fun p -> Rules.starts_with p path) state_scope

(* ----- expression paths (for the validated-argument refinement) ----- *)

(* "fr.Frame.payload" → ["fr"; "Frame"; "payload"]; used to mark the
   exact expressions a sanitizer just validated as Checked inside the
   [Some]/[Ok] branch. *)
let rec expr_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | Pexp_field (b, { txt; _ }) -> (
    match expr_path b with
    | Some p -> Some (p @ Longident.flatten txt)
    | None -> None)
  | Pexp_constraint (e, _) -> expr_path e
  | _ -> None

module Paths = Set.Make (struct
  type t = string list

  let compare = List.compare String.compare
end)

(* ----- summaries ----- *)

type summary = {
  mutable base : level;  (* return taint, parameters Trusted *)
  mutable propagates : bool;  (* Untrusted parameters can reach the return *)
  mutable sink_params : string list;  (* parameters (positional ordinal
                                         "0"/"1"/…, labelled "~l") that
                                         reach a sink inside the body
                                         when Untrusted *)
}

type def = {
  d_unit : Program.unit_;
  d_name : string;
  d_expr : expression;
  d_summary : summary;
}

type env = {
  vars : (string * level) list;
  checked : Paths.t;  (* expression paths validated on this branch *)
}

type ctx = {
  path : string;
  registry : (string, unit) Hashtbl.t;
  (* module aliases of the current unit: "W" → "Wire" *)
  aliases : (string, string) Hashtbl.t;
  (* module-level mutable bindings of the current unit (R8) *)
  globals : (string, unit) Hashtbl.t;
  (* global defs: (module, value) → summary; local defs: value → summary *)
  defs : (string * string, summary) Hashtbl.t;
  locals : (string, summary) Hashtbl.t;
  report : (loc:Location.t -> rule:string -> string -> unit) option;
}

(* Resolve a value reference through the unit's module aliases and the
   library-prefix stripping. *)
let resolve_key ctx parts =
  let parts =
    match parts with
    | m :: rest when Hashtbl.mem ctx.aliases m -> Hashtbl.find ctx.aliases m :: rest
    | _ -> parts
  in
  Program.ref_key parts

let rec head_of e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | Pexp_field (_, { txt; _ }) -> Some (Longident.flatten txt)
  | Pexp_constraint (e, _) -> head_of e
  | _ -> None

let head_key ctx e =
  match head_of e with None -> None | Some parts -> resolve_key ctx parts

let summary_of ctx key =
  match key with
  | None -> None
  | Some (Some m, v) -> Hashtbl.find_opt ctx.defs (m, v)
  | Some (None, v) -> Hashtbl.find_opt ctx.locals v

let lookup env name =
  match List.assoc_opt name env.vars with Some l -> l | None -> Trusted

let bind env name level = { env with vars = (name, level) :: env.vars }

(* Every variable a pattern binds. *)
let rec pat_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pat_vars p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_vars ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) -> pat_vars p
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> pat_vars p) fields
  | Ppat_or (a, b) -> pat_vars a @ pat_vars b
  | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_lazy p
  | Ppat_exception p ->
    pat_vars p
  | _ -> []

let bind_pattern env p level =
  List.fold_left (fun env v -> bind env v level) env (pat_vars p)

(* Is [p] a success pattern of a sanitizer verdict ([Some _]/[Ok _])? *)
let rec success_pattern p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> (
    match Longident.flatten txt with
    | [ "Some" ] | [ "Ok" ] -> true
    | _ -> false)
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> success_pattern p
  | _ -> false

(* A sanitizer application, seen through pipes: returns its argument
   expressions (the values being validated). *)
let rec sanitizer_app ctx e =
  match e.pexp_desc with
  | Pexp_apply (h, args) -> (
    match head_of h with
    | Some [ "|>" ] -> (
      match args with
      | [ (_, lhs); (_, rhs) ] -> (
        match sanitizer_app ctx rhs with
        | Some more -> Some (lhs :: more)
        | None ->
          if sanitizer_ref (head_key ctx rhs) then Some [ lhs ] else None)
      | _ -> None)
    | Some [ "@@" ] -> (
      match args with
      | [ (_, lhs); (_, rhs) ] -> (
        match sanitizer_app ctx lhs with
        | Some more -> Some (rhs :: more)
        | None ->
          if sanitizer_ref (head_key ctx lhs) then Some [ rhs ] else None)
      | _ -> None)
    | _ ->
      if sanitizer_ref (head_key ctx h) then Some (List.map snd args) else None)
  | Pexp_constraint (e, _) -> sanitizer_app ctx e
  | _ -> None

let report ctx ~loc ~rule msg =
  match ctx.report with None -> () | Some f -> f ~loc ~rule msg

let mute ctx = { ctx with report = None }

let sanitizer_display _ctx e =
  match e.pexp_desc with
  | Pexp_apply (h, _) -> (
    match head_of h with
    | Some parts -> String.concat "." parts
    | None -> "sanitizer")
  | _ -> "sanitizer"

(* ----- the core walk ----- *)

(* Evaluates [e]'s taint under [env], reporting sink hits as it goes.
   Interprocedural effects come from [ctx.defs]/[ctx.locals]. *)
let rec eval ctx env e : level =
  match e.pexp_desc with
  | Pexp_constant _ | Pexp_unreachable -> Trusted
  | Pexp_ident { txt; _ } -> (
    let parts = Longident.flatten txt in
    match parts with
    | [ v ] -> (
      match expr_path e with
      | Some p when Paths.mem p env.checked -> Checked
      | _ -> lookup env v)
    | _ ->
      if source_ref (resolve_key ctx parts) then
        Untrusted (String.concat "." parts)
      else Trusted)
  | Pexp_field (b, _) -> (
    match expr_path e with
    | Some p when Paths.mem p env.checked -> Checked
    | _ -> eval ctx env b)
  | Pexp_apply (h, args) -> eval_apply ctx env e h args
  | Pexp_let (_, vbs, body) ->
    let env' =
      List.fold_left
        (fun acc vb ->
          (* [let _ = sanitizer ...] discards the verdict *)
          (match (vb.pvb_pat.ppat_desc, sanitizer_app ctx vb.pvb_expr) with
          | Ppat_any, Some _ ->
            report ctx ~loc:vb.pvb_loc ~rule:"R7"
              (Printf.sprintf
                 "%s's verdict is discarded (let _): act on the option/result \
                  or drop the call"
                 (sanitizer_display ctx vb.pvb_expr))
          | _ -> ());
          let t = eval ctx env vb.pvb_expr in
          bind_pattern acc vb.pvb_pat t)
        env vbs
    in
    eval ctx env' body
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    let t = eval ctx env scrut in
    let validated =
      match sanitizer_app ctx scrut with
      | None -> []
      | Some args -> List.filter_map expr_path args
    in
    List.fold_left
      (fun acc c ->
        let success = success_pattern c.pc_lhs in
        let env' =
          if validated <> [] && success then
            let checked =
              List.fold_left (fun s p -> Paths.add p s) env.checked validated
            in
            bind_pattern { env with checked } c.pc_lhs Checked
          else bind_pattern env c.pc_lhs t
        in
        let env' =
          match c.pc_guard with
          | Some g ->
            ignore (eval ctx env' g);
            { env' with checked = Paths.union env'.checked (guard_checked ctx env' g) }
          | None -> env'
        in
        join acc (eval ctx env' c.pc_rhs))
      Trusted cases
  | Pexp_function cases ->
    List.iter
      (fun c ->
        let env' = bind_pattern env c.pc_lhs Trusted in
        ignore (eval ctx env' c.pc_rhs))
      cases;
    Trusted
  | Pexp_fun (_, default, p, body) ->
    (match default with Some d -> ignore (eval ctx env d) | None -> ());
    ignore (eval ctx (bind_pattern env p Trusted) body);
    Trusted
  | Pexp_ifthenelse (c, a, b) ->
    ignore (eval ctx env c);
    (* the condition's range comparisons validate their operands on the
       then-branch only *)
    let env_then =
      { env with checked = Paths.union env.checked (guard_checked ctx env c) }
    in
    let t = eval ctx env_then a in
    (match b with Some b -> join t (eval ctx env b) | None -> t)
  | Pexp_sequence (a, b) ->
    (match sanitizer_app ctx a with
    | Some _ ->
      report ctx ~loc:a.pexp_loc ~rule:"R7"
        (Printf.sprintf
           "%s's verdict is discarded (sequenced away): act on the \
            option/result or drop the call"
           (sanitizer_display ctx a))
    | None -> ());
    ignore (eval ctx env a);
    eval ctx env b
  | Pexp_tuple es | Pexp_array es ->
    List.fold_left (fun acc e -> join acc (eval ctx env e)) Trusted es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
    match arg with Some a -> eval ctx env a | None -> Trusted)
  | Pexp_record (fields, base) ->
    let t =
      List.fold_left
        (fun acc (_, e) -> join acc (eval ctx env e))
        Trusted fields
    in
    (match base with Some b -> join t (eval ctx env b) | None -> t)
  | Pexp_setfield (tgt, fld, v) ->
    let tv = eval ctx env v in
    ignore (eval ctx env tgt);
    (if is_untrusted tv && setfield_sink ctx.path then
       let name = String.concat "." (Longident.flatten fld.txt) in
       report ctx ~loc:e.pexp_loc ~rule:"R6"
         (Printf.sprintf
            "untrusted value (%s) written to protocol state field '%s' \
             without a sanitizer"
            (origin tv) name));
    Trusted
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e)
  | Pexp_open (_, e) | Pexp_lazy e | Pexp_assert e ->
    eval ctx env e
  | Pexp_while (c, body) ->
    ignore (eval ctx env c);
    ignore (eval ctx env body);
    Trusted
  | Pexp_for (p, lo, hi, _, body) ->
    ignore (eval ctx env lo);
    ignore (eval ctx env hi);
    ignore (eval ctx (bind_pattern env p Trusted) body);
    Trusted
  | Pexp_letmodule (_, _, body) | Pexp_letexception (_, body) ->
    eval ctx env body
  | _ -> Trusted

and eval_apply ctx env app h args =
  let key = head_key ctx h in
  let arg_ts = List.map (fun (_, a) -> eval ctx env a) args in
  (* R7: verdict bypass / discard through this application *)
  (match (head_of h, args) with
  | Some ([ "ignore" ] | [ "Stdlib"; "ignore" ]), [ (_, a) ] -> (
    match sanitizer_app ctx a with
    | Some _ ->
      report ctx ~loc:a.pexp_loc ~rule:"R7"
        (Printf.sprintf
           "%s's verdict is discarded (ignore): act on the option/result or \
            drop the call"
           (sanitizer_display ctx a))
    | None -> ())
  | Some ([ "Option"; "get" ] | [ "Result"; "get_ok" ]), [ (_, a) ] -> (
    match sanitizer_app ctx a with
    | Some _ ->
      report ctx ~loc:app.pexp_loc ~rule:"R7"
        (Printf.sprintf
           "%s's verdict is bypassed with %s: a Byzantine payload turns this \
            into a crash — match on the option/result instead"
           (sanitizer_display ctx a)
           (String.concat "." (Option.value ~default:[] (head_of h))))
    | None -> ())
  | _ -> ());
  (* R6: direct sink arguments *)
  List.iter
    (fun s ->
      List.iteri
        (fun i t ->
          let watched =
            match s.k_pos with None -> true | Some ps -> List.mem i ps
          in
          if watched && is_untrusted t then
            report ctx ~loc:app.pexp_loc ~rule:"R6"
              (Printf.sprintf
                 "untrusted value (%s) reaches %s (%s, argument %d) without \
                  a sanitizer"
                 (origin t) s.k_what
                 (String.concat "."
                    (Option.value ~default:[ s.k_val ] (head_of h)))
                 i))
        arg_ts)
    (sink_matches ~path:ctx.path key);
  (* R8: untrusted store into module-level mutable state *)
  (match (head_of h, args) with
  | Some parts, (_, { pexp_desc = Pexp_ident { txt = tgt; _ }; _ }) :: _ -> (
    let store =
      match Program.strip_lib parts with
      | [ ":=" ] | [ "Hashtbl"; "replace" ] | [ "Hashtbl"; "add" ]
      | [ "Atomic"; "set" ] | [ "Queue"; "push" ] | [ "Queue"; "add" ]
      | [ "Buffer"; "add_string" ] ->
        true
      | _ -> false
    in
    match Longident.flatten tgt with
    | [ g ] when store && Hashtbl.mem ctx.globals g ->
      let tainted =
        List.exists is_untrusted (match arg_ts with _ :: rest -> rest | [] -> [])
      in
      let reg_key = ctx.path ^ ":" ^ g in
      if tainted && not (Hashtbl.mem ctx.registry reg_key) then
        let o =
          List.find_opt is_untrusted (List.tl arg_ts)
          |> Option.map origin
          |> Option.value ~default:"?"
        in
        report ctx ~loc:app.pexp_loc ~rule:"R8"
          (Printf.sprintf
             "untrusted value (%s) escapes into module-level mutable state \
              '%s'; taint stored globally outlives every per-path check — \
              sanitize first or register '%s' with its trust story"
             o g reg_key)
    | _ -> ())
  | _ -> ());
  (* result taint *)
  if source_ref key then
    Untrusted
      (String.concat "." (Option.value ~default:[ "source" ] (head_of h)))
  else if sanitizer_ref key then Checked
  else
    match head_of h with
    | Some ([ "mod" ] | [ "land" ]) ->
      (* magnitude-bounded by the right operand: the static shape of
         bounds-checked indexing (ring-buffer slot arithmetic) *)
      Checked
    | _ -> (
    match summary_of ctx key with
    | Some s ->
      let from_args =
        if s.propagates then
          List.fold_left join Trusted
            (List.filter is_untrusted arg_ts)
        else Trusted
      in
      (* interprocedural R6: this callee lets exactly these parameters
         reach a sink in its body — flag only an untrusted argument in
         one of those positions *)
      (match s.sink_params with
      | [] -> ()
      | sps ->
        let pos = ref 0 in
        List.iter2
          (fun (lbl, _) t ->
            let key =
              match lbl with
              | Asttypes.Nolabel ->
                let k = string_of_int !pos in
                incr pos;
                k
              | Asttypes.Labelled l | Asttypes.Optional l -> "~" ^ l
            in
            if List.mem key sps && is_untrusted t then
              report ctx ~loc:app.pexp_loc ~rule:"R6"
                (Printf.sprintf
                   "untrusted argument (%s) to %s, whose body lets that \
                    parameter reach a sink without a sanitizer"
                   (origin t)
                   (String.concat "."
                      (Option.value ~default:[ "callee" ] (head_of h)))))
          args arg_ts);
      join s.base from_args
    | None ->
      (* unknown callee: conservatively propagate argument taint *)
      List.fold_left join Trusted arg_ts)

(* A boolean guard's range comparisons: operand paths of <, <=, >, >=
   and = under && are validated on the branch the guard protects —
   provided the bound on the other side is itself not Untrusted
   (comparing two adversary values validates neither). *)
and guard_checked ctx env g =
  match g.pexp_desc with
  | Pexp_apply (h, [ (_, a); (_, b) ]) -> (
    match head_of h with
    | Some [ "&&" ] ->
      Paths.union (guard_checked ctx env a) (guard_checked ctx env b)
    | Some ([ "<" ] | [ "<=" ] | [ ">" ] | [ ">=" ] | [ "=" ]) ->
      let add acc operand other =
        if is_untrusted (eval (mute ctx) env other) then acc
        else
          match expr_path operand with
          | Some p -> Paths.add p acc
          | None -> acc
      in
      add (add Paths.empty a b) b a
    | _ -> Paths.empty)
  | Pexp_constraint (g, _) -> guard_checked ctx env g
  | _ -> Paths.empty

(* ----- collecting definitions ----- *)

(* Strip the parameter prefix off a binding body, binding each
   parameter at a level chosen per parameter key (positional ordinal
   "0"/"1"/… or labelled "~l" — the same keys call sites compute). *)
let rec strip_params_keyed env mk i e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, p, body) ->
    let key, i' =
      match lbl with
      | Asttypes.Nolabel -> (string_of_int i, i + 1)
      | Asttypes.Labelled l | Asttypes.Optional l -> ("~" ^ l, i)
    in
    strip_params_keyed (bind_pattern env p (mk key)) mk i' body
  | Pexp_newtype (_, body) -> strip_params_keyed env mk i body
  | _ -> (env, e)

let strip_params env level e = strip_params_keyed env (fun _ -> level) 0 e

(* Parse the parameter key back out of an "(origin)" embedded in an R6
   message from the params-Untrusted probe run. *)
let param_key_of_msg msg =
  let needle = "(" ^ param_origin ^ ":" in
  let n = String.length needle and m = String.length msg in
  let rec find i = if i + n > m then None else if String.sub msg i n = needle then Some (i + n) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some start -> (
    match String.index_from_opt msg start ')' with
    | Some stop -> Some (String.sub msg start (stop - start))
    | None -> None)

let empty_env = { vars = []; checked = Paths.empty }

(* Walk a structure, collecting top-level and functor/module-nested
   value bindings, module aliases, and module-level mutable names. *)
let collect_unit (u : Program.unit_) =
  let aliases : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let globals : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let defs = ref [] in
  let rec mod_tail me =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> (
      match List.rev (Program.strip_lib (Longident.flatten txt)) with
      | last :: _ -> Some last
      | [] -> None)
    | Pmod_apply (f, _) -> mod_tail f
    | Pmod_constraint (m, _) -> mod_tail m
    | _ -> None
  in
  let rec walk_structure str =
    List.iter
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              (match Rules.binding_name vb.pvb_pat with
              | Some name ->
                defs := (name, vb.pvb_expr) :: !defs;
                (match Rules.rhs_head vb.pvb_expr with
                | Some head when Rules.r4_watched head ->
                  Hashtbl.replace globals name ()
                | _ -> ())
              | None -> ()))
            vbs
        | Pstr_module mb -> (
          let name = Option.value ~default:"_" mb.pmb_name.txt in
          match mod_tail mb.pmb_expr with
          | Some tail when tail <> name -> Hashtbl.replace aliases name tail
          | _ -> walk_module mb.pmb_expr)
        | Pstr_recmodule mbs -> List.iter (fun mb -> walk_module mb.pmb_expr) mbs
        | _ -> ())
      str
  and walk_module me =
    match me.pmod_desc with
    | Pmod_structure str -> walk_structure str
    | Pmod_functor (_, body) -> walk_module body
    | Pmod_constraint (m, _) -> walk_module m
    | _ -> ()
  in
  (match u.Program.structure with
  | Some str -> walk_structure str
  | None -> ());
  (aliases, globals, List.rev !defs)

(* ----- the whole-program pass ----- *)

let analyze ?(registry = Hashtbl.create 1) (units : Program.unit_ list) :
    Finding.t list =
  (* 1. collect *)
  let per_unit =
    List.map
      (fun u ->
        let aliases, globals, raw = collect_unit u in
        (u, aliases, globals, raw))
      units
  in
  let global_defs : (string * string, summary) Hashtbl.t = Hashtbl.create 256 in
  let unit_locals : (string, (string, summary) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let all_defs =
    List.concat_map
      (fun (u, _aliases, _globals, raw) ->
        let locals =
          match Hashtbl.find_opt unit_locals u.Program.path with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 16 in
            Hashtbl.replace unit_locals u.Program.path t;
            t
        in
        List.map
          (fun (name, expr) ->
            let s =
              if source_def ~modname:u.Program.modname ~name then
                {
                  base = Untrusted (u.Program.modname ^ "." ^ name);
                  propagates = false;
                  sink_params = [];
                }
              else { base = Trusted; propagates = false; sink_params = [] }
            in
            (* collisions (same module name from two dirs, or shadowed
               local names): first definition wins deterministically *)
            if not (Hashtbl.mem global_defs (u.Program.modname, name)) then
              Hashtbl.replace global_defs (u.Program.modname, name) s;
            if not (Hashtbl.mem locals name) then Hashtbl.replace locals name s;
            { d_unit = u; d_name = name; d_expr = expr; d_summary = s })
          raw)
      per_unit
  in
  let ctx_for ?report (u, aliases, globals, _) =
    {
      path = u.Program.path;
      registry;
      aliases;
      globals;
      defs = global_defs;
      locals =
        Option.value
          ~default:(Hashtbl.create 1)
          (Hashtbl.find_opt unit_locals u.Program.path);
      report;
    }
  in
  let ctx_of : (string, ctx) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((u, _, _, _) as entry) ->
      Hashtbl.replace ctx_of u.Program.path (ctx_for entry))
    per_unit;
  (* 2. summary fixpoint *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 12 do
    changed := false;
    incr rounds;
    List.iter
      (fun d ->
        if not (source_def ~modname:d.d_unit.Program.modname ~name:d.d_name)
        then begin
          let ctx = Hashtbl.find ctx_of d.d_unit.Program.path in
          (* params-Trusted run: the unconditional return taint *)
          let env, body = strip_params empty_env Trusted d.d_expr in
          let base = eval ctx env body in
          (* params-Untrusted run: conditional return / sink reach *)
          let hits = ref [] in
          let probe =
            {
              ctx with
              report =
                Some
                  (fun ~loc ~rule msg ->
                    (* an in-source `allow R6` at the sink silences the
                       conditional summary too: the justification
                       covers every caller *)
                    if
                      rule = "R6"
                      && not
                           (Suppress.active d.d_unit.Program.suppress
                              ~rule:"R6"
                              ~line:loc.Location.loc_start.Lexing.pos_lnum)
                    then
                      match param_key_of_msg msg with
                      | Some k when not (List.mem k !hits) -> hits := k :: !hits
                      | _ -> ());
            }
          in
          let env_u, body_u =
            strip_params_keyed empty_env
              (fun k -> Untrusted (param_origin ^ ":" ^ k))
              0 d.d_expr
          in
          let cond = eval probe env_u body_u in
          let propagates =
            match cond with
            | Untrusted o ->
              Rules.starts_with param_origin o || is_untrusted base
            | _ -> false
          in
          let sink_params = List.sort String.compare !hits in
          let s = d.d_summary in
          if
            s.base <> base || s.propagates <> propagates
            || s.sink_params <> sink_params
          then begin
            s.base <- base;
            s.propagates <- propagates;
            s.sink_params <- sink_params;
            changed := true
          end
        end)
      all_defs
  done;
  (* 3. reporting pass *)
  let findings = ref [] in
  List.iter
    (fun d ->
      let ctx = Hashtbl.find ctx_of d.d_unit.Program.path in
      let ctx =
        {
          ctx with
          report =
            Some
              (fun ~loc ~rule msg ->
                let p = loc.Location.loc_start in
                findings :=
                  Finding.make ~rule ~severity:Finding.Error
                    ~file:d.d_unit.Program.path ~line:p.Lexing.pos_lnum
                    ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
                    msg
                  :: !findings);
        }
      in
      let env, body = strip_params empty_env Trusted d.d_expr in
      ignore (eval ctx env body))
    all_defs;
  List.sort_uniq Finding.order !findings
