(* R9: static lock-order graph, checked against the runtime lockdep
   export.

   The runtime checker (lib/parallel/lockdep.ml, [CSM_LOCKDEP=1]) sees
   only the interleavings a given run happens to produce.  This pass
   builds the acquisition graph from source — an edge a -> b whenever
   lock b can be taken while a is held — and fails on

     * cycles in the static graph (a deadlock no run has hit yet), and
     * static edges whose *reverse* is recorded in the committed
       runtime export [lint/lock_order.expected] (the static and
       dynamic views disagree about which order is canonical — one of
       them is wrong, or the code genuinely takes the locks both ways).

   Lock identities:
     * [Lockdep.create "name"]  — the string literal, whether bound to
       a variable ([let writers_lock = Lockdep.create "socket.linger"])
       or a record field ([m = Lockdep.create "loopback.mailbox"]; the
       field label then resolves accesses like [me.m] anywhere)
     * [Mutex.create ()] in a module-level binding or record field —
       named "<Module>.<binding>" (e.g. "Metric.reg_lock"); these never
       appear in the runtime export (lockdep wraps only [Lockdep.t]),
       so they participate in cycle detection only
   A field label constructed with different locks in different modules
   (e.g. [stats_mutex] = "socket.stats" in one backend and
   "loopback.stats" in the other) resolves to the *set* of them; edges
   are added for every member — a sound over-approximation.
   lib/parallel/lockdep.ml itself is excluded: its [meta] mutex is the
   checker's own bookkeeping, acquired transiently around every user
   lock, and would otherwise fabricate edges to everything.

   Acquisition nesting:
     * [Lockdep.with_lock L f] — [f] runs under L
     * [Mutex.lock L; rest] / [Lockdep.lock L; rest] — the rest of the
       sequence runs under L (until a matching unlock)
     * calling a function [g] while holding H adds every H -> acq(g)
       edge, where acq(g) is the summary of locks [g] (transitively)
       acquires; a function argument passed to [g] is assumed to run
       under app(g) — the locks [g] holds at the points it *invokes a
       parameter* — not under everything [g] acquires.  That
       distinction is what keeps [Span.with_ ... (fun () -> ...)]
       (thunk runs after the registry lock is released) and
       [Pool.run] (tasks run on worker domains) from fabricating
       edges, while [locked t (fun () -> ...)] wrappers still nest
       correctly.
     * a lambda that is *not* an argument (let-bound, stored in a
       record/queue) runs at an unknown later point: its body is
       walked with nothing held.
   Summaries are computed to a fixpoint over the same whole-program
   def table the taint pass uses.  Locks that can't be resolved to an
   identity (e.g. a mutex received as a parameter) are skipped: R9 can
   miss edges, it does not invent identities. *)

open Parsetree

module S = Set.Make (String)

module Edges = Map.Make (struct
  type t = string * string

  let compare (a1, b1) (a2, b2) =
    match String.compare a1 a2 with 0 -> String.compare b1 b2 | c -> c
end)

(* ----- expected-order file ----- *)

(* "a -> b" per line; '#' starts a comment; blank lines ignored. *)
let parse_expected src =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         let line = String.trim line in
         if line = "" then None
         else
           match String.index_opt line '-' with
           | Some i when i + 1 < String.length line && line.[i + 1] = '>' ->
             let a = String.trim (String.sub line 0 i) in
             let b =
               String.trim (String.sub line (i + 2) (String.length line - i - 2))
             in
             if a = "" || b = "" then None else Some (a, b)
           | _ -> None)

let render_expected ~header edges =
  let b = Buffer.create 256 in
  List.iter (fun l -> Buffer.add_string b ("# " ^ l ^ "\n")) header;
  List.iter (fun (a, bb) -> Buffer.add_string b (a ^ " -> " ^ bb ^ "\n")) edges;
  Buffer.contents b

(* ----- lock identity collection ----- *)

let lockdep_create_name e =
  match e.pexp_desc with
  | Pexp_apply (h, [ (_, arg) ]) -> (
    match Taint.head_of h with
    | Some parts -> (
      match Program.strip_lib parts with
      | [ "Lockdep"; "create" ] -> (
        match arg.pexp_desc with
        | Pexp_constant (Pconst_string (s, _, _)) -> Some s
        | _ -> None)
      | _ -> None)
    | None -> None)
  | _ -> None

let is_mutex_create e =
  match e.pexp_desc with
  | Pexp_apply (h, _) -> (
    match Taint.head_of h with
    | Some parts -> Program.strip_lib parts = [ "Mutex"; "create" ]
    | None -> false)
  | _ -> false

(* The runtime checker's own internals are not part of the analyzed
   program. *)
let excluded_unit (u : Program.unit_) =
  Filename.basename u.Program.path = "lockdep.ml"

type identities = {
  (* (unit modname, binding) -> lock names *)
  vars : (string * string, S.t) Hashtbl.t;
  (* (unit modname, field label) -> lock names: a field access in a
     unit resolves against that unit's own record constructions first —
     field labels like [lock] repeat across otherwise-unrelated record
     types, and a global pool would cross-link their lock graphs *)
  unit_fields : (string * string, S.t) Hashtbl.t;
  (* field label -> lock names, program-wide fallback for accessors
     living outside the constructing unit (transport.ml's
     [t.stats_mutex], built by both backends) *)
  fields : (string, S.t) Hashtbl.t;
}

let add tbl key name =
  let cur = Option.value ~default:S.empty (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (S.add name cur)

let collect_identities units =
  let ids =
    {
      vars = Hashtbl.create 32;
      unit_fields = Hashtbl.create 32;
      fields = Hashtbl.create 32;
    }
  in
  List.iter
    (fun (u : Program.unit_) ->
      let modname = u.Program.modname in
      let it = Ast_iterator.default_iterator in
      let expr it e =
        (match e.pexp_desc with
        | Pexp_record (fls, _) ->
          List.iter
            (fun (({ txt; _ } : Longident.t Location.loc), v) ->
              match List.rev (Longident.flatten txt) with
              | label :: _ -> (
                match lockdep_create_name v with
                | Some name ->
                  add ids.unit_fields (modname, label) name;
                  add ids.fields label name
                | None ->
                  if is_mutex_create v then begin
                    add ids.unit_fields (modname, label) (modname ^ "." ^ label);
                    add ids.fields label (modname ^ "." ^ label)
                  end)
              | [] -> ())
            fls
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
      in
      let it = { it with expr } in
      match u.Program.structure with
      | Some str ->
        it.structure it str;
        List.iter
          (fun si ->
            match si.pstr_desc with
            | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match Rules.binding_name vb.pvb_pat with
                  | Some v -> (
                    match lockdep_create_name vb.pvb_expr with
                    | Some name -> add ids.vars (modname, v) name
                    | None ->
                      if is_mutex_create vb.pvb_expr then
                        add ids.vars (modname, v) (modname ^ "." ^ v))
                  | None -> ())
                vbs
            | _ -> ())
          str
      | None -> ())
    units;
  ids

(* ----- summaries and walk context ----- *)

type summary = {
  mutable acq : S.t;  (* locks this def may (transitively) acquire *)
  mutable app : S.t;  (* locks held where it may invoke a parameter *)
}

type gctx = {
  ids : identities;
  modname : string;
  summaries : (string * string, summary) Hashtbl.t;
  locals : (string, summary) Hashtbl.t;
  aliases : (string, string) Hashtbl.t;
  mutable params : S.t;  (* parameter names of the def being walked *)
  mutable edges : Location.t Edges.t;
  mutable acquired : S.t;
  mutable applies : S.t;
}

let resolve_summary ctx key =
  match key with
  | None -> None
  | Some (Some m, v) -> Hashtbl.find_opt ctx.summaries (m, v)
  | Some (None, v) -> (
    match Hashtbl.find_opt ctx.locals v with
    | Some s -> Some s
    | None -> Hashtbl.find_opt ctx.summaries (ctx.modname, v))

let head_key ctx e =
  match Taint.head_of e with
  | None -> None
  | Some parts ->
    let parts =
      match parts with
      | m :: rest when Hashtbl.mem ctx.aliases m ->
        Hashtbl.find ctx.aliases m :: rest
      | _ -> parts
    in
    Program.ref_key parts

let is_param ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } -> S.mem v ctx.params
  | _ -> false

(* Resolve a lock expression to its possible identities. [env] maps
   locally [let]-bound variables to lock-name sets. *)
let rec resolve_lock ctx env e : S.t =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match Program.strip_lib (Longident.flatten txt) with
    | [ v ] -> (
      match List.assoc_opt v env with
      | Some s -> s
      | None ->
        Option.value ~default:S.empty
          (Hashtbl.find_opt ctx.ids.vars (ctx.modname, v)))
    | [ m; v ] ->
      Option.value ~default:S.empty (Hashtbl.find_opt ctx.ids.vars (m, v))
    | _ -> S.empty)
  | Pexp_field (_, { txt; _ }) -> (
    match List.rev (Longident.flatten txt) with
    | label :: _ -> (
      match Hashtbl.find_opt ctx.ids.unit_fields (ctx.modname, label) with
      | Some s -> s
      | None ->
        Option.value ~default:S.empty (Hashtbl.find_opt ctx.ids.fields label))
    | [] -> S.empty)
  | Pexp_constraint (e, _) -> resolve_lock ctx env e
  | _ -> S.empty

let record_edges ctx ~loc held locks =
  S.iter
    (fun l ->
      S.iter
        (fun h ->
          if h <> l && not (Edges.mem (h, l) ctx.edges) then
            ctx.edges <- Edges.add (h, l) loc ctx.edges)
        held)
    locks

let acquire ctx ~loc held locks =
  record_edges ctx ~loc held locks;
  ctx.acquired <- S.union ctx.acquired locks

(* Walk an expression under [held]; returns the held-set for the next
   statement in an enclosing sequence (raw [Mutex.lock]/[unlock]
   mutate it). *)
let rec walk ctx env held e : S.t =
  match e.pexp_desc with
  | Pexp_apply (h, args) -> walk_apply ctx env held e h args
  | Pexp_sequence (a, b) ->
    let held' = walk ctx env held a in
    walk ctx env held' b
  | Pexp_let (_, vbs, body) ->
    let env' =
      List.fold_left
        (fun acc vb ->
          ignore (walk ctx acc held vb.pvb_expr);
          match (Rules.binding_name vb.pvb_pat, lockdep_create_name vb.pvb_expr)
          with
          | Some v, Some name -> (v, S.singleton name) :: acc
          | Some v, None when is_mutex_create vb.pvb_expr ->
            (v, S.singleton (ctx.modname ^ "." ^ v)) :: acc
          | _ -> acc)
        env vbs
    in
    ignore (walk ctx env' held body);
    held
  (* a lambda not in argument position runs at an unknown later point:
     nothing can be assumed held *)
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) ->
    ignore (walk ctx env S.empty body);
    held
  | Pexp_function cases ->
    List.iter (fun c -> ignore (walk ctx env S.empty c.pc_rhs)) cases;
    held
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    ignore (walk ctx env held scrut);
    List.iter
      (fun c ->
        (match c.pc_guard with
        | Some g -> ignore (walk ctx env held g)
        | None -> ());
        ignore (walk ctx env held c.pc_rhs))
      cases;
    held
  | Pexp_ifthenelse (c, a, b) ->
    ignore (walk ctx env held c);
    ignore (walk ctx env held a);
    (match b with Some b -> ignore (walk ctx env held b) | None -> ());
    held
  | Pexp_tuple es | Pexp_array es ->
    List.iter (fun e -> ignore (walk ctx env held e)) es;
    held
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) ->
    ignore (walk ctx env held a);
    held
  | Pexp_record (fls, base) ->
    List.iter (fun (_, e) -> ignore (walk ctx env held e)) fls;
    (match base with Some b -> ignore (walk ctx env held b) | None -> ());
    held
  | Pexp_field (b, _) ->
    ignore (walk ctx env held b);
    held
  | Pexp_setfield (a, _, b) ->
    ignore (walk ctx env held a);
    ignore (walk ctx env held b);
    held
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e)
  | Pexp_lazy e | Pexp_assert e ->
    walk ctx env held e
  | Pexp_while (c, body) ->
    ignore (walk ctx env held c);
    ignore (walk ctx env held body);
    held
  | Pexp_for (_, lo, hi, _, body) ->
    ignore (walk ctx env held lo);
    ignore (walk ctx env held hi);
    ignore (walk ctx env held body);
    held
  | Pexp_letmodule (_, _, body) | Pexp_letexception (_, body) ->
    walk ctx env held body
  | _ -> held

and walk_apply ctx env held app h args =
  let loc = app.pexp_loc in
  match (Taint.head_of h |> Option.map Program.strip_lib, args) with
  | Some [ "Lockdep"; "with_lock" ], (_, lockexpr) :: rest ->
    let locks = resolve_lock ctx env lockexpr in
    acquire ctx ~loc held locks;
    let inner = S.union held locks in
    List.iter (fun (_, a) -> run_arg ctx env ~invokes:true ~under:inner a) rest;
    held
  | Some ([ "Mutex"; "lock" ] | [ "Lockdep"; "lock" ]), [ (_, lockexpr) ] ->
    let locks = resolve_lock ctx env lockexpr in
    acquire ctx ~loc held locks;
    S.union held locks
  | Some ([ "Mutex"; "unlock" ] | [ "Lockdep"; "unlock" ]), [ (_, lockexpr) ]
    ->
    S.diff held (resolve_lock ctx env lockexpr)
  (* the spawned body runs on a fresh domain/thread holding nothing *)
  | Some ([ "Domain"; "spawn" ] | [ "Thread"; "create" ]), _ ->
    List.iter
      (fun (_, a) -> run_arg ctx env ~invokes:true ~under:S.empty a)
      args;
    held
  | _ ->
    let under, invokes =
      match resolve_summary ctx (head_key ctx h) with
      | Some s ->
        (* known callee: everything it acquires nests under what we
           hold; its function arguments run under app(s).  It counts
           as invoking ident parameters only when app(s) is nonempty —
           i.e. it demonstrably invokes a parameter under a lock —
           otherwise every data argument that happens to be one of our
           parameters would record a bogus applies fact *)
        record_edges ctx ~loc held s.acq;
        ctx.acquired <- S.union ctx.acquired s.acq;
        (S.union held s.app, not (S.is_empty s.app))
      | None ->
        (* unknown callee ([Fun.protect], [List.iter], ...): assume it
           may invoke its function arguments synchronously, under what
           we currently hold.  Only [Fun.protect] is trusted to invoke
           a bare ident argument (the mutex-release idiom); anything
           else gets that credit only for syntactic lambdas — an ident
           passed to an arbitrary callee (or an operator like [<]) is
           usually data, not a callback *)
        let fp =
          Taint.head_of h |> Option.map Program.strip_lib
          = Some [ "Fun"; "protect" ]
        in
        (held, fp)
    in
    List.iter (fun (_, a) -> run_arg ctx env ~invokes ~under a) args;
    held

(* A callee argument, assumed to run under [under]: lambdas descend
   with that held-set; a parameter of the current def records an
   [applies] fact when the callee is known to invoke it; an ident
   naming a known def contributes that def's acquisitions as edges. *)
and run_arg ctx env ~invokes ~under a =
  match a.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) ->
    ignore (walk ctx env under body)
  | Pexp_function cases ->
    List.iter (fun c -> ignore (walk ctx env under c.pc_rhs)) cases
  | Pexp_ident _ when is_param ctx a ->
    if invokes && not (S.is_empty under) then
      ctx.applies <- S.union ctx.applies under
  | Pexp_ident _ -> (
    match resolve_summary ctx (head_key ctx a) with
    | Some s when invokes ->
      record_edges ctx ~loc:a.pexp_loc under s.acq;
      ctx.acquired <- S.union ctx.acquired s.acq
    | _ -> ())
  | _ -> ignore (walk ctx env under a)

let rec param_names e =
  match e.pexp_desc with
  | Pexp_fun (_, _, p, body) ->
    List.fold_left
      (fun s v -> S.add v s)
      (param_names body)
      (Taint.pat_vars p)
  | Pexp_newtype (_, body) -> param_names body
  | _ -> S.empty

(* ----- analysis entry ----- *)

type result = {
  findings : Finding.t list;
  edges : (string * string * Location.t) list;
}

let analyze ?(expected = []) (units : Program.unit_ list) : result =
  let units = List.filter (fun u -> not (excluded_unit u)) units in
  let ids = collect_identities units in
  let per_unit =
    List.map
      (fun (u : Program.unit_) ->
        let aliases, _globals, defs = Taint.collect_unit u in
        (u, aliases, defs))
      units
  in
  let summaries : (string * string, summary) Hashtbl.t = Hashtbl.create 128 in
  let unit_locals : (string, (string, summary) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun ((u : Program.unit_), _aliases, defs) ->
      let locals = Hashtbl.create 16 in
      Hashtbl.replace unit_locals u.Program.path locals;
      List.iter
        (fun (name, _) ->
          let s = { acq = S.empty; app = S.empty } in
          if not (Hashtbl.mem summaries (u.Program.modname, name)) then
            Hashtbl.replace summaries (u.Program.modname, name) s;
          if not (Hashtbl.mem locals name) then Hashtbl.replace locals name s)
        defs)
    per_unit;
  let ctx_for (u : Program.unit_) aliases =
    {
      ids;
      modname = u.Program.modname;
      summaries;
      locals =
        Option.value
          ~default:(Hashtbl.create 1)
          (Hashtbl.find_opt unit_locals u.Program.path);
      aliases;
      params = S.empty;
      edges = Edges.empty;
      acquired = S.empty;
      applies = S.empty;
    }
  in
  (* fixpoint on (acq, app) summaries; the edge set of the final round
     is the graph *)
  let changed = ref true in
  let rounds = ref 0 in
  let final_edges = ref Edges.empty in
  while !changed && !rounds < 12 do
    changed := false;
    incr rounds;
    final_edges := Edges.empty;
    List.iter
      (fun ((u : Program.unit_), aliases, defs) ->
        let ctx = ctx_for u aliases in
        List.iter
          (fun (name, expr) ->
            ctx.params <- param_names expr;
            ctx.acquired <- S.empty;
            ctx.applies <- S.empty;
            ctx.edges <- Edges.empty;
            ignore (walk ctx [] S.empty expr);
            (match Hashtbl.find_opt ctx.locals name with
            | Some s ->
              if
                not
                  (S.subset ctx.acquired s.acq && S.subset ctx.applies s.app)
              then begin
                s.acq <- S.union s.acq ctx.acquired;
                s.app <- S.union s.app ctx.applies;
                changed := true
              end
            | None -> ());
            Edges.iter
              (fun k loc ->
                if not (Edges.mem k !final_edges) then
                  final_edges := Edges.add k loc !final_edges)
              ctx.edges)
          defs)
      per_unit
  done;
  let edges =
    Edges.fold (fun (a, b) loc acc -> (a, b, loc) :: acc) !final_edges []
    |> List.sort (fun (a1, b1, _) (a2, b2, _) ->
           match String.compare a1 a2 with
           | 0 -> String.compare b1 b2
           | c -> c)
  in
  let findings = ref [] in
  let report ~loc msg =
    let p = loc.Location.loc_start in
    let file = p.Lexing.pos_fname in
    findings :=
      Finding.make ~rule:"R9" ~severity:Finding.Error ~file
        ~line:p.Lexing.pos_lnum
        ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
        msg
      :: !findings
  in
  (* cycles: for each edge, is its head reachable back from its tail? *)
  let succs = Hashtbl.create 32 in
  List.iter
    (fun (a, b, loc) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt succs a) in
      Hashtbl.replace succs a ((b, loc) :: cur))
    edges;
  let reported_cycles = Hashtbl.create 4 in
  List.iter
    (fun (a, b, loc) ->
      let seen = Hashtbl.create 16 in
      let rec reach n =
        if n = a then true
        else if Hashtbl.mem seen n then false
        else begin
          Hashtbl.replace seen n ();
          List.exists
            (fun (m, _) -> reach m)
            (Option.value ~default:[] (Hashtbl.find_opt succs n))
        end
      in
      let cyc_key = if a < b then (a, b) else (b, a) in
      if reach b && not (Hashtbl.mem reported_cycles cyc_key) then begin
        Hashtbl.replace reported_cycles cyc_key ();
        report ~loc
          (Printf.sprintf
             "lock-order cycle: '%s' -> '%s' closes a cycle in the static \
              acquisition graph (potential deadlock)"
             a b)
      end)
    edges;
  (* contradictions against the runtime export *)
  List.iter
    (fun (a, b, loc) ->
      if List.mem (b, a) expected then
        report ~loc
          (Printf.sprintf
             "lock order '%s' -> '%s' contradicts the runtime lockdep export \
              (lint/lock_order.expected records '%s' -> '%s'); re-run make \
              lockdep-export or fix the acquisition order"
             a b b a))
    edges;
  { findings = List.sort_uniq Finding.order !findings; edges }

let to_dot edges =
  let b = Buffer.create 256 in
  Buffer.add_string b "digraph lock_order {\n";
  List.iter
    (fun (x, y, loc) ->
      let p = loc.Location.loc_start in
      let where =
        if p.Lexing.pos_fname = "" then ""
        else Printf.sprintf "  // %s:%d" p.Lexing.pos_fname p.Lexing.pos_lnum
      in
      Buffer.add_string b (Printf.sprintf "  %S -> %S;%s\n" x y where))
    edges;
  Buffer.add_string b "}\n";
  Buffer.contents b
