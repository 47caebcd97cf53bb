(* R9: no lock is taken while another is held.

   Every lock in the program is a leaf: a critical section is one
   [Mutex.protect m f] whose [f] takes no other lock.  Two leaf locks
   can never be taken in opposite orders, so no lock needs a name and
   no acquisition order needs recording; the pass reports every
   acquisition reached while a lock is held.

   An acquisition is [Mutex.protect m f], and [m] is held inside [f]:
   rule R3 rejects every raw [Mutex.lock] and [Mutex.unlock], so no
   other form can hold a lock.  [Condition.wait c m] gives [m] up and
   takes it back; it is not an acquisition.

   Calls are followed through two facts per def, computed to a fixpoint
   over the whole-program def table the taint pass uses:
     * [acq]: calling it may take a lock (transitively);
     * [app]: it runs one of its parameters while holding a lock.
   Calling a def with [acq] while holding a lock is nesting.  A function
   argument of a def with [app] runs under a lock, so
   [locked t (fun () -> Window.add ...)] nests, while
   [Span.with_ ... (fun () -> ...)], whose thunk runs after its registry
   lock is released, does not.  A closure bound by a local [let] gets
   the same two facts, in scope for the [let]'s body, so
   [let h () = ... in locked h] is followed like a call to a def.  An
   unknown callee ([List.iter], [Fun.protect], ...) is assumed to run
   its function arguments at once, under what the caller holds.  A
   lambda that is not an argument (let-bound, stored in a record or a
   queue) runs at an unknown later point: its body is walked with
   nothing held.  A spawned thread or domain starts with nothing held,
   and so does a domain-local key's initialiser; neither counts as its
   creator taking a lock.  The initialiser runs inside the first
   [Domain.DLS.get] of each domain instead: a key whose initialiser may
   take a lock is recorded under the module-level name or the record
   field label it is bound to, and every [Domain.DLS.get] on such a key
   counts as an acquisition.  Locks have no identities, so a mutex
   passed as a parameter counts like any other. *)

open Parsetree

module S = Set.Make (String)

(* ----- summaries and walk context ----- *)

type summary = {
  mutable acq : bool;  (* may (transitively) take a lock *)
  mutable app : bool;  (* runs a parameter while holding a lock *)
}

(* A domain-local key: a module-level name, or a record field label *)
type key = Named of string * string | Field of string

type ctx = {
  modname : string;
  summaries : (string * string, summary) Hashtbl.t;
  locals : (string, summary) Hashtbl.t;
  aliases : (string, string) Hashtbl.t;
  lock_keys : (key, unit) Hashtbl.t;  (* keys whose initialiser may lock *)
  mutable scope : (string * summary) list;  (* let-bound closures *)
  mutable params : S.t;  (* parameter names of the def being walked *)
  mutable acquires : bool;
  mutable applied : S.t;  (* parameters run while holding a lock *)
  mutable init_locks : bool;  (* the last key initialiser walked may lock *)
  mutable found : (Location.t * string) list;
}

let resolve_summary ctx key =
  match key with
  | None -> None
  | Some (Some m, v) -> Hashtbl.find_opt ctx.summaries (m, v)
  | Some (None, v) -> (
    match List.assoc_opt v ctx.scope with
    | Some s -> Some s
    | None -> (
      match Hashtbl.find_opt ctx.locals v with
      | Some s -> Some s
      | None -> Hashtbl.find_opt ctx.summaries (ctx.modname, v)))

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

(* [e], a parameter, runs while a lock is held *)
let apply_param ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } ->
    ctx.applied <- S.add v ctx.applied
  | _ -> ()

let callee e =
  match Taint.head_of e with
  | Some parts ->
    String.concat "." (Program.strip_lib parts) ^ " (which may take a lock)"
  | None -> "a callee that may take a lock"

let stripped_head e = Taint.head_of e |> Option.map Program.strip_lib

let is_new_key e =
  match e.pexp_desc with
  | Pexp_apply (h, _) -> stripped_head h = Some [ "Domain"; "DLS"; "new_key" ]
  | _ -> false

let dls_key ctx k =
  match k.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> Some (Field (Longident.last txt))
  | _ -> (
    match head_key ctx k with
    | Some (m, v) -> Some (Named (Option.value ~default:ctx.modname m, v))
    | None -> None)

let rec param_names e =
  match e.pexp_desc with
  | Pexp_fun (_, _, p, body) ->
    List.fold_left (fun s v -> S.add v s) (param_names body) (Taint.pat_vars p)
  | Pexp_newtype (_, body) -> param_names body
  | _ -> S.empty

(* A lock is taken at [loc] with [held] locks held. *)
let acquire ctx ~loc ~held what =
  ctx.acquires <- true;
  if held > 0 then ctx.found <- (loc, what) :: ctx.found

(* Walk an expression with [held] locks held. *)
let rec walk ctx held e =
  match e.pexp_desc with
  | Pexp_apply (h, args) -> walk_apply ctx held e h args
  | Pexp_sequence (a, b) | Pexp_setfield (a, _, b) | Pexp_while (a, b) ->
    walk ctx held a;
    walk ctx held b
  | Pexp_let (rf, vbs, body) ->
    let closures =
      List.filter_map
        (fun vb ->
          match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
          | Ppat_var { txt; _ }, (Pexp_fun _ | Pexp_function _ | Pexp_newtype _)
            ->
            Some (txt, vb.pvb_expr, { acq = false; app = false })
          | _ ->
            walk ctx held vb.pvb_expr;
            None)
        vbs
    in
    let outer = ctx.scope in
    let inner = List.map (fun (v, _, s) -> (v, s)) closures @ outer in
    (* a recursive closure calls itself: a second pass sees the facts
       the first found *)
    let passes = if rf = Asttypes.Recursive then 2 else 1 in
    ctx.scope <- (if passes = 2 then inner else outer);
    for _ = 1 to passes do
      List.iter (fun (_, e, s) -> summarise ctx e s) closures
    done;
    ctx.scope <- inner;
    walk ctx held body;
    ctx.scope <- outer
  (* a lambda not in argument position runs at an unknown later point:
     nothing can be assumed held *)
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> walk ctx 0 body
  | Pexp_function cases -> List.iter (fun c -> walk ctx 0 c.pc_rhs) cases
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    walk ctx held scrut;
    List.iter
      (fun c ->
        Option.iter (walk ctx held) c.pc_guard;
        walk ctx held c.pc_rhs)
      cases
  | Pexp_ifthenelse (c, a, b) ->
    List.iter (walk ctx held) (c :: a :: Option.to_list b)
  | Pexp_tuple es | Pexp_array es -> List.iter (walk ctx held) es
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) | Pexp_field (a, _)
    ->
    walk ctx held a
  | Pexp_record (fls, base) ->
    List.iter
      (fun ({ Location.txt; _ }, e) ->
        ctx.init_locks <- false;
        walk ctx held e;
        if ctx.init_locks && is_new_key e then
          Hashtbl.replace ctx.lock_keys (Field (Longident.last txt)) ())
      fls;
    Option.iter (walk ctx held) base
  | Pexp_for (_, lo, hi, _, body) -> List.iter (walk ctx held) [ lo; hi; body ]
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e)
  | Pexp_lazy e | Pexp_assert e | Pexp_letmodule (_, _, e)
  | Pexp_letexception (_, e) ->
    walk ctx held e
  | _ -> ()

and walk_apply ctx held app h args =
  let loc = app.pexp_loc in
  match (stripped_head h, args) with
  | Some [ "Mutex"; "protect" ], (_, m) :: rest ->
    walk ctx held m;
    acquire ctx ~loc ~held "Mutex.protect";
    List.iter
      (fun (_, a) -> run_arg ctx ~invokes:true ~under:(held + 1) a)
      rest
  (* a spawned body, and a domain-local key's initialiser, run later
     holding nothing, and what they take is not the caller's; whether
     the initialiser may lock is kept for the binding of the key *)
  | ( Some
        ( [ "Domain"; "spawn" ]
        | [ "Thread"; "create" ]
        | [ "Domain"; "DLS"; "new_key" ] ),
      _ ) ->
    let acquires = ctx.acquires in
    ctx.acquires <- false;
    List.iter (fun (_, a) -> run_arg ctx ~invokes:true ~under:0 a) args;
    ctx.init_locks <- ctx.acquires;
    ctx.acquires <- acquires
  (* the key's initialiser runs inside the first get of each domain *)
  | Some [ "Domain"; "DLS"; "get" ], [ (_, k) ] -> (
    walk ctx held k;
    match dls_key ctx k with
    | Some key when Hashtbl.mem ctx.lock_keys key ->
      acquire ctx ~loc ~held
        "Domain.DLS.get (whose key's initialiser may take a lock)"
    | _ -> ())
  | _ ->
    let under, invokes =
      match resolve_summary ctx (head_key ctx h) with
      | Some s ->
        (* known callee: if it may take a lock, that nests under what
           we hold; its function arguments run under a lock if it runs
           a parameter under one.  Only then does it count as invoking
           our ident parameters: otherwise every data argument that
           happens to be one of them would record a bogus [applies] *)
        if s.acq then acquire ctx ~loc ~held (callee h);
        ((if s.app then held + 1 else held), s.app)
      | None ->
        (* a parameter called under a lock: this def runs a parameter
           while holding one *)
        if is_param ctx h && held > 0 then apply_param ctx h;
        (* unknown callee ([Fun.protect], [List.iter], ...): assume it
           may invoke its function arguments synchronously, under what
           we currently hold.  Only [Fun.protect] is trusted to invoke
           a bare ident argument (the release idiom); anything else
           gets that credit only for syntactic lambdas: an ident passed
           to an arbitrary callee (or an operator like [<]) is usually
           data, not a callback *)
        ( held,
          stripped_head h = Some [ "Fun"; "protect" ] )
    in
    List.iter (fun (_, a) -> run_arg ctx ~invokes ~under a) args

(* A callee argument, assumed to run with [under] locks held: lambdas
   descend with that count; a parameter of the current def records an
   [applies] fact when the callee is known to invoke it; an ident
   naming a known def that may take a lock is an acquisition there. *)
and run_arg ctx ~invokes ~under a =
  match a.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> walk ctx under body
  | Pexp_function cases -> List.iter (fun c -> walk ctx under c.pc_rhs) cases
  | Pexp_ident _ when is_param ctx a ->
    if invokes && under > 0 then apply_param ctx a
  | Pexp_ident _ -> (
    match resolve_summary ctx (head_key ctx a) with
    | Some s when invokes && s.acq ->
      acquire ctx ~loc:a.pexp_loc ~held:under (callee a)
    | _ -> ())
  | _ -> walk ctx under a

(* The facts of a let-bound closure [e], into [s].  Its body sees the
   enclosing def's parameters too: running one of those under a lock
   is the enclosing def's fact, running one of its own is the
   closure's.  What the closure may take counts for the enclosing def,
   as for any lambda in it. *)
and summarise ctx e s =
  let params = ctx.params and applied = ctx.applied in
  let acquires = ctx.acquires in
  let own = param_names e in
  ctx.params <- S.union own params;
  ctx.applied <- S.empty;
  ctx.acquires <- false;
  walk ctx 0 e;
  s.acq <- s.acq || ctx.acquires;
  s.app <- s.app || not (S.is_empty (S.inter ctx.applied own));
  ctx.params <- params;
  ctx.applied <- S.union applied (S.diff ctx.applied own);
  ctx.acquires <- acquires || ctx.acquires

(* ----- analysis entry ----- *)

let analyze (units : Program.unit_ list) : Finding.t list =
  let summaries : (string * string, summary) Hashtbl.t = Hashtbl.create 128 in
  let lock_keys = Hashtbl.create 8 in
  let ctxs =
    List.map
      (fun (u : Program.unit_) ->
        let aliases, _globals, defs = Taint.collect_unit u in
        let locals = Hashtbl.create 16 in
        List.iter
          (fun (name, _) ->
            let s = { acq = false; app = false } in
            if not (Hashtbl.mem summaries (u.Program.modname, name)) then
              Hashtbl.replace summaries (u.Program.modname, name) s;
            if not (Hashtbl.mem locals name) then Hashtbl.replace locals name s)
          defs;
        ( {
            modname = u.Program.modname;
            summaries;
            locals;
            aliases;
            lock_keys;
            scope = [];
            params = S.empty;
            acquires = false;
            applied = S.empty;
            init_locks = false;
            found = [];
          },
          defs ))
      units
  in
  (* fixpoint on the summaries; the findings of the final round stand *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 12 do
    changed := false;
    incr rounds;
    let keys = Hashtbl.length lock_keys in
    List.iter
      (fun (ctx, defs) ->
        ctx.found <- [];
        List.iter
          (fun (name, expr) ->
            ctx.params <- param_names expr;
            ctx.acquires <- false;
            ctx.applied <- S.empty;
            ctx.init_locks <- false;
            walk ctx 0 expr;
            if ctx.init_locks && is_new_key expr then
              Hashtbl.replace lock_keys (Named (ctx.modname, name)) ();
            let applies = not (S.is_empty ctx.applied) in
            match Hashtbl.find_opt ctx.locals name with
            | Some s ->
              if (ctx.acquires && not s.acq) || (applies && not s.app)
              then begin
                s.acq <- s.acq || ctx.acquires;
                s.app <- s.app || applies;
                changed := true
              end
            | None -> ())
          defs)
      ctxs;
    if Hashtbl.length lock_keys > keys then changed := true
  done;
  List.concat_map
    (fun (ctx, _) ->
      List.map
        (fun ((loc : Location.t), what) ->
          let p = loc.Location.loc_start in
          Finding.make ~rule:"R9" ~severity:Finding.Error
            ~file:p.Lexing.pos_fname ~line:p.Lexing.pos_lnum
            ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
            (Printf.sprintf
               "%s runs while a lock is held; every critical section must \
                be a leaf: one Mutex.protect whose body takes no other lock"
               what))
        ctx.found)
    ctxs
  |> List.sort_uniq Finding.order
