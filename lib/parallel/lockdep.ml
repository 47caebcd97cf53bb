(* Runtime lock-order checker: a [Mutex] wrapper that, when enabled
   ([CSM_LOCKDEP=1] or [enable ()]), records which locks are held by
   the acquiring thread and folds every held→acquired pair into one
   process-global order graph.  An acquisition that would close a cycle
   in that graph — i.e. two call paths taking the same pair of locks in
   opposite orders, the classic ABBA deadlock seed — is recorded as a
   violation and raised as {!Order_violation} at the next release of a
   checked lock.

   Keying is per (domain, thread): every domain and every thread (the
   loopback cluster's node threads, say) gets its own acquisition
   stack, so the graph sees the true interleaving of the multicore and
   multi-thread stacks.  Disabled, [lock]/[unlock] cost one atomic load
   on top of the raw mutex and allocate nothing.

   The checker's own bookkeeping is guarded by a plain private mutex
   (the meta-lock), which is deliberately exempt from checking — it is
   only ever taken with the wrapped mutex graph as data, never while
   user code runs. *)

type t = {
  m : Mutex.t;
  name : string;
  id : int;
}

exception Order_violation of string

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "CSM_LOCKDEP" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | Some _ | None -> false)

let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let next_id = Atomic.make 0

(* ----- global order graph, guarded by [meta] ----- *)

let meta = Mutex.create ()
let names : (int, string) Hashtbl.t = Hashtbl.create 32
let succs : (int, int list ref) Hashtbl.t = Hashtbl.create 64  (* a → taken-while-holding-a *)
let stacks : (int * int, int list ref) Hashtbl.t = Hashtbl.create 32
let pending : string list ref = ref []  (* violations not yet raised *)
let recorded : string list ref = ref []  (* every violation ever seen *)

let locked_meta f =
  Mutex.lock meta;
  Fun.protect ~finally:(fun () -> Mutex.unlock meta) f

let create name =
  let id = Atomic.fetch_and_add next_id 1 in
  locked_meta (fun () -> Hashtbl.replace names id name);
  { m = Mutex.create (); name; id }

let name t = t.name

(* Acquisition stacks are keyed by the physical (domain, thread) pair;
   no randomness or wall-clock flows from here. *)
(* csm-lint: allow R1 — physical execution-context key, not scheduling *)
let self_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let stack_of key =
  match Hashtbl.find_opt stacks key with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.replace stacks key s;
    s

(* Is [dst] reachable from [src] in the order graph?  Called under
   [meta]; the graph is kept acyclic, so plain DFS terminates. *)
let reachable src dst =
  let seen = Hashtbl.create 16 in
  let rec go v =
    v = dst
    || (not (Hashtbl.mem seen v))
       && begin
            Hashtbl.replace seen v ();
            match Hashtbl.find_opt succs v with
            | None -> false
            | Some l -> List.exists go !l
          end
  in
  go src

let lock_name id =
  match Hashtbl.find_opt names id with
  | Some n -> Printf.sprintf "%s#%d" n id
  | None -> Printf.sprintf "#%d" id

(* Record that [t] is being acquired while [held] are held: add each
   held→t edge, refusing (and recording a violation for) any edge that
   would close a cycle — i.e. t already precedes the held lock
   somewhere else in the process. *)
let record_acquire t =
  locked_meta (fun () ->
      let stack = stack_of (self_key ()) in
      List.iter
        (fun h ->
          if h <> t.id then begin
            let l =
              match Hashtbl.find_opt succs h with
              | Some l -> l
              | None ->
                let l = ref [] in
                Hashtbl.replace succs h l;
                l
            in
            if not (List.mem t.id !l) then begin
              if reachable t.id h then begin
                let msg =
                  Printf.sprintf
                    "lock-order inversion: acquiring %s while holding %s, \
                     but %s is ordered before %s elsewhere"
                    (lock_name t.id) (lock_name h) (lock_name t.id)
                    (lock_name h)
                in
                pending := msg :: !pending;
                recorded := msg :: !recorded
              end
              else l := t.id :: !l
            end
          end)
        !stack;
      stack := t.id :: !stack)

let record_release t =
  locked_meta (fun () ->
      let stack = stack_of (self_key ()) in
      let rec drop = function
        | [] -> []
        | x :: tl -> if x = t.id then tl else x :: drop tl
      in
      stack := drop !stack;
      let p = !pending in
      pending := [];
      p)

let lock t =
  if Atomic.get enabled_flag then record_acquire t;
  (* Release pairing is the caller's obligation, enforced by R3 at
     every call site. *)
  (* csm-lint: allow R3 — this IS the checked acquire primitive *)
  Mutex.lock t.m

(* Violations surface at release time (the cycle check itself runs as
   edges are added): the release is the first point where raising
   cannot leave the caller's critical section half-entered. *)
let unlock t =
  Mutex.unlock t.m;
  if Atomic.get enabled_flag then
    match record_release t with
    | [] -> ()
    | msg :: _ -> raise (Order_violation msg)

(* Not [Fun.protect]: a violation raised by [unlock] must reach the
   caller as [Order_violation], not wrapped in [Finally_raised].  When
   [f] itself raises, its exception wins and any simultaneous violation
   stays available through [violations]. *)
let with_lock t f =
  lock t;
  match f () with
  | v ->
    unlock t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try unlock t with Order_violation _ -> ());
    Printexc.raise_with_backtrace e bt

(* Condition-variable wait on a checked lock.  The mutex is released
   and re-acquired by [Condition.wait] itself; for ordering purposes
   the lock never leaves the acquisition stack — it is re-held before
   control returns, exactly like classic lockdep treats condvars. *)
let wait cond t = Condition.wait cond t.m

let violations () = locked_meta (fun () -> List.rev !recorded)

(* ----- export: the observed graph, for the static R9 cross-check ----- *)

let plain_name id =
  match Hashtbl.find_opt names id with
  | Some n -> n
  | None -> Printf.sprintf "#%d" id

(* Every held→acquired edge observed so far, as (held, acquired) name
   pairs, deduplicated and sorted — the runtime twin of the analyzer's
   static acquisition graph. *)
let edges () =
  locked_meta (fun () ->
      Hashtbl.fold
        (fun src l acc ->
          List.fold_left
            (fun acc dst ->
              let e = (plain_name src, plain_name dst) in
              if List.mem e acc then acc else e :: acc)
            acc !l)
        succs []
      |> List.sort (fun (a1, b1) (a2, b2) ->
             match String.compare a1 a2 with
             | 0 -> String.compare b1 b2
             | c -> c))

let export path =
  let es = edges () in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# CSM_LOCKDEP runtime lock-order edges: \"a -> b\" means b was\n\
         # acquired while a was held.  Regenerate with `make lockdep-export`;\n\
         # csm-lint --taint flags any static edge that contradicts an order\n\
         # recorded here (rule R9).\n";
      List.iter (fun (a, b) -> Printf.fprintf oc "%s -> %s\n" a b) es)

(* [CSM_LOCKDEP_EXPORT=path] dumps the observed graph when the process
   exits, so any checked run can refresh lint/lock_order.expected. *)
let () =
  match Sys.getenv_opt "CSM_LOCKDEP_EXPORT" with
  | Some path when path <> "" -> at_exit (fun () -> export path)
  | _ -> ()

let reset () =
  locked_meta (fun () ->
      Hashtbl.reset succs;
      Hashtbl.reset stacks;
      pending := [];
      recorded := [])
