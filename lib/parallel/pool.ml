(* Domain fan-out for coarse, independent harness work.

   Each [parallel_list_map] call spawns its own helper domains and
   joins every one of them before it returns, so no domain outlives a
   call and a process may still fork after a sweep.  Items are handed
   out by an atomic cursor and results written by index, so the output
   is [List.map f l] whatever the width. *)

let hard_cap = 128

let clamp d = min d hard_cap

(* Requested width: [CSM_DOMAINS] when it is a positive integer, else the
   recommended count; [set_domains] overrides it. *)
let configured =
  ref
    (match Option.map String.trim (Sys.getenv_opt "CSM_DOMAINS") with
    | Some s -> (
      match int_of_string_opt s with
      | Some d when d >= 1 -> clamp d
      | Some _ | None -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ())

let domains () = !configured

let set_domains d =
  if d < 1 then invalid_arg "Pool.set_domains: need at least 1 domain";
  configured := clamp d

let limit = ref max_int

let with_domain_limit d f =
  if d < 1 then invalid_arg "Pool.with_domain_limit: need at least 1 domain";
  let saved = !limit in
  limit := d;
  Fun.protect ~finally:(fun () -> limit := saved) f

(* True while this domain runs [parallel_list_map] tasks: a call made
   from inside a task runs inline. *)
let engaged = Domain.DLS.new_key (fun () -> false)

let parallel_list_map f l =
  let items = Array.of_list l in
  let n = Array.length items in
  let width = min n (min (domains ()) !limit) in
  if width <= 1 || Domain.DLS.get engaged then List.map f l
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    (* After a failure the remaining items are left unclaimed. *)
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Atomic.get failed = None then begin
        (match f items.(i) with
        | r -> results.(i) <- Some r
        | exception e -> ignore (Atomic.compare_and_set failed None (Some e)));
        work ()
      end
    in
    let task () =
      Domain.DLS.set engaged true;
      work ()
    in
    let helpers = List.init (width - 1) (fun _ -> Domain.spawn task) in
    task ();
    Domain.DLS.set engaged false;
    List.iter Domain.join helpers;
    match Atomic.get failed with
    | Some e -> raise e
    | None -> List.map Option.get (Array.to_list results)
  end
