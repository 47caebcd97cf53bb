(* Per-node flight recorder: a bounded ring of HLC-stamped round
   events — phase transitions, frame sends/receives, errors — always
   on, cheap enough to leave running, and dumped only when something
   goes wrong (ledger divergence, frame errors, decoder suspicion).

   Unlike the process-global [Event] log, a recorder is an instance:
   loopback clusters run N node runtimes in one process, and each needs
   its own ring or the black boxes would interleave.  The ring keeps
   the newest [capacity] entries; [recorded] counts everything ever
   recorded so a dump states how much history was lost. *)

type entry = {
  f_hlc : Clock.stamp;  (* HLC at the moment of recording *)
  f_trace : int64;  (* causal trace id (0 = none) *)
  f_round : int;
  f_kind : string;  (* "phase" | "send" | "recv" | "error" *)
  f_attrs : (string * string) list;
}

type t = {
  node : int;
  cap : int;
  ring : entry option array;
  lock : Mutex.t;
  mutable next : int;  (* guarded by lock *)
}

let default_capacity = 512

let create ?(capacity = default_capacity) ~node () =
  if capacity <= 0 then invalid_arg "Flight.create: capacity"
  else
    {
      node;
      cap = capacity;
      ring = Array.make capacity None;
      lock = Mutex.create ();
      next = 0;
    }

let node t = t.node
let capacity t = t.cap

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t ?(trace = 0L) ?(attrs = []) ~hlc ~round kind =
  let e = { f_hlc = hlc; f_trace = trace; f_round = round; f_kind = kind; f_attrs = attrs } in
  locked t (fun () ->
      t.ring.(t.next mod t.cap) <- Some e;
      t.next <- t.next + 1)

let recorded t = locked t (fun () -> t.next)

(* Surviving entries, oldest first (recording order = HLC order within
   one node, since every stamp strictly increases). *)
let entries t =
  locked t (fun () ->
      let n = t.next in
      let lo = max 0 (n - t.cap) in
      List.filter_map
        (fun i -> t.ring.(i mod t.cap))
        (List.init (n - lo) (fun j -> lo + j)))

let entry_json (e : entry) =
  Json.Obj
    ([
       ("hlc", Json.Int e.f_hlc);
       ("trace", Json.Str (Printf.sprintf "%Lx" e.f_trace));
       ("round", Json.Int e.f_round);
       ("kind", Json.Str e.f_kind);
     ]
    @
    match e.f_attrs with
    | [] -> []
    | attrs ->
      [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)) ])

(* Total: a malformed object yields None, so an untrusted telemetry
   payload cannot crash the aggregator. *)
let decode_entry_json j =
  match
    ( Option.bind (Json.member "hlc" j) Json.to_int_opt,
      Option.bind (Json.member "round" j) Json.to_int_opt,
      Option.bind (Json.member "kind" j) Json.to_string_opt )
  with
  | Some hlc, Some round, Some kind when hlc >= 0 && round >= 0 ->
    let trace =
      match Option.bind (Json.member "trace" j) Json.to_string_opt with
      | Some s -> ( try Int64.of_string ("0x" ^ s) with Failure _ -> 0L)
      | None -> 0L
    in
    let attrs =
      match Json.member "attrs" j with
      | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) ->
            match Json.to_string_opt v with
            | Some s -> Some (k, s)
            | None -> None)
          kvs
      | _ -> []
    in
    Some { f_hlc = hlc; f_trace = trace; f_round = round; f_kind = kind; f_attrs = attrs }
  | _ -> None
