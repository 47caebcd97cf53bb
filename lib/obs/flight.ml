(* Per-node flight recorder: a bounded ring of HLC-stamped round
   events — phase transitions, frame sends/receives, errors — always
   on, cheap enough to leave running, and dumped only when something
   goes wrong (ledger divergence, frame errors, decoder suspicion).

   A recorder is an instance: loopback clusters run N node runtimes in
   one process, and each needs its own ring or the black boxes would
   interleave.  The process-global [Event] log is one more instance.
   The ring keeps the newest [capacity] entries; [recorded] counts
   everything ever recorded so a dump states how much history was
   lost.

   The ring is flat: one preallocated array per field, one slot per
   entry, so a record overwrites a slot instead of allocating an entry
   the ring would keep alive (and the minor GC would promote).  A node
   writes an entry per frame it sends or takes in; with [record_fields]
   and literal strings that write allocates nothing.  [entries] builds
   the [entry] records, attributes included, only when a dump reads
   the ring.  A ring has one owner thread: it takes no lock. *)

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
  hlcs : int array;
  rounds : int array;
  peers : int array;  (* -1: no peer attribute *)
  traces : Bytes.t;  (* 8 bytes a slot, little-endian *)
  kinds : string array;
  peer_keys : string array;  (* "dst" | "src" *)
  frames : string array;  (* "": no frame attribute *)
  note_keys : string array;  (* "": no note *)
  notes : string array;
  attrs : (string * string) list array;  (* [record]'s own attributes *)
  mutable next : int;  (* records ever made; the next fills [next mod cap] *)
}

let default_capacity = 512

let create ?(capacity = default_capacity) ~node () =
  if capacity <= 0 then invalid_arg "Flight.create: capacity"
  else
    {
      node;
      cap = capacity;
      hlcs = Array.make capacity 0;
      rounds = Array.make capacity 0;
      peers = Array.make capacity (-1);
      traces = Bytes.make (capacity * 8) '\000';
      kinds = Array.make capacity "";
      peer_keys = Array.make capacity "";
      frames = Array.make capacity "";
      note_keys = Array.make capacity "";
      notes = Array.make capacity "";
      attrs = Array.make capacity [];
      next = 0;
    }

let node t = t.node
let capacity t = t.cap

let write t ~trace ~hlc ~round ~peer_key ~peer ~frame ~note_key ~note ~attrs
    kind =
  let i = t.next mod t.cap in
  t.hlcs.(i) <- hlc;
  t.rounds.(i) <- round;
  t.peers.(i) <- peer;
  Bytes.set_int64_le t.traces (i * 8) trace;
  t.kinds.(i) <- kind;
  t.peer_keys.(i) <- peer_key;
  t.frames.(i) <- frame;
  t.note_keys.(i) <- note_key;
  t.notes.(i) <- note;
  t.attrs.(i) <- attrs;
  t.next <- t.next + 1

let record_fields t ~trace ~hlc ~round ~peer_key ~peer ~frame ~note_key ~note
    kind =
  write t ~trace ~hlc ~round ~peer_key ~peer ~frame ~note_key ~note ~attrs:[]
    kind

let record t ?(trace = 0L) ?(attrs = []) ~hlc ~round kind =
  write t ~trace ~hlc ~round ~peer_key:"" ~peer:(-1) ~frame:"" ~note_key:""
    ~note:"" ~attrs kind

let recorded t = t.next

(* Slot [i] as an entry: the peer pair, then the frame, then the note,
   then [record]'s attributes. *)
let entry t i =
  let attrs = t.attrs.(i) in
  let attrs =
    if t.note_keys.(i) = "" then attrs
    else (t.note_keys.(i), t.notes.(i)) :: attrs
  in
  let attrs =
    if t.frames.(i) = "" then attrs else ("frame", t.frames.(i)) :: attrs
  in
  let attrs =
    if t.peers.(i) < 0 then attrs
    else (t.peer_keys.(i), string_of_int t.peers.(i)) :: attrs
  in
  {
    f_hlc = t.hlcs.(i);
    f_trace = Bytes.get_int64_le t.traces (i * 8);
    f_round = t.rounds.(i);
    f_kind = t.kinds.(i);
    f_attrs = attrs;
  }

(* Surviving entries, oldest first (recording order = HLC order within
   one node, since every stamp strictly increases). *)
let entries t =
  let n = t.next in
  let lo = max 0 (n - t.cap) in
  List.init (n - lo) (fun j -> entry t ((lo + j) mod t.cap))

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
