(* The CSM wire frame: the length-prefixed binary envelope every
   protocol message travels in, shared by the discrete-event simulator's
   byte accounting and the real transports in [Csm_transport].

   Layout (big-endian, 16-byte header):

     offset 0   'C'              magic
     offset 1   'S'
     offset 2   version          (1 = bare, 2 = with trace extension)
     offset 3   kind tag         (see [kind])
     offset 4   sender id        u32
     offset 8   round            u32
     offset 12  payload length   u32  (<= [max_payload_bytes])
     offset 16  extension        (version 2 only, [ext_bytes] bytes)
     ...        payload bytes

   Version-2 frames carry a fixed 16-byte causal-trace extension
   between the header and the payload:

     ext offset 0   trace id     u64  (one causal trace, e.g. a round)
     ext offset 8   HLC stamp    u64  (hybrid-logical-clock send time)

   The payload-length field counts payload bytes only, never the
   extension, so version-1 consumers that ignore unknown versions and
   version-2 consumers agree on where a frame ends.  Decoding is total:
   every malformed input — wrong magic, unknown version or tag,
   negative/oversized fields, truncated extension, truncated or
   trailing bytes — yields [None], never an exception, so a Byzantine
   peer cannot crash a receiver with a crafted frame.  Authentication
   is deliberately NOT the frame's job (signatures live in
   [Csm_crypto]); the sender field is the unauthenticated channel
   claim, and the extension is an unauthenticated observability hint —
   consumers must treat its contents as untrusted input. *)

type kind =
  | Command  (* client -> nodes: the round's K command vectors *)
  | Commit  (* node -> node: consensus payload over the agreed commands *)
  | Result  (* node -> node: the coded execution result g_i *)
  | Output  (* node -> client: decoded per-machine outputs + next states *)
  | Stats  (* node -> client: end-of-run transport counters *)
  | Shutdown  (* client -> nodes: drain and exit *)
  | Telemetry  (* node -> client: end-of-run observability bundle *)

let tag_of_kind = function
  | Command -> 1
  | Commit -> 2
  | Result -> 3
  | Output -> 4
  | Stats -> 5
  | Shutdown -> 6
  | Telemetry -> 7

let kind_eq a b = tag_of_kind a = tag_of_kind b

let kind_of_tag = function
  | 1 -> Some Command
  | 2 -> Some Commit
  | 3 -> Some Result
  | 4 -> Some Output
  | 5 -> Some Stats
  | 6 -> Some Shutdown
  | 7 -> Some Telemetry
  | _ -> None

let kind_name = function
  | Command -> "command"
  | Commit -> "commit"
  | Result -> "result"
  | Output -> "output"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Telemetry -> "telemetry"

type ext = {
  trace_id : int64;  (* the causal trace this frame belongs to *)
  hlc : int64;  (* packed hybrid-logical-clock stamp at send time *)
}

type t = {
  version : int;
  kind : kind;
  sender : int;
  round : int;
  ext : ext option;  (* Some iff version >= ext_version *)
  payload : string;
}

let current_version = 1
let ext_version = 2
let header_bytes = 16
let ext_bytes = 16
let max_payload_bytes = 1 lsl 24
let max_id = 0x7FFFFFFF

let ext_bytes_of_version v = if v >= ext_version then ext_bytes else 0
let encoded_size ~payload_bytes = header_bytes + payload_bytes

let size t =
  header_bytes
  + ext_bytes_of_version t.version
  + String.length t.payload

let check_fields ~ctx ~version ~sender ~round ~payload_len ~has_ext =
  if version < 0 || version > 0xFF then invalid_arg (ctx ^ ": version");
  if has_ext <> (version >= ext_version) then
    invalid_arg (ctx ^ ": extension requires version >= 2 (and vice versa)");
  if sender < 0 || sender > max_id then invalid_arg (ctx ^ ": sender");
  if round < 0 || round > max_id then invalid_arg (ctx ^ ": round");
  if payload_len > max_payload_bytes then
    invalid_arg (ctx ^ ": payload too large")

let make ?version ?ext ~kind ~sender ~round payload =
  let version =
    match version with
    | Some v -> v
    | None -> ( match ext with None -> current_version | Some _ -> ext_version)
  in
  check_fields ~ctx:"Frame.make" ~version ~sender ~round
    ~payload_len:(String.length payload)
    ~has_ext:(Option.is_some ext);
  { version; kind; sender; round; ext; payload }

let encode t =
  let len = String.length t.payload in
  check_fields ~ctx:"Frame.encode" ~version:t.version ~sender:t.sender
    ~round:t.round ~payload_len:len
    ~has_ext:(Option.is_some t.ext);
  let eb = ext_bytes_of_version t.version in
  let b = Bytes.create (header_bytes + eb + len) in
  Bytes.set b 0 'C';
  Bytes.set b 1 'S';
  Bytes.set b 2 (Char.chr t.version);
  Bytes.set b 3 (Char.chr (tag_of_kind t.kind));
  Bytes.set_int32_be b 4 (Int32.of_int t.sender);
  Bytes.set_int32_be b 8 (Int32.of_int t.round);
  Bytes.set_int32_be b 12 (Int32.of_int len);
  (match t.ext with
  | None -> ()
  | Some e ->
    Bytes.set_int64_be b header_bytes e.trace_id;
    Bytes.set_int64_be b (header_bytes + 8) e.hlc);
  Bytes.blit_string t.payload 0 b (header_bytes + eb) len;
  Bytes.unsafe_to_string b

type header = {
  h_version : int;
  h_kind : kind;
  h_sender : int;
  h_round : int;
  h_ext_bytes : int;  (* 0 for v1, 16 for v2 *)
  h_payload_bytes : int;
}

let body_bytes h = h.h_ext_bytes + h.h_payload_bytes

(* The u32 field at [off] of the header at [pos], as a non-negative
   int (a value of 2^31 or more reads negative). *)
let u32 s pos off = Int32.to_int (String.get_int32_be s (pos + off))

(* Is the header at [pos] well formed (magic, version, tag, field
   ranges)?  Its 16 bytes must be there.  Allocates nothing. *)
let header_ok s pos =
  s.[pos] = 'C'
  && s.[pos + 1] = 'S'
  && (let version = Char.code s.[pos + 2] in
      version = current_version || version = ext_version)
  && Option.is_some (kind_of_tag (Char.code s.[pos + 3]))
  && u32 s pos 4 >= 0
  && u32 s pos 8 >= 0
  && (let len = u32 s pos 12 in
      len >= 0 && len <= max_payload_bytes)

let has_header s pos = pos >= 0 && String.length s - pos >= header_bytes

let decode_header ?(pos = 0) s =
  if not (has_header s pos && header_ok s pos) then None
  else
    match kind_of_tag (Char.code s.[pos + 3]) with
    | None -> None
    | Some k ->
      let version = Char.code s.[pos + 2] in
      Some
        {
          h_version = version;
          h_kind = k;
          h_sender = u32 s pos 4;
          h_round = u32 s pos 8;
          h_ext_bytes = ext_bytes_of_version version;
          h_payload_bytes = u32 s pos 12;
        }

let frame_bytes s ~pos =
  if not (has_header s pos && header_ok s pos) then -1
  else header_bytes + ext_bytes_of_version (Char.code s.[pos + 2]) + u32 s pos 12

(* The frame whose body (extension, then payload) starts at [body] in
   [s], its header fields already read: the payload is copied out
   once. *)
let frame_at ~version ~kind ~sender ~round s ~body ~payload_bytes =
  let ext =
    if version < ext_version then None
    else
      Some
        { trace_id = String.get_int64_be s body; hlc = String.get_int64_be s (body + 8) }
  in
  {
    version;
    kind;
    sender;
    round;
    ext;
    payload = String.sub s (body + ext_bytes_of_version version) payload_bytes;
  }

(* [body] is everything after the 16 header bytes: the extension (when
   the header claims version 2) immediately followed by the payload. *)
let of_header h ~body =
  if String.length body <> body_bytes h then None
  else
    Some
      (frame_at ~version:h.h_version ~kind:h.h_kind ~sender:h.h_sender
         ~round:h.h_round body ~body:0 ~payload_bytes:h.h_payload_bytes)

let decode_at s ~pos =
  let size = frame_bytes s ~pos in
  if size < 0 || String.length s - pos < size then None
  else
    match kind_of_tag (Char.code s.[pos + 3]) with
    | None -> None
    | Some kind ->
      Some
        (frame_at ~version:(Char.code s.[pos + 2]) ~kind ~sender:(u32 s pos 4)
           ~round:(u32 s pos 8) s ~body:(pos + header_bytes)
           ~payload_bytes:(u32 s pos 12))

let decode s = if frame_bytes s ~pos:0 <> String.length s then None else decode_at s ~pos:0

let pp ppf t =
  Format.fprintf ppf "%s[v%d from=%d round=%d %dB%s]" (kind_name t.kind)
    t.version t.sender t.round (String.length t.payload)
    (match t.ext with
    | None -> ""
    | Some e -> Printf.sprintf " trace=%Lx hlc=%Lx" e.trace_id e.hlc)
