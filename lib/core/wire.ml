(* Wire serialization of field-element vectors: a fixed-width binary
   encoding (8-byte big-endian per element).  It is the one format for
   field vectors: [Csm_wire.Frame] payloads on the real transports, the
   simulator's byte accounting, and the byte strings the simulated
   consensus protocols agree on (a round's command proposal is exactly
   the payload of the wire's Command frame).

   Every decoder is total and exact: inputs with trailing garbage,
   out-of-range elements, truncated or extended bodies yield [None] and
   never raise — a Byzantine peer must not be able to crash a decoder. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) = struct
  let elt_bytes = 8
  let vector_bytes ~dim = dim * elt_bytes
  let commands_bytes ~k ~dim = k * vector_bytes ~dim

  (* Encoders write one exact-size [Bytes] in place; decoders check the
     whole input (length, then every element's range) before they
     allocate, then read it once into the result.  So a rejected input
     costs no allocation, and an accepted one costs its arrays. *)

  let write_vector b pos (v : F.t array) =
    for i = 0 to Array.length v - 1 do
      Bytes.set_int64_be b (pos + (i * elt_bytes)) (Int64.of_int (F.to_int v.(i)))
    done

  let encode_vector_bin (v : F.t array) =
    let b = Bytes.create (vector_bytes ~dim:(Array.length v)) in
    write_vector b 0 v;
    Bytes.unsafe_to_string b

  (* An element is a u64 from 0 to [max_int]: negative values and
     values beyond [max_int] (not representable in a native int) are
     rejected. *)
  let max_elt = Int64.of_int max_int

  (* Are the elements from [pos] up to [stop] all in range?  Allocates
     nothing. *)
  let rec elts_in_range s pos stop =
    pos >= stop
    || (let x = String.get_int64_be s pos in
        x >= 0L && x <= max_elt && elts_in_range s (pos + elt_bytes) stop)

  (* The [dim] elements at [pos], already checked in range. *)
  let read_vector s pos dim =
    let v = Array.make dim F.zero in
    for i = 0 to dim - 1 do
      v.(i) <- F.of_int (Int64.to_int (String.get_int64_be s (pos + (i * elt_bytes))))
    done;
    v

  let decode_vector_bin ~dim s =
    if dim < 0 || String.length s <> vector_bytes ~dim then None
    else if elts_in_range s 0 (String.length s) then Some (read_vector s 0 dim)
    else None

  let encode_commands_bin (commands : F.t array array) =
    let total = Array.fold_left (fun n c -> n + Array.length c) 0 commands in
    let b = Bytes.create (vector_bytes ~dim:total) in
    let pos = ref 0 in
    for i = 0 to Array.length commands - 1 do
      write_vector b !pos commands.(i);
      pos := !pos + vector_bytes ~dim:(Array.length commands.(i))
    done;
    Bytes.unsafe_to_string b

  let valid_commands_bin ~k ~dim s =
    k >= 0 && dim >= 0
    && String.length s = commands_bytes ~k ~dim
    && elts_in_range s 0 (String.length s)

  let decode_commands_bin ~k ~dim s =
    if not (valid_commands_bin ~k ~dim s) then None
    else begin
      let rows = Array.make k [||] in
      for i = 0 to k - 1 do
        rows.(i) <- read_vector s (i * vector_bytes ~dim) dim
      done;
      Some rows
    end

  (* Self-describing matrix (rows of possibly different widths): u32
     row count, then per row a u32 width followed by the elements.
     Used for the Output frame payload (K output rows + K next-state
     rows).  Caps bound what a length claim may name; the decoder
     allocates only for an input it has checked whole. *)

  let max_matrix_rows = 1 lsl 16
  let max_matrix_dim = 1 lsl 20

  let encode_matrix_bin (rows : F.t array array) =
    let size =
      Array.fold_left (fun n row -> n + 4 + vector_bytes ~dim:(Array.length row)) 4 rows
    in
    let b = Bytes.create size in
    Bytes.set_int32_be b 0 (Int32.of_int (Array.length rows));
    let pos = ref 4 in
    for i = 0 to Array.length rows - 1 do
      let row = rows.(i) in
      Bytes.set_int32_be b !pos (Int32.of_int (Array.length row));
      write_vector b (!pos + 4) row;
      pos := !pos + 4 + vector_bytes ~dim:(Array.length row)
    done;
    Bytes.unsafe_to_string b

  (* The u32 at [pos] when it is there and below 2^31, else -1. *)
  let u32_at s pos =
    if pos + 4 > String.length s then -1
    else
      let v = Int32.to_int (String.get_int32_be s pos) in
      if v < 0 then -1 else v

  (* Do rows [i] to [rows - 1], the first at [pos], fill [s] to its end
     exactly, each within [max_matrix_dim] and in range?  Allocates
     nothing. *)
  let rec matrix_rows_ok s i rows pos =
    if i = rows then pos = String.length s
    else
      let dim = u32_at s pos in
      dim >= 0 && dim <= max_matrix_dim
      && (let body = pos + 4 in
          let stop = body + vector_bytes ~dim in
          stop <= String.length s
          && elts_in_range s body stop
          && matrix_rows_ok s (i + 1) rows stop)

  let decode_matrix_bin s =
    let rows = u32_at s 0 in
    (* every row takes at least its 4-byte width: a count the input
       cannot hold is refused before anything is allocated *)
    if rows < 0 || rows > max_matrix_rows || String.length s < 4 + (4 * rows) then None
    else if not (matrix_rows_ok s 0 rows 4) then None
    else begin
      let out = Array.make rows [||] in
      let pos = ref 4 in
      for i = 0 to rows - 1 do
        let dim = u32_at s !pos in
        out.(i) <- read_vector s (!pos + 4) dim;
        pos := !pos + 4 + vector_bytes ~dim
      done;
      Some out
    end
end
