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

  let encode_vector_bin (v : F.t array) =
    let b = Bytes.create (vector_bytes ~dim:(Array.length v)) in
    Array.iteri
      (fun i x -> Bytes.set_int64_be b (i * elt_bytes) (Int64.of_int (F.to_int x)))
      v;
    Bytes.unsafe_to_string b

  (* Read one element at [off]; negative values and values beyond
     [max_int] (i.e. not representable in a native int) are rejected. *)
  let read_elt s off =
    let x = String.get_int64_be s off in
    if Int64.compare x 0L < 0 || Int64.compare x (Int64.of_int max_int) > 0
    then None
    else Some (F.of_int (Int64.to_int x))

  let decode_vector_bin_at s ~pos ~dim =
    let ok = ref true in
    let v =
      Array.init dim (fun i ->
          match read_elt s (pos + (i * elt_bytes)) with
          | Some x -> x
          | None ->
            ok := false;
            F.zero)
    in
    if !ok then Some v else None

  let decode_vector_bin ~dim s =
    if dim < 0 || String.length s <> vector_bytes ~dim then None
    else decode_vector_bin_at s ~pos:0 ~dim

  let encode_commands_bin (commands : F.t array array) =
    String.concat "" (Array.to_list (Array.map encode_vector_bin commands))

  let decode_commands_bin ~k ~dim s =
    if k < 0 || dim < 0 || String.length s <> commands_bytes ~k ~dim then None
    else begin
      (* total: a single bad row aborts the whole decode with [None]
         without ever forcing an option (R5) *)
      let rows = Array.make k [||] in
      let ok = ref true in
      for i = 0 to k - 1 do
        match decode_vector_bin_at s ~pos:(i * vector_bytes ~dim) ~dim with
        | Some row -> rows.(i) <- row
        | None -> ok := false
      done;
      if !ok then Some rows else None
    end

  (* Self-describing matrix (rows of possibly different widths): u32
     row count, then per row a u32 width followed by the elements.
     Used for the Output frame payload (K output rows + K next-state
     rows).  Caps bound the allocation a corrupted length claim can
     force before the exact-length check. *)

  let max_matrix_rows = 1 lsl 16
  let max_matrix_dim = 1 lsl 20

  let encode_matrix_bin (rows : F.t array array) =
    let buf = Buffer.create 64 in
    let u32 v =
      let b = Bytes.create 4 in
      Bytes.set_int32_be b 0 (Int32.of_int v);
      Buffer.add_bytes buf b
    in
    u32 (Array.length rows);
    Array.iter
      (fun row ->
        u32 (Array.length row);
        Buffer.add_string buf (encode_vector_bin row))
      rows;
    Buffer.contents buf

  let decode_matrix_bin s =
    let len = String.length s in
    let u32 pos =
      if pos + 4 > len then None
      else
        let v = Int32.to_int (String.get_int32_be s pos) in
        if v < 0 then None else Some v
    in
    match u32 0 with
    | None -> None
    | Some rows when rows > max_matrix_rows -> None
    | Some rows ->
      let out = Array.make rows [||] in
      let rec go i pos =
        if i = rows then if pos = len then Some out else None
        else
          match u32 pos with
          | None -> None
          | Some dim when dim > max_matrix_dim -> None
          | Some dim ->
            let body = pos + 4 in
            if body + vector_bytes ~dim > len then None
            else (
              match decode_vector_bin_at s ~pos:body ~dim with
              | None -> None
              | Some row ->
                out.(i) <- row;
                go (i + 1) (body + vector_bytes ~dim))
      in
      go 0 4
end
