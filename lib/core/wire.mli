(** Deterministic fixed-width binary encoding of field-element vectors
    (8-byte big-endian per element): the [Csm_wire.Frame] payload format
    of the real transports, the simulator's byte accounting, and the
    value format of the simulated consensus protocols, which agree on
    exactly the bytes of the wire's Command frame.

    Every decoder is total and exact — out-of-range elements, trailing
    garbage, truncated or extended bodies yield [None], never an
    exception — and so is the one validator, which answers [false]
    where its decoder answers [None].  Encoders write one exact-size
    buffer; decoders allocate only the result of an input they have
    checked whole. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) : sig
  val elt_bytes : int
  (** 8: each element is one big-endian u64. *)

  val vector_bytes : dim:int -> int
  (** Exact payload size of an encoded [dim]-vector — the value the
      simulator's [?size] sizers feed to [Csm_wire.Frame.encoded_size]. *)

  val commands_bytes : k:int -> dim:int -> int

  val encode_vector_bin : F.t array -> string
  val decode_vector_bin : dim:int -> string -> F.t array option

  val encode_commands_bin : F.t array array -> string
  val decode_commands_bin : k:int -> dim:int -> string -> F.t array array option

  val valid_commands_bin : k:int -> dim:int -> string -> bool
  (** [true] exactly when [decode_commands_bin ~k ~dim s] is [Some _]:
      the check alone, for a payload that is compared rather than used
      (a Commit echo).  Total, and allocates nothing. *)

  val encode_matrix_bin : F.t array array -> string
  (** Self-describing rows of possibly different widths (the Output
      frame payload: K output rows followed by K next-state rows). *)

  val decode_matrix_bin : string -> F.t array array option
  (** Checks the whole input (row count against its length, each row's
      width and elements) before it allocates: a short payload that
      claims many rows costs nothing. *)
end
