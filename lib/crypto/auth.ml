(* Simulated authentication (the "authenticated Byzantine faults" model).

   The paper assumes messages are cryptographically signed so that
   "impersonating others' messages is easily detectable".  We realize
   this as an ideal functionality: a keyring holds one secret per node;
   signing MACs the message under the signer's secret (MD5 over
   secret ‖ message), and verification recomputes.  In the simulation the
   verifier legitimately holds the keyring — this models a PKI where
   verification is public — while Byzantine *protocol* code only ever
   receives [signer] capabilities for its own identities, so forging
   another node's signature is impossible by construction. *)

type signature = string (* 16-byte MD5 digest *)

type keyring = { secrets : string array }

type signer = { id : int; secret : string }

let create_keyring rng ~n =
  let secrets =
    Array.init n (fun i ->
        (* 128 bits of deterministic secret material per node *)
        Printf.sprintf "%016Lx%016Lx-%d" (Csm_rng.next_int64 rng)
          (Csm_rng.next_int64 rng) i)
  in
  { secrets }

let size k = Array.length k.secrets

let signer k id =
  if id < 0 || id >= size k then invalid_arg "Auth.signer: bad id";
  { id; secret = k.secrets.(id) }

let mac secret message = Digest.string (secret ^ "|" ^ message)

let sign (s : signer) message : signature = mac s.secret message

let verify k ~id message (sg : signature) =
  if id < 0 || id >= size k then false
  else String.equal sg (mac k.secrets.(id) message)

(* ----- Simulated VRF (for secret committee election, Section 6.1) -----

   vrf_eval(sk, input) = (value ∈ [0,1), proof); the proof is the MAC
   itself, so verification recomputes the value from the claimed node's
   secret.  Unpredictable before reveal (the adversary lacks the
   secret), verifiable after — the two properties the paper uses. *)

type vrf_proof = { node : int; output : string }

let vrf_eval (s : signer) ~input =
  let output = mac s.secret ("vrf|" ^ input) in
  (* first 7 bytes -> uniform float in [0,1) *)
  let v = ref 0.0 in
  for i = 0 to 6 do
    v := (!v *. 256.0) +. float_of_int (Char.code output.[i])
  done;
  let value = !v /. (256.0 ** 7.0) in
  (value, { node = s.id; output })

let vrf_verify k ~input (proof : vrf_proof) =
  if proof.node < 0 || proof.node >= size k then None
  else begin
    let expect = mac k.secrets.(proof.node) ("vrf|" ^ input) in
    if not (String.equal expect proof.output) then None
    else begin
      let v = ref 0.0 in
      for i = 0 to 6 do
        v := (!v *. 256.0) +. float_of_int (Char.code expect.[i])
      done;
      Some (!v /. (256.0 ** 7.0))
    end
  end
