(* The coded execution engine (Section 5.2), network-free.

   One round:
     1. every node i forms its coded command X̃ᵢ = Σₖ c_{ik} Xₖ (O(K) per
        coordinate);
     2. node i computes gᵢ = f(S̃ᵢ, X̃ᵢ) ∈ F^{state_dim + output_dim} —
        coordinate j of gᵢ is the evaluation at αᵢ of the univariate
        polynomial h_j(z) = f_j(u_t(z), v_t(z)) of degree ≤ d(K−1);
     3. Byzantine nodes report arbitrary vectors; withheld vectors model
        the partially synchronous setting;
     4. decoding: per coordinate, Reed–Solomon decode the received
        (αᵢ, gᵢ[j]) pairs with dimension d(K−1)+1, then evaluate the
        recovered h_j at ω₁..ω_K and split into next states and outputs;
     5. every node re-encodes its coded state from the decoded next
        states: S̃ᵢ(t+1) = Σₖ c_{ik} Ŝₖ(t+1).

   The engine is deterministic and exposes each phase separately so the
   network protocol driver, the INTERMIX delegation layer, and the
   measurement harnesses can reuse the same verified pieces. *)

module Field_intf = Csm_field.Field_intf
module Scope = Csm_metrics.Scope
module Span = Csm_obs.Span
module Metric = Csm_obs.Metric
module Tel = Csm_obs.Telemetry

module Make (F : Field_intf.S) = struct
  module Coding = Coding.Make (F)
  module M = Csm_machine.Machine.Make (F)
  module RS = Csm_rs.Reed_solomon.Make (F)

  type t = {
    machine : M.t;
    params : Params.t;
    coding : Coding.t;
    mutable coded_states : F.t array array;  (* n × state_dim *)
    mutable round_index : int;
    rs_ctxs : (int list, RS.fast_ctx) Hashtbl.t;
        (* optimistic-decode precomputations, keyed by the reporting
           node ids in received order.  A quorum wait decodes from
           whichever nodes answered first, so a few sets recur round
           after round (Remark 4).  At most n, cleared when full *)
    scratch : scratch;
  }

  (* The early decode's room, reused by every call: the points and
     vectors of the results it verifies, and RS's matrices over them.
     The early reporter sets change from round to round, so a context
     per set would be built per call, or would evict the full-quorum
     contexts from [rs_ctxs]. *)
  and scratch = {
    sc_rs : RS.scratch;
    sc_points : F.t array;  (* n *)
    sc_rows : F.t array array;  (* n *)
  }

  let result_dim t = t.machine.M.state_dim + t.machine.M.output_dim

  let create ~machine ~params ~init =
    let open Params in
    if Array.length init <> params.k then
      invalid_arg "Engine.create: need K initial states";
    if M.degree machine > params.d then
      invalid_arg "Engine.create: machine degree exceeds params.d";
    if not (valid params) then invalid_arg "Engine.create: infeasible params";
    let coding = Coding.create ~n:params.n ~k:params.k in
    {
      machine;
      params;
      coding;
      coded_states = Coding.encode_vectors coding init;
      round_index = 0;
      rs_ctxs = Hashtbl.create 8;
      scratch =
        {
          sc_rs =
            RS.scratch
              ~k:(Params.code_dimension ~k:params.k ~d:params.d)
              ~n:params.n
              ~words:(machine.M.state_dim + machine.M.output_dim);
          sc_points = Array.make params.n F.zero;
          sc_rows = Array.make params.n [||];
        };
    }

  let coded_state t ~node = t.coded_states.(node)

  (* Step 1 (per node). *)
  let node_encode_command ?(scope = Scope.null) t ~node ~commands =
    Scope.node scope node (fun () ->
        Coding.encode_vector_at t.coding ~node commands)

  (* Step 2 (per node): gᵢ = f(S̃ᵢ, X̃ᵢ), next-state part first. *)
  let node_compute ?(scope = Scope.null) t ~node ~coded_command =
    Scope.node scope node (fun () ->
        let s', y =
          M.step t.machine ~state:t.coded_states.(node) ~input:coded_command
        in
        Array.append s' y)

  type decoded = {
    next_states : F.t array array;  (* k × state_dim *)
    outputs : F.t array array;  (* k × output_dim *)
    error_nodes : int list;  (* nodes whose reported results were wrong *)
    polys : RS.P.t array;  (* h_j, one per coordinate of gᵢ *)
  }

  (* Decode received (sender, vector) pairs coordinate by coordinate:
     coordinate j is the Reed–Solomon word (xs.(i), (snd recv.(i)).(j))
     of dimension [k].  A
     vector is one message from one sender, so a liar's errors sit at
     the same positions in every coordinate it touches.  Once a
     coordinate returns errors, its agreement set A (at least n − e
     positions) is where every later coordinate is verified, by
     [RS.decode_on] over a context for A's points built here, once per
     call: a candidate that explains all of A is that coordinate's
     unique decode.  A coordinate that does not verify on A (a liar
     that told the truth on the first faulty coordinate) takes the full
     decode.  Each result equals per-coordinate [RS.decode]'s, and every
     coordinate is decoded, even after one fails.  [Gao] decodes each
     coordinate on its own, as the reference. *)
  let decode_vectors ~algorithm ?ctx ~k xs (recv : (int * F.t array) array) ~dim =
    let located = ref None in
    Array.init dim (fun j ->
        let pairs = Array.mapi (fun i x -> (x, (snd recv.(i)).(j))) xs in
        let verified =
          match !located with
          | Some (on, actx) -> RS.decode_on ~ctx:actx ~on ~k pairs
          | None -> None
        in
        if Option.is_some verified then verified
        else begin
          let d = RS.decode ~algorithm ?ctx ~k pairs in
          (match (!located, algorithm, d) with
          | None, RS.Optimistic, Some { RS.errors = _ :: _; agreement; _ } ->
            let on = Array.of_list agreement in
            located :=
              Some (on, RS.prepare_fast ~k (Array.map (fun i -> xs.(i)) on))
          | _ -> ());
          d
        end)

  (* The received results' evaluation points, in received order. *)
  let points t recv = Array.map (fun (node, _) -> t.coding.Coding.alphas.(node)) recv

  (* Register each reporter's csm_node_suspicion gauge, so an
     exposition lists every reporting node, at zero until a decode
     blames it.  The decode never reads them. *)
  let register_reporters received =
    if Metric.enabled () then
      List.iter (fun (node, _) -> ignore (Tel.node_suspicion ~node)) received

  (* Coordinate decodes to a round's decode: evaluate each h_j at the ωs
     and split them into next states and outputs, and map the error
     positions (indices into [recv]) to node ids.  [None] when any
     coordinate failed. *)
  let assemble t recv (coords : RS.decoded option array) =
    let sd = t.machine.M.state_dim in
    let next_states = Array.init t.params.Params.k (fun _ -> Array.make sd F.zero) in
    let outputs =
      Array.init t.params.Params.k (fun _ -> Array.make t.machine.M.output_dim F.zero)
    in
    let polys = Array.make (Array.length coords) RS.P.zero in
    let errors = ref [] in
    Array.iteri
      (fun j -> function
        | None -> ()
        | Some d ->
          List.iter
            (fun idx ->
              let node, _ = recv.(idx) in
              if not (List.mem node !errors) then errors := node :: !errors)
            d.RS.errors;
          polys.(j) <- d.RS.poly;
          Array.iteri
            (fun k v ->
              if j < sd then next_states.(k).(j) <- v else outputs.(k).(j - sd) <- v)
            (Coding.eval_at_omegas t.coding d.RS.poly))
      coords;
    if Array.for_all Option.is_some coords then
      Some { next_states; outputs; error_nodes = List.sort Int.compare !errors; polys }
    else None

  (* Step 4: decode from the received results ((node, vector) pairs;
     missing nodes model withholding).  Attributed to [role].

     The algorithm defaults to [RS.Optimistic], which shares one
     [RS.fast_ctx] across all coordinates and rounds, cached on the
     engine per set of reporting nodes and built the first time that
     set reports; its Gao fallback's tree is built the first time the
     set's round has a lie.  The coordinates go through
     [decode_vectors]: a faulty round locates its liars once. *)
  let decode_results ?(scope = Scope.null) ?(role = "decoder")
      ?(algorithm = RS.Optimistic) t (received : (int * F.t array) list) :
      decoded option =
    Span.with_ ~ops:scope.Scope.ops ~name:"engine.decode" (fun () ->
    scope.Scope.run ~role (fun () ->
        let dim = result_dim t in
        let kdim = Params.code_dimension ~k:t.params.Params.k ~d:t.params.Params.d in
        let recv = Array.of_list received in
        let xs = points t recv in
        let ctx =
          match algorithm with
          | RS.Optimistic when Array.length xs >= kdim -> (
            let key = List.map fst received in
            match Hashtbl.find_opt t.rs_ctxs key with
            | Some c -> Some c
            | None ->
              if Hashtbl.length t.rs_ctxs >= t.params.Params.n then
                Hashtbl.reset t.rs_ctxs;
              let c = RS.prepare_fast ~k:kdim xs in
              Hashtbl.replace t.rs_ctxs key c;
              Some c)
          | _ -> None
        in
        register_reporters received;
        assemble t recv (decode_vectors ~algorithm ?ctx ~k:kdim xs recv ~dim)))

  (* Fewest results from which decoding corrects b lies: m with
     2b + 1 <= m - d(K-1).  Any results beyond this are straggler
     slack (the coded-computing latency win). *)
  let min_results t =
    Params.composite_degree ~k:t.params.Params.k ~d:t.params.Params.d
    + (2 * t.params.Params.b) + 1

  (* How many senders the early decode drops: the [convicted] ones
     while they number c ≤ b, none once more are.  A conviction is sound
     when the faulty set is fixed with at most b members, so the rest
     then hold at most b−c liars.  A node that has convicted more than b
     is outside the model and drops none. *)
  let dropped_count t (convicted : bool array) =
    let c = ref 0 in
    for j = 0 to Array.length convicted - 1 do
      if convicted.(j) then incr c
    done;
    if !c <= t.params.Params.b then !c else 0

  (* Fewest results whose agreement fixes the decode: d(K−1)+(b−c)+1
     from senders outside the c excluded ones.  If that many lie on one
     polynomial of degree ≤ d(K−1), at most b−c of them lie, so at least
     d(K−1)+1 are honest and the polynomial is the honest h_j.  A node
     decodes at this many when they agree and waits for [min_results]
     only when they do not. *)
  let early_of t c =
    Params.composite_degree ~k:t.params.Params.k ~d:t.params.Params.d
    + (t.params.Params.b - c) + 1

  let early_results t ~convicted = early_of t (dropped_count t convicted)

  (* A decode whose coordinate polynomials are [polys] and which found
     no error: each h_j evaluated at the ωs and split into next states
     and outputs, as [assemble] does. *)
  let clean_decode t polys =
    let sd = t.machine.M.state_dim and k = t.params.Params.k in
    let next_states = Array.make k [||] and outputs = Array.make k [||] in
    for i = 0 to k - 1 do
      next_states.(i) <- Array.make sd F.zero;
      outputs.(i) <- Array.make t.machine.M.output_dim F.zero
    done;
    for j = 0 to Array.length polys - 1 do
      let vs = Coding.eval_at_omegas t.coding polys.(j) in
      for i = 0 to k - 1 do
        if j < sd then next_states.(i).(j) <- vs.(i) else outputs.(i).(j - sd) <- vs.(i)
      done
    done;
    { next_states; outputs; error_nodes = []; polys }

  (* Decode on agreement over the first [count] results of [senders] /
     [vectors]: [Some] only when at least [early_results] of them come
     from unexcluded senders and every coordinate's values among those
     lie on one polynomial of degree ≤ d(K−1), checked by RS's fast path
     alone on the engine's scratch.  No fallback: on [None] the caller
     waits for [min_results] and calls [decode_results]. *)
  let verify_into t ~convicted ~senders ~vectors ~count =
    let c = dropped_count t convicted in
    let sc = t.scratch in
    let m = ref 0 in
    for i = 0 to count - 1 do
      let node = senders.(i) in
      if not (c > 0 && convicted.(node)) then begin
        sc.sc_points.(!m) <- t.coding.Coding.alphas.(node);
        sc.sc_rows.(!m) <- vectors.(i);
        incr m
      end
    done;
    let verified =
      if !m < early_of t c then None
      else
        RS.verify_columns sc.sc_rs ~points:sc.sc_points ~rows:sc.sc_rows ~m:!m
          ~dim:(result_dim t)
    in
    Array.fill sc.sc_rows 0 !m [||];
    match verified with
    | None -> None
    | Some polys ->
      if Metric.enabled () then
        for i = 0 to count - 1 do
          ignore (Tel.node_suspicion ~node:senders.(i))
        done;
      Some (clean_decode t polys)

  let verify_results t ~convicted ~senders ~vectors ~count =
    if Span.enabled () then
      Span.with_ ~name:"engine.verify" (fun () ->
          verify_into t ~convicted ~senders ~vectors ~count)
    else verify_into t ~convicted ~senders ~vectors ~count

  (* Does [node]'s vector [g] agree with [d]'s coordinate polynomials at
     its point?  Stops at the first coordinate that does not. *)
  let agrees t d node g =
    let x = t.coding.Coding.alphas.(node) in
    Array.length g = Array.length d.polys
    && begin
      let ok = ref true and j = ref 0 in
      while !ok && !j < Array.length g do
        if F.equal (RS.P.eval d.polys.(!j) x) g.(!j) then incr j else ok := false
      done;
      !ok
    end

  (* The senders among the first [count] results whose vectors
     disagree with [d]'s coordinate polynomials at their points: the
     liars of a decoded round, however many of its results the decode
     itself saw. *)
  let liars t d ~senders ~vectors ~count =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) (if agrees t d senders.(i) vectors.(i) then acc else senders.(i) :: acc)
    in
    go (count - 1) []

  (* Step 5 (per node): re-encode the coded state. *)
  let node_update_state ?(scope = Scope.null) t ~node ~next_states =
    Scope.node scope node (fun () ->
        t.coded_states.(node) <-
          Coding.encode_vector_at t.coding ~node next_states)

  type corruption = node:int -> F.t array -> F.t array

  let default_corruption : corruption =
   fun ~node:_ g -> Array.map (fun v -> F.add v F.one) g

  type round_report = {
    decoded : decoded option;  (* None = decoding failed (too many faults) *)
    computed : F.t array array;  (* raw gᵢ as reported (post-corruption) *)
  }

  (* A full decentralized round.  [byzantine] nodes report corrupted
     vectors; [withheld] nodes report nothing (partial sync).  Honest
     decoding is attributed to [decode_role] (callers measuring per-node
     decode cost run it once per node; honest nodes reconstruct identical
     polynomials).  On success the engine advances every node's coded
     state (Byzantine nodes' storage doesn't matter: their future lies
     are arbitrary anyway). *)
  let round ?(scope = Scope.null) ?algorithm
      ?(corruption = default_corruption) ?(withheld = fun _ -> false)
      ?(decode_role = "decoder") t ~commands ~byzantine () : round_report =
    let n = t.params.Params.n in
    if Array.length commands <> t.params.Params.k then
      invalid_arg "Engine.round: need K commands";
    Span.with_ ~ops:scope.Scope.ops ~name:"engine.round" (fun () ->
    (* steps 1–2 at every node, each phase under its own span.  The
       [corruption] callback is user code (it may be stateful, e.g. an
       RNG), so it is applied afterwards in node order. *)
    let coded_commands =
      Span.with_ ~ops:scope.Scope.ops ~name:"engine.encode" (fun () ->
          Array.init n (fun i ->
              node_encode_command ~scope t ~node:i ~commands))
    in
    let computed =
      Span.with_ ~ops:scope.Scope.ops ~name:"engine.compute" (fun () ->
          Array.init n (fun i ->
              node_compute ~scope t ~node:i
                ~coded_command:coded_commands.(i)))
    in
    Array.iteri
      (fun i g -> if byzantine i then computed.(i) <- corruption ~node:i g)
      computed;
    (* step 3–4: collect non-withheld results, decode *)
    let received =
      List.filter_map
        (fun i -> if withheld i then None else Some (i, computed.(i)))
        (List.init n (fun i -> i))
    in
    let decoded = decode_results ~scope ~role:decode_role ?algorithm t received in
    (* step 5: every node re-encodes its own coded-state slot *)
    (match decoded with
    | Some d ->
      Span.with_ ~ops:scope.Scope.ops ~name:"engine.reencode" (fun () ->
          for i = 0 to n - 1 do
            node_update_state ~scope t ~node:i ~next_states:d.next_states
          done);
      t.round_index <- t.round_index + 1
    | None -> ());
    { decoded; computed })

  (* Ground-truth check used by tests: the coded states must remain the
     coordinate-wise Lagrange encoding of the reference states. *)
  let consistent_with t ~states =
    let expect = Coding.encode_vectors t.coding states in
    let eq a b =
      Array.length a = Array.length b
      && (let r = ref true in
          Array.iteri (fun i x -> if not (F.equal x b.(i)) then r := false) a;
          !r)
    in
    let all = ref true in
    Array.iteri
      (fun i v -> if not (eq v t.coded_states.(i)) then all := false)
      expect;
    !all

  (* Storage accounting (field elements per node): a single coded state. *)
  let storage_per_node t = t.machine.M.state_dim

  (* Node recovery / regeneration: a node that lost its coded state
     rebuilds it from other nodes' coded states.  The peers' states
     S̃ⱼ = u(αⱼ) are evaluations of the degree-(K−1) state polynomial, so
     they form a Reed-Solomon codeword of dimension K: with m reports of
     which up to b are lies, decoding needs 2b + 1 <= m - (K-1).  A
     peer's state is one message, so its lies are located once, as in
     [decode_results] ([decode_vectors], over one context per call).
     The recovered polynomial is evaluated at the joining node's
     point. *)
  let recover_coded_state t ~node ~(reports : (int * F.t array) list) =
    let kdim = t.params.Params.k in
    let recv = Array.of_list reports in
    let xs = Array.map (fun (peer, _) -> t.coding.Coding.alphas.(peer)) recv in
    let ctx =
      if Array.length xs >= kdim then Some (RS.prepare_fast ~k:kdim xs) else None
    in
    let coords =
      decode_vectors ~algorithm:RS.Optimistic ?ctx ~k:kdim xs recv
        ~dim:t.machine.M.state_dim
    in
    let out = Array.make (Array.length coords) F.zero in
    Array.iteri
      (fun j -> function
        | None -> ()
        | Some d -> out.(j) <- RS.P.eval d.RS.poly t.coding.Coding.alphas.(node))
      coords;
    if Array.for_all Option.is_some coords then Some out else None

  let recover_node t ~node ~reports =
    match recover_coded_state t ~node ~reports with
    | None -> false
    | Some s ->
      t.coded_states.(node) <- s;
      true
end
