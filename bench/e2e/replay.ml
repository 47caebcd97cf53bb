(* A replay of a cluster's rounds through the public calls of every
   layer on the round path, with no transport and no waiting: for each
   node, the frame codec, the wire codec, the flight recorder and the
   four engine phases, in the order the node runtime makes them, on one
   fresh engine per node.  Lying nodes perturb their broadcast exactly
   as [Node] does, so every node decodes what it would decode in the
   cluster.

   Every call runs under [probe ~round ~node], a [Scope.t] whose role is
   the layer's name.  The timed pass ([timed]) records each call as a
   span; the counted pass instantiates the replay on a
   [Counted] field and routes each layer's field operations to its own
   ledger role. *)

module Field_intf = Csm_field.Field_intf
module Frame = Csm_wire.Frame
module Params = Csm_core.Params
module Node = Csm_transport.Node
module Cluster = Csm_transport.Cluster
module Flight = Csm_obs.Flight
module Clock = Csm_obs.Clock
module Span = Csm_obs.Span
module Scope = Csm_metrics.Scope

module Make (F : Field_intf.S) = struct
  module C = Cluster.Make (F)
  module E = C.E
  module W = C.W

  (* A [Lie] node's broadcast, perturbed as [Node.run_round] does. *)
  let lie fault ~round g =
    match fault with
    | Node.Lie l when Node.lie_active l ~round -> (
      let off = F.of_int l.Node.l_offset in
      match l.Node.l_coord with
      | None -> Array.map (fun x -> F.add x off) g
      | Some c ->
        let g' = Array.copy g in
        if c >= 0 && c < Array.length g' then g'.(c) <- F.add g'.(c) off;
        g')
    | _ -> g

  (* Replays rounds 0 .. rounds-1.  [on_output ~round ~node p] receives
     each node's Output payload as the client would receive it, or
     [None] when the node's decode failed.  The client is node [n]. *)
  let run ~params ~seed ~faults ~rounds
      ~(probe : round:int -> node:int -> Scope.t) ~on_output =
    let n = params.Params.n and k = params.Params.k in
    let cfg =
      {
        C.params;
        rounds;
        seed;
        mode = Cluster.Loopback;
        faults;
        deadline = 0.0;
        trace = false;
        telemetry = false;
        stream = None;
        live = None;
      }
    in
    let machine = C.machine cfg and init = C.initial_states cfg in
    let engines = Array.init n (fun _ -> E.create ~machine ~params ~init) in
    let flights = Array.init (n + 1) (fun i -> Flight.create ~node:i ()) in
    let input_dim = machine.C.M.input_dim and dim = E.result_dim engines.(0) in
    let fault i = Option.value ~default:Node.Honest (List.assoc_opt i faults) in
    let peers i = List.filter (fun j -> j <> i) (List.init n Fun.id) in
    let trip kind ~sender ~round payload =
      match Frame.decode (Frame.encode (Frame.make ~kind ~sender ~round payload)) with
      | Some fr -> fr.Frame.payload
      | None -> failwith "Replay: a frame did not round-trip"
    in
    (* the untraced flight entries of Node.record_send and dispatch *)
    let record ~node ~peer ~round kind dir =
      let side = match dir with `Send -> "dst" | `Recv -> "src" in
      Flight.record flights.(node) ~trace:0L
        ~attrs:[ (side, string_of_int peer); ("frame", Frame.kind_name kind) ]
        ~hlc:(Clock.now ()) ~round
        (match dir with `Send -> "send" | `Recv -> "recv")
    in
    let own = Array.make n [||] and broadcast = Array.make n "" in
    let rng = Csm_rng.create seed in
    for r = 0 to rounds - 1 do
      let commands = C.workload rng ~k r in
      let client = probe ~round:r ~node:n in
      let cmd =
        client.Scope.run ~role:"replay.node" (fun () ->
            client.Scope.run ~role:"wire" (fun () -> W.encode_commands_bin commands))
      in
      (* commit phase: take the Command, echo it to every peer, take
         theirs, compute g and broadcast it *)
      for i = 0 to n - 1 do
        let p = probe ~round:r ~node:i in
        p.Scope.run ~role:"replay.node" (fun () ->
            let inbound =
              p.Scope.run ~role:"frame" (fun () ->
                  trip Frame.Command ~sender:n ~round:r cmd
                  :: List.map
                       (fun j -> trip Frame.Commit ~sender:j ~round:r cmd)
                       (peers i))
            in
            p.Scope.run ~role:"wire" (fun () ->
                List.iter
                  (fun pl ->
                    match W.decode_commands_bin ~k ~dim:input_dim pl with
                    | Some _ -> ()
                    | None -> failwith "Replay: command payload rejected")
                  inbound);
            p.Scope.run ~role:"obs" (fun () ->
                record ~node:n ~peer:i ~round:r Frame.Command `Send;
                record ~node:i ~peer:n ~round:r Frame.Command `Recv;
                List.iter
                  (fun j ->
                    record ~node:i ~peer:j ~round:r Frame.Commit `Send;
                    record ~node:i ~peer:j ~round:r Frame.Commit `Recv)
                  (peers i));
            let x =
              p.Scope.run ~role:"engine.encode" (fun () ->
                  E.node_encode_command engines.(i) ~node:i ~commands)
            in
            let g =
              p.Scope.run ~role:"engine.compute" (fun () ->
                  E.node_compute engines.(i) ~node:i ~coded_command:x)
            in
            own.(i) <- g;
            let sent = lie (fault i) ~round:r g in
            broadcast.(i) <-
              p.Scope.run ~role:"wire" (fun () -> W.encode_vector_bin sent))
      done;
      (* result phase: take the peers' results, decode, answer the
         client, re-encode the coded state *)
      for i = 0 to n - 1 do
        let p = probe ~round:r ~node:i in
        p.Scope.run ~role:"replay.node" (fun () ->
            let inbound =
              p.Scope.run ~role:"frame" (fun () ->
                  List.map
                    (fun j -> (j, trip Frame.Result ~sender:j ~round:r broadcast.(j)))
                    (peers i))
            in
            let theirs =
              p.Scope.run ~role:"wire" (fun () ->
                  List.map
                    (fun (j, pl) ->
                      match W.decode_vector_bin ~dim pl with
                      | Some g -> (j, g)
                      | None -> failwith "Replay: result payload rejected")
                    inbound)
            in
            let received =
              List.sort (fun (a, _) (b, _) -> Int.compare a b) ((i, own.(i)) :: theirs)
            in
            p.Scope.run ~role:"obs" (fun () ->
                List.iter
                  (fun j ->
                    record ~node:i ~peer:j ~round:r Frame.Result `Send;
                    record ~node:i ~peer:j ~round:r Frame.Result `Recv)
                  (peers i));
            match
              p.Scope.run ~role:"engine.decode" (fun () ->
                  E.decode_results engines.(i) received)
            with
            | None -> on_output ~round:r ~node:i None
            | Some d ->
              let out =
                p.Scope.run ~role:"wire" (fun () ->
                    W.encode_matrix_bin (Array.append d.E.outputs d.E.next_states))
              in
              let out =
                p.Scope.run ~role:"frame" (fun () ->
                    trip Frame.Output ~sender:i ~round:r out)
              in
              p.Scope.run ~role:"wire" (fun () ->
                  match W.decode_matrix_bin out with
                  | Some _ -> ()
                  | None -> failwith "Replay: output payload rejected");
              p.Scope.run ~role:"obs" (fun () ->
                  record ~node:i ~peer:n ~round:r Frame.Output `Send;
                  record ~node:n ~peer:i ~round:r Frame.Output `Recv);
              p.Scope.run ~role:"engine.reencode" (fun () ->
                  E.node_update_state engines.(i) ~node:i ~next_states:d.E.next_states);
              on_output ~round:r ~node:i (Some out))
      done
    done
end

(* The timed pass's probe: each call runs in a [Span] named after its
   layer, with attributes "round" and "node", and adds the minor-heap
   words it allocates to [words], per layer and round.  Span tracing
   must be on.  The library's own spans, such as "engine.decode" and
   "rs.fastpath", nest inside these and carry no "round" attribute. *)
let timed ~rounds =
  let words : (string, float array) Hashtbl.t = Hashtbl.create 8 in
  let probe ~round ~node =
    let attrs = [ ("round", string_of_int round); ("node", string_of_int node) ] in
    {
      Scope.run =
        (fun ~role f ->
          let w0 = Gc.minor_words () in
          let x = Span.with_ ~attrs ~name:role f in
          let a =
            match Hashtbl.find_opt words role with
            | Some a -> a
            | None ->
              let a = Array.make rounds 0.0 in
              Hashtbl.add words role a;
              a
          in
          a.(round) <- a.(round) +. (Gc.minor_words () -. w0);
          x);
      ops = (fun () -> (0, 0, 0));
    }
  in
  (probe, words)

(* Per round, the summed duration of [role]'s probe spans. *)
let times ~rounds records role =
  let t = Array.make rounds 0.0 in
  List.iter
    (fun (s : Span.record) ->
      if String.equal s.Span.name role then
        match Option.bind (List.assoc_opt "round" s.Span.attrs) int_of_string_opt with
        | Some r when r >= 0 && r < rounds -> t.(r) <- t.(r) +. s.Span.dur_s
        | _ -> ())
    records;
  t
