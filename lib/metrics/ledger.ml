(* Per-role cost ledger.

   A protocol run attributes field-operation counts to named roles
   ("node 3", "worker", "auditor 1", "commoner", ...).  The throughput
   metric of the paper averages the per-node execution-phase cost over the
   network, so the ledger keeps one counter per role and can aggregate.

   Role lookup is mutex-protected: roles may be resolved from several
   threads or domains at once (counter increments themselves are
   atomic, see [Counter]). *)

type t = {
  table : (string, Counter.t) Hashtbl.t;
  lock : Mutex.t;
}

let create () = { table = Hashtbl.create 16; lock = Mutex.create () }

let counter t role =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table role with
      | Some c -> c
      | None ->
        let c = Counter.create () in
        Hashtbl.add t.table role c;
        c)

let node_role i = Printf.sprintf "node-%d" i

let node t i = counter t (node_role i)

let roles t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.table [])
  |> List.sort String.compare

let total t role =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table role) with
  | Some c -> Counter.total c
  | None -> 0

let grand_total t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ c acc -> acc + Counter.total c) t.table 0)

(* Unweighted (adds, muls, invs) totals across every role: the span
   tracer samples this at span start/end to attribute exact op deltas
   to pipeline phases, whatever roles the work lands on. *)
let op_totals t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun _ c (a, m, i) ->
          (a + Counter.adds c, m + Counter.muls c, i + Counter.invs c))
        t.table (0, 0, 0))

let reset t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter (fun _ c -> Counter.reset c) t.table)

(* Throughput per the paper's definition (Section 2.2):
   λ = K / ((Σ_{i=1..N} per-node cost) / N).
   [node_costs] are the execution-phase operation counts of the N nodes
   (including any worker/auditor overhead attributed to them). *)
let throughput ~commands ~node_costs =
  let n = Array.length node_costs in
  if n = 0 then 0.0
  else begin
    let sum = Array.fold_left ( + ) 0 node_costs in
    if sum = 0 then infinity
    else float_of_int commands /. (float_of_int sum /. float_of_int n)
  end

let per_node_costs t ~n =
  Array.init n (fun i -> total t (node_role i))

let pp ppf t =
  let rs = roles t in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s %a@," r Counter.pp (counter t r))
    rs;
  Format.fprintf ppf "@]"
