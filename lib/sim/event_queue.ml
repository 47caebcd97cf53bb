(* Binary min-heap of timestamped events.

   Ties are broken by insertion sequence number so that simulation runs
   are fully deterministic. *)

type 'a t = {
  mutable heap : (int * int * 'a) array;  (* (time, seq, payload) *)
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy = { heap = Array.make 16 (0, 0, dummy); size = 0; next_seq = 0; dummy }

let is_empty t = t.size = 0
let length t = t.size

let before (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

let grow t =
  let bigger = Array.make (2 * Array.length t.heap) (0, 0, t.dummy) in
  Array.blit t.heap 0 bigger 0 t.size;
  t.heap <- bigger

let push t ~time payload =
  if t.size = Array.length t.heap then grow t;
  let item = (time, t.next_seq, payload) in
  t.next_seq <- t.next_seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- item;
  (* sift up *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let (time, _, payload) = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    Some (time, payload)
  end
