(* Dense linear algebra over a finite field.

   Matrices are arrays of rows.  Gaussian elimination is the engine of
   the Berlekamp–Welch decoder; matrix–vector products are the object
   INTERMIX verifies; Vandermonde builders produce the evaluation
   matrices of equations (8) and (9) in the paper. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) = struct
  type vec = F.t array
  type mat = F.t array array

  let rows (m : mat) = Array.length m
  let cols (m : mat) = if Array.length m = 0 then 0 else Array.length m.(0)

  let init_mat r c f : mat = Array.init r (fun i -> Array.init c (fun j -> f i j))

  let copy_mat (m : mat) : mat = Array.map Array.copy m

  let identity n : mat =
    init_mat n n (fun i j -> if i = j then F.one else F.zero)

  let transpose (m : mat) : mat =
    init_mat (cols m) (rows m) (fun i j -> m.(j).(i))

  let mat_vec (m : mat) (x : vec) : vec =
    Array.map
      (fun row ->
        let acc = ref F.zero in
        Array.iteri (fun j a -> acc := F.add !acc (F.mul a x.(j))) row;
        !acc)
      m

  let dot (a : vec) (b : vec) =
    let acc = ref F.zero in
    Array.iteri (fun i x -> acc := F.add !acc (F.mul x b.(i))) a;
    !acc

  let mat_mul (a : mat) (b : mat) : mat =
    let n = rows a and m = cols b and k = cols a in
    if k <> rows b then invalid_arg "Linalg.mat_mul: dimension mismatch";
    init_mat n m (fun i j ->
        let acc = ref F.zero in
        for l = 0 to k - 1 do
          acc := F.add !acc (F.mul a.(i).(l) b.(l).(j))
        done;
        !acc)

  let vec_add (a : vec) (b : vec) : vec = Array.mapi (fun i x -> F.add x b.(i)) a

  let vec_equal (a : vec) (b : vec) =
    Array.length a = Array.length b
    && (let ok = ref true in
        Array.iteri (fun i x -> if not (F.equal x b.(i)) then ok := false) a;
        !ok)

  (* In-place row reduction to row-echelon form of [a | b] where b may be
     empty.  Returns the list of pivot columns. *)
  let row_reduce (m : mat) =
    let r = rows m and c = cols m in
    let pivots = ref [] in
    let row = ref 0 in
    let col = ref 0 in
    while !row < r && !col < c do
      (* find a pivot in this column *)
      let piv = ref (-1) in
      for i = !row to r - 1 do
        if !piv < 0 && not (F.is_zero m.(i).(!col)) then piv := i
      done;
      if !piv < 0 then incr col
      else begin
        let tmp = m.(!row) in
        m.(!row) <- m.(!piv);
        m.(!piv) <- tmp;
        let inv = F.inv m.(!row).(!col) in
        for j = !col to c - 1 do
          m.(!row).(j) <- F.mul m.(!row).(j) inv
        done;
        for i = 0 to r - 1 do
          if i <> !row && not (F.is_zero m.(i).(!col)) then begin
            let f = m.(i).(!col) in
            for j = !col to c - 1 do
              m.(i).(j) <- F.sub m.(i).(j) (F.mul f m.(!row).(j))
            done
          end
        done;
        pivots := !col :: !pivots;
        incr row;
        incr col
      end
    done;
    List.rev !pivots

  let rank (m : mat) =
    let m = copy_mat m in
    List.length (row_reduce m)

  (* Solve A x = b.  Returns [None] when inconsistent; when the system is
     underdetermined, free variables are set to zero (any solution is
     acceptable for Berlekamp–Welch). *)
  let solve (a : mat) (b : vec) : vec option =
    let r = rows a and c = cols a in
    if Array.length b <> r then invalid_arg "Linalg.solve: dimension mismatch";
    let aug = init_mat r (c + 1) (fun i j -> if j < c then a.(i).(j) else b.(i)) in
    let pivots = row_reduce aug in
    (* Inconsistent iff some pivot lands in the augmented column. *)
    if List.exists (fun p -> p = c) pivots then None
    else begin
      let x = Array.make c F.zero in
      List.iteri
        (fun row_idx col_idx -> x.(col_idx) <- aug.(row_idx).(c))
        pivots;
      (* Correct pivot variables for free-variable contributions: with
         free vars set to zero, the echelon rows give the pivot values
         directly minus Σ (coeff · free) = value, so nothing to adjust. *)
      Some x
    end

  let inverse (m : mat) : mat option =
    let n = rows m in
    if cols m <> n then invalid_arg "Linalg.inverse: not square";
    let aug = init_mat n (2 * n) (fun i j ->
        if j < n then m.(i).(j)
        else if j - n = i then F.one
        else F.zero)
    in
    let pivots = row_reduce aug in
    if List.length pivots <> n || List.exists (fun p -> p >= n) pivots then None
    else Some (init_mat n n (fun i j -> aug.(i).(n + j)))

  (* Vandermonde matrix [xᵢ^j] for i < rows, j < cols: the matrices of
     equations (8) and (9) in the paper. *)
  let vandermonde (points : vec) ~cols : mat =
    Array.map
      (fun x ->
        let row = Array.make cols F.one in
        for j = 1 to cols - 1 do
          row.(j) <- F.mul row.(j - 1) x
        done;
        row)
      points

  let random_mat rng r c : mat =
    init_mat r c (fun _ _ -> F.random rng)

  let random_vec rng n : vec = Array.init n (fun _ -> F.random rng)
end
