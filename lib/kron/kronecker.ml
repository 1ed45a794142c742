module Csr = Mdl_sparse.Csr
module Coo = Mdl_sparse.Coo
module Md = Mdl_md.Md
module Formal_sum = Mdl_md.Formal_sum

type event = {
  label : string;
  rate : float;
  locals : Csr.t array;
}

type t = {
  level_sizes : int array;
  event_list : event list;
}

let make ~sizes events =
  if Array.length sizes = 0 then invalid_arg "Kronecker.make: no levels";
  Array.iter (fun n -> if n <= 0 then invalid_arg "Kronecker.make: non-positive level size") sizes;
  List.iter
    (fun e ->
      if e.rate <= 0.0 then
        invalid_arg (Printf.sprintf "Kronecker.make: event %s has non-positive rate" e.label);
      if Array.length e.locals <> Array.length sizes then
        invalid_arg (Printf.sprintf "Kronecker.make: event %s has wrong level count" e.label);
      Array.iteri
        (fun i w ->
          if Csr.rows w <> sizes.(i) || Csr.cols w <> sizes.(i) then
            invalid_arg
              (Printf.sprintf "Kronecker.make: event %s level %d matrix has wrong size"
                 e.label (i + 1));
          Csr.iter
            (fun _ _ v ->
              if v < 0.0 then
                invalid_arg
                  (Printf.sprintf "Kronecker.make: event %s has a negative entry" e.label))
            w)
        e.locals)
    events;
  { level_sizes = Array.copy sizes; event_list = events }

let sizes t = Array.copy t.level_sizes

let events t = t.event_list

let num_events t = List.length t.event_list

let potential_size t = Array.fold_left ( * ) 1 t.level_sizes

let identity_local n = Csr.identity n

let to_md t =
  let md = Md.create ~sizes:t.level_sizes in
  let nlevels = Array.length t.level_sizes in
  (* Build each event's node chain bottom-up (hash-consing shares equal
     suffixes across events); the level-1 matrices of all events combine
     into the single root node, carrying the event rates as
     coefficients. *)
  let suffix_of e =
    let rec build level =
      if level > nlevels then Md.terminal md
      else
        let child = build (level + 1) in
        (* CSR rows are column-sorted with unique columns: they are the
           node's rows once zero entries are dropped.  Sums are
           immutable, so a run of equal values (an identity's 1s)
           shares one. *)
        let w = e.locals.(level - 1) in
        let last = ref (Formal_sum.singleton child 1.0) in
        let sum v =
          if Formal_sum.coeff !last child <> v then last := Formal_sum.singleton child v;
          !last
        in
        let rows =
          Array.init (Csr.rows w) (fun r ->
              let row = ref [] in
              Csr.iter_row w r (fun c v -> if v <> 0.0 then row := (c, sum v) :: !row);
              Array.of_list (List.rev !row))
        in
        Md.add_node_sorted_rows md ~level rows
    in
    build 2
  in
  let root_entries = ref [] in
  List.iter
    (fun e ->
      let child = suffix_of e in
      Csr.iter
        (fun r c v ->
          root_entries := (r, c, Formal_sum.singleton child (e.rate *. v)) :: !root_entries)
        e.locals.(0))
    t.event_list;
  let root = Md.add_node md ~level:1 !root_entries in
  Md.set_root md root;
  md

let vec_mul t x =
  let n = potential_size t in
  if Array.length x <> n then invalid_arg "Kronecker.vec_mul: vector size mismatch";
  let nlevels = Array.length t.level_sizes in
  let y = Array.make n 0.0 in
  let scratch_in = Array.make (Array.fold_left max 1 t.level_sizes) 0.0 in
  List.iter
    (fun e ->
      (* z := x * (W_e^1 (X) ... (X) W_e^L) by applying one factor at a
         time (perfect shuffle): factor l acts on the l-th mixed-radix
         digit with stride nright. *)
      let z = ref (Array.copy x) in
      let nright = Array.make nlevels 1 in
      for l = nlevels - 2 downto 0 do
        nright.(l) <- nright.(l + 1) * t.level_sizes.(l + 1)
      done;
      for l = 0 to nlevels - 1 do
        let nl = t.level_sizes.(l) in
        let stride = nright.(l) in
        let w = e.locals.(l) in
        let next = Array.make n 0.0 in
        let nleft = n / (nl * stride) in
        for il = 0 to nleft - 1 do
          for ir = 0 to stride - 1 do
            let base = (il * nl * stride) + ir in
            for d = 0 to nl - 1 do
              scratch_in.(d) <- !z.(base + (d * stride))
            done;
            (* row-vector times W: next digit j accumulates scratch_in(i) * W(i,j) *)
            for i = 0 to nl - 1 do
              let xi = scratch_in.(i) in
              if xi <> 0.0 then
                Csr.iter_row w i (fun j v ->
                    next.(base + (j * stride)) <- next.(base + (j * stride)) +. (xi *. v))
            done
          done
        done;
        z := next
      done;
      Mdl_sparse.Vec.axpy ~alpha:e.rate !z y)
    t.event_list;
  y

let to_csr t =
  let n = potential_size t in
  if n > 1 lsl 22 then invalid_arg "Kronecker.to_csr: potential space too large";
  let coo = Coo.create ~rows:n ~cols:n in
  let nlevels = Array.length t.level_sizes in
  List.iter
    (fun e ->
      (* Enumerate the nonzeros of the Kronecker product of the event's
         local matrices. *)
      let rec expand level row col coeff =
        if level > nlevels then Coo.add coo row col (e.rate *. coeff)
        else
          let nl = t.level_sizes.(level - 1) in
          ignore nl;
          Csr.iter
            (fun r c v ->
              expand (level + 1)
                ((row * t.level_sizes.(level - 1)) + r)
                ((col * t.level_sizes.(level - 1)) + c)
                (coeff *. v))
            e.locals.(level - 1)
      in
      expand 1 0 0 1.0)
    t.event_list;
  Csr.of_coo coo
