module Dynarray = Mdl_util.Dynarray
module Hashx = Mdl_util.Hashx

type node = int

(* Node 0 is the terminal.  A proper node's arcs are parallel arrays,
   sorted by local state; [offs.(k)] counts the states under arcs
   [0 .. k-1]. *)
type node_data = {
  locals : int array;
  offs : int array;
  kids : int array;
  total : int;
}

type t = {
  nlevels : int;
  nodes : node_data array;
  root : node;
}

module Cons = Hashtbl.Make (struct
  type t = int array * int array

  let equal = ( = )

  let hash (a, b) = Hashx.combine (Hashx.int_array a) (Hashx.int_array b)
end)

(* A hash-consing node store under construction. *)
type builder = {
  store : node_data Dynarray.t;
  cons : node Cons.t;
}

let builder () =
  let store = Dynarray.create () in
  Dynarray.push store { locals = [||]; offs = [||]; kids = [||]; total = 1 };
  { store; cons = Cons.create 64 }

(* [locals] strictly increasing; [kids] already in the store. *)
let mk b locals kids =
  match Cons.find_opt b.cons (locals, kids) with
  | Some id -> id
  | None ->
      let offs = Array.make (Array.length kids) 0 in
      let total = ref 0 in
      Array.iteri
        (fun k c ->
          offs.(k) <- !total;
          total := !total + (Dynarray.get b.store c).total)
        kids;
      let id = Dynarray.length b.store in
      Dynarray.push b.store { locals; offs; kids; total = !total };
      Cons.add b.cons (locals, kids) id;
      id

let finish b ~levels root = { nlevels = levels; nodes = Dynarray.to_array b.store; root }

let compare_tuples (a : int array) b =
  let n = Array.length a in
  let rec go i =
    if i = n then 0
    else
      let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let of_tuples ~levels tuples =
  if tuples = [] then invalid_arg "Statespace.of_tuples: empty state space";
  List.iter
    (fun s ->
      if Array.length s <> levels then
        invalid_arg "Statespace.of_tuples: tuple of wrong length")
    tuples;
  let arr = Array.of_list tuples in
  Array.sort compare_tuples arr;
  let b = builder () in
  (* The sub-diagram of the sorted range [lo, hi) at [level]: each run of
     equal level-[level] substates is one arc; duplicate tuples meet at
     the terminal. *)
  let rec build level lo hi =
    if level > levels then 0
    else begin
      let locals = Dynarray.create () and kids = Dynarray.create () in
      let i = ref lo in
      while !i < hi do
        let v = arr.(!i).(level - 1) in
        let j = ref (!i + 1) in
        while !j < hi && arr.(!j).(level - 1) = v do
          incr j
        done;
        Dynarray.push locals v;
        Dynarray.push kids (build (level + 1) !i !j);
        i := !j
      done;
      mk b (Dynarray.to_array locals) (Dynarray.to_array kids)
    end
  in
  finish b ~levels (build 1 0 (Array.length arr))

let of_diagram ~levels ~root ~arcs =
  let b = builder () in
  let memo = Hashtbl.create 64 in
  let rec conv level id =
    if level > levels then 0
    else
      match Hashtbl.find_opt memo id with
      | Some n -> n
      | None ->
          let a = arcs id in
          let n = mk b (Array.map fst a) (Array.map (fun (_, c) -> conv (level + 1) c) a) in
          Hashtbl.add memo id n;
          n
  in
  finish b ~levels (conv 1 root)

let levels t = t.nlevels

let size t = t.nodes.(t.root).total

let root t = t.root

let num_nodes t = Array.length t.nodes - 1

(* Position of local state [s] among a node's arcs, or -1. *)
let find_arc d s =
  let lo = ref 0 and hi = ref (Array.length d.locals - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get d.locals mid in
    if v = s then begin
      found := mid;
      lo := !hi + 1
    end
    else if v < s then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let arc t n s =
  let d = t.nodes.(n) in
  let k = find_arc d s in
  if k < 0 then None else Some (d.offs.(k), d.kids.(k))

let iter_arcs t n f =
  let d = t.nodes.(n) in
  Array.iteri (fun k s -> f s d.offs.(k) d.kids.(k)) d.locals

let index t s =
  if Array.length s <> t.nlevels then None
  else
    let rec walk level n acc =
      if level > t.nlevels then Some acc
      else
        let d = t.nodes.(n) in
        let k = find_arc d s.(level - 1) in
        if k < 0 then None else walk (level + 1) d.kids.(k) (acc + d.offs.(k))
    in
    walk 1 t.root 0

let tuple t i =
  if i < 0 || i >= size t then invalid_arg "Statespace.tuple: index out of bounds";
  let s = Array.make t.nlevels 0 in
  let rec walk level n i =
    if level <= t.nlevels then begin
      (* the last arc starting at or before [i] *)
      let d = t.nodes.(n) in
      let lo = ref 0 and hi = ref (Array.length d.offs - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) lsr 1 in
        if d.offs.(mid) <= i then lo := mid else hi := mid - 1
      done;
      s.(level - 1) <- d.locals.(!lo);
      walk (level + 1) d.kids.(!lo) (i - d.offs.(!lo))
    end
  in
  walk 1 t.root i;
  s

let iter f t =
  let buf = Array.make t.nlevels 0 in
  let idx = ref 0 in
  let rec walk level n =
    if level > t.nlevels then begin
      f !idx buf;
      incr idx
    end
    else begin
      let d = t.nodes.(n) in
      for k = 0 to Array.length d.locals - 1 do
        buf.(level - 1) <- d.locals.(k);
        walk (level + 1) d.kids.(k)
      done
    end
  in
  walk 1 t.root

let local_states t l =
  if l < 1 || l > t.nlevels then invalid_arg "Statespace.local_states: level out of range";
  let visited = Array.make (Array.length t.nodes) false and occ = Hashtbl.create 64 in
  let rec walk level n =
    if not visited.(n) then begin
      visited.(n) <- true;
      let d = t.nodes.(n) in
      if level = l then Array.iter (fun s -> Hashtbl.replace occ s ()) d.locals
      else Array.iter (walk (level + 1)) d.kids
    end
  in
  walk 1 t.root;
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) occ [])

let weighted_size t w =
  let memo = Array.make (Array.length t.nodes) None in
  let rec go level n =
    if level > t.nlevels then 1
    else
      match memo.(n) with
      | Some v -> v
      | None ->
          let d = t.nodes.(n) in
          let v = ref 0 in
          Array.iteri (fun k s -> v := !v + (w level s * go (level + 1) d.kids.(k))) d.locals;
          memo.(n) <- Some !v;
          !v
  in
  go 1 t.root

let map t f =
  let mapped = ref [] in
  iter (fun _ s -> mapped := f (Array.copy s) :: !mapped) t;
  (* The image may live over a different number of levels (e.g. after
     level merging); infer it from the mapped tuples. *)
  let levels = match !mapped with [] -> t.nlevels | s :: _ -> Array.length s in
  of_tuples ~levels !mapped

let pp ppf t =
  Format.fprintf ppf "@[<v>%d states over %d levels" (size t) t.nlevels;
  if size t <= 64 then
    iter
      (fun i s ->
        Format.fprintf ppf "@,%d: (%s)" i
          (String.concat "," (List.map string_of_int (Array.to_list s))))
      t;
  Format.fprintf ppf "@]"
