module Dynarray = Mdl_util.Dynarray
module Csr = Mdl_sparse.Csr
module Coo = Mdl_sparse.Coo
module Statespace = Mdl_md.Statespace
module Set_mdd = Mdl_md.Set_mdd
module Trace = Mdl_obs.Trace

let src = Logs.Src.create "mdl.san" ~doc:"compositional model exploration"

module Log = (val Logs.src_log src : Logs.LOG)

type local_state = int array

type effect = local_state -> (local_state * float) list

type event = {
  label : string;
  rate : float;
  effects : effect array;
}

type component = {
  name : string;
  initial : local_state;
}

type t = {
  comps : component array;
  evts : event list;
}

let make ~components ~events =
  if Array.length components = 0 then invalid_arg "Model.make: no components";
  List.iter
    (fun e ->
      if Array.length e.effects <> Array.length components then
        invalid_arg
          (Printf.sprintf "Model.make: event %s has %d effects for %d components" e.label
             (Array.length e.effects) (Array.length components));
      if e.rate <= 0.0 then
        invalid_arg (Printf.sprintf "Model.make: event %s has non-positive rate" e.label))
    events;
  { comps = components; evts = events }

let components t = t.comps

let events t = t.evts

let identity_effect s = [ (s, 1.0) ]

module State_table = Hashtbl.Make (struct
  type t = int array

  (* Monomorphic equality: this is the hottest comparison in state-space
     exploration. *)
  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
    go 0

  let hash = Mdl_util.Hashx.int_array
end)

type interner = {
  index_of : int State_table.t;
  states : local_state Dynarray.t;
}

let new_interner () = { index_of = State_table.create 64; states = Dynarray.create () }

let intern interner s =
  match State_table.find_opt interner.index_of s with
  | Some i -> i
  | None ->
      let i = Dynarray.length interner.states in
      let s = Array.copy s in
      State_table.add interner.index_of s i;
      Dynarray.push interner.states s;
      i

type exploration = {
  model : t;
  local_spaces : local_state array array;
  statespace : Mdl_md.Statespace.t;
  descriptor : Mdl_kron.Kronecker.t;
  initial_tuple : int array;
}

(* Canonicalise an exploration: keep only the local states occurring in
   some state of [raw ()] (the reachable space over interned indices),
   order each level's by encoding (so the result is independent of
   discovery order and of the exploration strategy), [relabel] the state
   space onto the new indices, and build the final local spaces and
   Kronecker descriptor. *)
let finalize t interners initial raw relabel =
  let local_spaces, remap, statespace =
    Trace.with_span "explore.index" (fun () ->
        let raw = raw () in
        let remap = Array.map (fun it -> Array.make (Dynarray.length it.states) (-1)) interners in
        let local_spaces =
          Array.mapi
            (fun k it ->
              let sorted =
                Array.of_list
                  (List.map (Dynarray.get it.states) (Statespace.local_states raw (k + 1)))
              in
              Array.sort compare sorted;
              Array.iteri
                (fun new_idx s -> remap.(k).(State_table.find it.index_of s) <- new_idx)
                sorted;
              sorted)
            interners
        in
        (local_spaces, remap, relabel raw (fun l i -> remap.(l - 1).(i))))
  in
  (* Per-event local matrices over the final local spaces; transitions
     into non-occurring local states cannot fire in any reachable global
     state and are dropped. *)
  let descriptor =
    Trace.with_span "explore.descriptor" @@ fun () ->
      let sizes = Array.map Array.length local_spaces in
      let kron_events =
        List.filter_map
          (fun e ->
            let locals_ok = ref true in
            let locals =
              Array.mapi
                (fun k n ->
                  let coo = Coo.create ~rows:n ~cols:n in
                  for s = 0 to n - 1 do
                    List.iter
                      (fun (s', w) ->
                        if w <= 0.0 then
                          invalid_arg
                            (Printf.sprintf "Model.explore: event %s has non-positive weight"
                               e.label);
                        match State_table.find_opt interners.(k).index_of s' with
                        | Some old_j ->
                            let j = remap.(k).(old_j) in
                            if j >= 0 then Coo.add coo s j w
                        | None -> ())
                      (e.effects.(k) local_spaces.(k).(s))
                  done;
                  let m = Csr.of_coo coo in
                  if Csr.nnz m = 0 then locals_ok := false;
                  m)
                sizes
            in
            if !locals_ok then
              Some { Mdl_kron.Kronecker.label = e.label; rate = e.rate; locals }
            else None)
          t.evts
      in
      Mdl_kron.Kronecker.make ~sizes kron_events
  in
  {
    model = t;
    local_spaces;
    statespace;
    descriptor;
    initial_tuple = Array.mapi (fun k i -> remap.(k).(i)) initial;
  }

let explore ?(max_states = 5_000_000) t =
  let ncomp = Array.length t.comps in
  let interners = Array.init ncomp (fun _ -> new_interner ()) in
  let initial_tuple =
    Array.mapi (fun k comp -> intern interners.(k) comp.initial) t.comps
  in
  let evts = Array.of_list t.evts in
  let visited = State_table.create 4096 in
  let frontier = Queue.create () in
  let tuples = Dynarray.create () in
  State_table.add visited initial_tuple ();
  Queue.add initial_tuple frontier;
  Dynarray.push tuples initial_tuple;
  let succ_buf = Array.make ncomp [||] in
  let next_buf = Array.make ncomp 0 in
  while not (Queue.is_empty frontier) do
    let tuple = Queue.pop frontier in
    for e = 0 to Array.length evts - 1 do
      let enabled = ref true in
      for k = 0 to ncomp - 1 do
        if !enabled then begin
          let s = Dynarray.get interners.(k).states tuple.(k) in
          match evts.(e).effects.(k) s with
          | [] -> enabled := false
          | succs -> succ_buf.(k) <- Array.of_list succs
        end
      done;
      if !enabled then begin
        (* Cross product of per-component successors, interned on use. *)
        let rec expand k =
          if k = ncomp then begin
            if not (State_table.mem visited next_buf) then begin
              if State_table.length visited >= max_states then
                failwith (Printf.sprintf "Model.explore: more than %d states" max_states);
              let next = Array.copy next_buf in
              State_table.add visited next ();
              Queue.add next frontier;
              Dynarray.push tuples next
            end
          end
          else
            Array.iter
              (fun (s', _w) ->
                next_buf.(k) <- intern interners.(k) s';
                expand (k + 1))
              succ_buf.(k)
        in
        expand 0
      end
    done
  done;
  Log.debug (fun m ->
      m "explore: %d states, local spaces %s" (Dynarray.length tuples)
        (String.concat "/"
           (Array.to_list
              (Array.map (fun it -> string_of_int (Dynarray.length it.states)) interners))));
  finalize t interners initial_tuple
    (fun () -> Statespace.of_tuples ~levels:ncomp (Dynarray.to_list tuples))
    (fun raw f -> Statespace.map raw (Array.mapi (fun k i -> f (k + 1) i)))

let explore_symbolic ?(max_states = 50_000_000) t =
  let ncomp = Array.length t.comps in
  let interners = Array.init ncomp (fun _ -> new_interner ()) in
  let initial_tuple =
    Array.mapi (fun k comp -> intern interners.(k) comp.initial) t.comps
  in
  let evts = Array.of_list t.evts in
  let man = Set_mdd.manager ~levels:ncomp in
  (* Per-(event, level) successor memo, indexed by local state; successor
     local states are interned on first evaluation. *)
  let rel_memo = Array.map (fun _ -> Array.init ncomp (fun _ -> Dynarray.create ())) evts in
  let rel e level old_idx =
    let memo = rel_memo.(e).(level - 1) in
    while Dynarray.length memo <= old_idx do
      Dynarray.push memo None
    done;
    match Dynarray.get memo old_idx with
    | Some r -> r
    | None ->
        let k = level - 1 in
        let s = Dynarray.get interners.(k).states old_idx in
        let r =
          List.map
            (fun (s', w) ->
              if w <= 0.0 then
                invalid_arg
                  (Printf.sprintf "Model.explore_symbolic: event %s has non-positive weight"
                     evts.(e).label);
              intern interners.(k) s')
            (evts.(e).effects.(k) s)
        in
        (* Runaway guard: the local spaces of a finite model are bounded
           by its state count, so unbounded interner growth means the
           model has (more than) [max_states] states. *)
        if Dynarray.length interners.(k).states > max_states then
          failwith (Printf.sprintf "Model.explore_symbolic: more than %d states" max_states);
        Dynarray.set memo old_idx (Some r);
        r
  in
  (* An event's top level: the root-most level whose effect is not the
     shared [identity_effect] closure (saturation fires an event inside
     nodes of its top level, which is sound only when everything closer
     to the root is identity).  Physical equality can only certify a
     level as identity when the model author passed [identity_effect];
     unknown effects count as touched, which merely costs efficiency. *)
  let top_of e =
    let rec scan k =
      if k >= ncomp then ncomp (* all-identity: a no-op event *)
      else if e.effects.(k) == identity_effect then scan (k + 1)
      else k + 1
    in
    scan 0
  in
  let tops = Array.map top_of evts in
  let rels = Array.init (Array.length evts) rel in
  let reachable =
    Trace.with_span "explore.saturation" (fun () ->
        Set_mdd.saturation man ~rels ~tops (Set_mdd.singleton man initial_tuple))
  in
  if Set_mdd.count man reachable > max_states then
    failwith (Printf.sprintf "Model.explore_symbolic: more than %d states" max_states);
  Log.debug (fun m ->
      m "explore_symbolic: %d states, %d set-MDD nodes" (Set_mdd.count man reachable)
        (Set_mdd.num_nodes man));
  (* The saturated set becomes the counted-MDD state space node by node,
     and the canonical relabelling re-sorts each node's arcs: no tuple is
     ever enumerated. *)
  finalize t interners initial_tuple
    (fun () -> Set_mdd.to_statespace man reachable)
    Set_mdd.relabel

let local_index exp l s =
  if l < 1 || l > Array.length exp.local_spaces then
    invalid_arg "Model.local_index: level out of range";
  let space = exp.local_spaces.(l - 1) in
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = compare s space.(mid) in
      if c = 0 then Some mid else if c < 0 then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length space)

let md_of exp =
  Trace.with_span ~cat:"md" "md.build" @@ fun () ->
  let md =
    Trace.with_span ~cat:"md" "md.kron" (fun () -> Mdl_kron.Kronecker.to_md exp.descriptor)
  in
  let md =
    Trace.with_span ~cat:"md" "md.merge_terms" (fun () -> Mdl_md.Compact.merge_terms md)
  in
  Trace.with_span ~cat:"md" "md.normalize" (fun () -> Mdl_md.Compact.normalize md)
