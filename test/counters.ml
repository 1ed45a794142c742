(* Registry deltas: the tests read counters from the metrics registry,
   the only counter source.  [deltas f] runs [f] with the registry
   switched on, restores the previous switch (also when [f] raises), and
   returns [f]'s result with a lookup of how far each counter moved
   during the run (read when [f] returns). *)

module Metrics = Mdl_obs.Metrics

let deltas f =
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  let snapshot () = List.map (fun n -> (n, Metrics.counter_value n)) (Metrics.names ()) in
  let before = snapshot () in
  let r = Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) f in
  let after = snapshot () in
  let value snap name = Option.value ~default:0 (List.assoc_opt name snap) in
  (r, fun name -> value after name - value before name)
