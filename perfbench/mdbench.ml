(* mdbench: the timed core of the mdlump benchmark (see README.md).

   Runs one workload for a fixed time budget, checks every output, and
   prints one JSON object as its last line.  run.py builds this program,
   starts it and turns that object into the benchmark's result line.

     mdbench.exe --workload table1-j3 --seed 1 --seconds 15 --trace 0 \
       --t0-ns <CLOCK_MONOTONIC ns at spawn> --lumpd _build/default/bin/lumpd.exe

   Layers are timed from the outside, around calls to their public
   functions.  An untraced phase gives the end-to-end numbers; with
   [--trace 1] a second, traced phase wraps the same calls in spans of a
   private [Trace.Ctx] (never installed as the ambient context, so the
   library runs exactly as untraced) and turns on the metrics registry
   for counter deltas.  The two phases' medians give the tracing
   overhead. *)

module Model = Mdl_san.Model
module Md = Mdl_md.Md
module Mdd = Mdl_md.Mdd
module Md_vector = Mdl_md.Md_vector
module Statespace = Mdl_md.Statespace
module Partition = Mdl_partition.Partition
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional
module Md_solve = Mdl_core.Md_solve
module Solver = Mdl_ctmc.Solver
module State_lumping = Mdl_lumping.State_lumping
module Tandem = Mdl_models.Tandem
module Metrics = Mdl_obs.Metrics
module Trace = Mdl_obs.Trace
module Timer = Mdl_util.Timer
module Prng = Mdl_util.Prng
module P = Mdl_serve.Protocol
module Json = Mdl_serve.Json

(* ---------- options ---------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  t0_ns : int64;  (* when the benchmark process was spawned *)
  lumpd : string;
  out_dir : string;  (* sockets, access logs, Chrome traces *)
  inject : string option;  (* self-test fault, see [faults] *)
  probe : bool;  (* report set-up latency only, then exit *)
}

let faults = [ "wrong-states"; "perturb-measure"; "drop-reply"; "malformed-reply" ]

let usage () =
  prerr_endline
    "usage: mdbench.exe --workload W --seed N --seconds S --trace 0|1 [--t0-ns NS] \
     [--lumpd PATH] [--out-dir DIR] [--inject FAULT] [--probe]";
  exit 2

let parse_opts () =
  let o =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.0;
        trace = false;
        t0_ns = Timer.now_ns ();
        lumpd = "_build/default/bin/lumpd.exe";
        out_dir = "perfbench/out";
        inject = None;
        probe = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> o := { !o with workload = v }; go r
    | "--seed" :: v :: r -> o := { !o with seed = int_of_string v }; go r
    | "--seconds" :: v :: r -> o := { !o with seconds = float_of_string v }; go r
    | "--trace" :: v :: r -> o := { !o with trace = v = "1" }; go r
    | "--t0-ns" :: v :: r -> o := { !o with t0_ns = Int64.of_string v }; go r
    | "--lumpd" :: v :: r -> o := { !o with lumpd = v }; go r
    | "--out-dir" :: v :: r -> o := { !o with out_dir = v }; go r
    | "--inject" :: v :: r ->
        if not (List.mem v faults) then usage ();
        o := { !o with inject = Some v };
        go r
    | "--probe" :: r -> o := { !o with probe = true }; go r
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  !o

let injected o f = o.inject = Some f

let since_s t0 = Int64.to_float (Int64.sub (Timer.now_ns ()) t0) /. 1e9

(* ---------- statistics ---------- *)

let sorted l = List.sort Float.compare l

let median l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile [p] (0..100) of a sorted array. *)
let nearest_rank a p =
  let n = Array.length a in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* The highest whole percentile that still has at least ten samples
   beyond it: (percentile, value, samples beyond).  Falls back to the
   median when there are too few samples. *)
let tail l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n <= 10 then (50.0, nearest_rank a 50.0, n / 2)
  else
    let p = floor (100.0 *. float_of_int (n - 10) /. float_of_int n) in
    let p = Float.max 50.0 p in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    (p, nearest_rank a p, n - rank)

(* Seeded Fisher-Yates shuffle in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---------- results ---------- *)

(* A metric as printed: value, unit, and for percentiles the percentile
   and sample count it was taken at. *)
type metric = { value : float; unit_ : string; pct : (float * int) option }

let m ?pct unit_ value = { value; unit_; pct }

(* Medians in seconds and milliseconds, with their sample counts. *)
let p50_s l = m ~pct:(50.0, List.length l) "s" (median l)

let p50_ms l = m ~pct:(50.0, List.length l) "ms" (median l *. 1000.0)

let metric_json x =
  Json.Obj
    ([ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ]
    @
    match x.pct with
    | None -> []
    | Some (p, n) -> [ ("percentile", Json.Float p); ("samples", Json.Int n) ])

(* Operation accounting: every timed operation is attempted once and
   fails when any check on its output fails. *)
let attempted = ref 0

let failed = ref 0

let failures = ref []

let account ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 20 then failures := what :: !failures;
    Printf.eprintf "mdbench: check failed: %s\n%!" what
  end

(* Checks of one operation: [expect] records each failed condition, the
   op then counts once. *)
let expect errs cond fmt =
  Printf.ksprintf (fun msg -> if not cond then errs := msg :: !errs) fmt

let account_errs what errs =
  account (!errs = []) (what ^ ": " ^ String.concat "; " (List.rev !errs))

(* ---------- tracing helpers ---------- *)

let span ctx name f =
  match ctx with None -> f () | Some c -> Trace.Ctx.with_span ~cat:"bench" c name f

let new_ctx () =
  let c = Trace.Ctx.create () in
  Trace.Ctx.start ~gc:false c;
  c

(* Durations of the top-level spans recorded since event [from],
   grouped by name in recording order. *)
let top_spans ?(from = 0) ctx =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Trace.Ctx.iter_events ~from ctx (fun ~name ~cat:_ ~start_ns:_ ~dur_ns ~depth ~args:_ ->
      if depth = 0 then begin
        if not (Hashtbl.mem tbl name) then order := name :: !order;
        let l = try Hashtbl.find tbl name with Not_found -> [] in
        Hashtbl.replace tbl name ((Int64.to_float dur_ns /. 1e9) :: l)
      end);
  List.rev_map (fun n -> (n, List.rev (Hashtbl.find tbl n))) !order

let span_total spans = List.fold_left (fun acc (_, l) -> acc +. List.fold_left ( +. ) 0.0 l) 0.0 spans

let span_median spans name =
  match List.assoc_opt name spans with Some l -> median l | None -> 0.0

(* Chrome trace of one recording context ([i] numbers a run's contexts:
   set-up, then one per traced thread). *)
let write_trace o i ctx =
  let path =
    Filename.concat o.out_dir (Printf.sprintf "%s-seed%d-%d.trace.json" o.workload o.seed i)
  in
  try Trace.Ctx.write_file ctx path with Sys_error _ -> ()

(* Metrics-registry deltas of [names] across [f ()]. *)
let counters =
  [
    "key_cache.hits";
    "key_cache.misses";
    "rebuild.nodes_reused";
    "rebuild.nodes_rebuilt";
    "key_cache.cross_bind_hits";
    "refiner.splitter_passes";
    "refiner.key_evals";
  ]

let with_deltas f =
  let before = List.map Metrics.counter_value counters in
  let r = f () in
  (r, List.map2 (fun n b -> (n, Metrics.counter_value n - b)) counters before)

let sum_deltas ds =
  List.map (fun n -> (n, List.fold_left (fun acc d -> acc + List.assoc n d) 0 ds)) counters

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

let cache_metrics d =
  let g n = List.assoc n d in
  [
    ("core.key_cache_hit_ratio", m "ratio" (ratio (g "key_cache.hits") (g "key_cache.misses")));
    ( "core.nodes_reused_ratio",
      m "ratio" (ratio (g "rebuild.nodes_reused") (g "rebuild.nodes_rebuilt")) );
  ]

let partition_metrics d =
  [
    ("partition.splitter_passes", m "count" (float_of_int (List.assoc "refiner.splitter_passes" d)));
    ("partition.key_evals", m "count" (float_of_int (List.assoc "refiner.key_evals" d)));
  ]

let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The major-heap high-water mark when the first timed operation ends:
   set-up plus one operation.  Later operations only move it by where
   the collector's cycles happen to fall. *)
let first_peak_mb = ref None

let peak_heap () = m "MB" (Option.get !first_peak_mb)

(* ---------- the tandem pipeline ---------- *)

type generated = {
  ex : Model.exploration;
  md : Md.t;
  avail : Decomposed.t;
  msmq_jobs : Decomposed.t;
  initial : Decomposed.t;
}

(* The availability and MSMQ-jobs rewards of [Tandem.build], rebuilt
   over an exploration timed here step by step.  They decode Tandem's
   local-state encoding (hypercube: H queue lengths then H up flags;
   MSMQ: a position and phase per server, then the queue lengths);
   [check_rewards] pins them equal to Tandem's own. *)
let tandem_rewards (p : Tandem.params) (ex : Model.exploration) =
  let sizes = Array.map Array.length ex.Model.local_spaces in
  let h = 1 lsl p.Tandem.hyper_dim in
  let down s =
    let n = ref 0 in
    for i = 0 to h - 1 do
      if s.(h + i) <> 1 then incr n
    done;
    !n
  in
  let avail =
    Decomposed.of_level ~sizes ~level:2 (fun i ->
        if down ex.Model.local_spaces.(1).(i) < 2 then 1.0 else 0.0)
  in
  let msmq_jobs =
    Decomposed.of_level ~sizes ~level:3 (fun i ->
        let s = ex.Model.local_spaces.(2).(i) in
        let t = ref 0 in
        for k = 0 to p.Tandem.msmq_queues - 1 do
          t := !t + s.((2 * p.Tandem.msmq_servers) + k)
        done;
        float_of_int !t)
  in
  (avail, msmq_jobs, Decomposed.point ~sizes ex.Model.initial_tuple)

let generate ctx p =
  let ex = span ctx "san.explore" (fun () -> Model.explore_symbolic (Tandem.model p)) in
  let md = span ctx "md.build" (fun () -> Model.md_of ex) in
  let avail, msmq_jobs, initial = tandem_rewards p ex in
  { ex; md; avail; msmq_jobs; initial }

let check_rewards () =
  let p = { (Tandem.default ~jobs:1) with hyper_dim = 2 } in
  let b = Tandem.build p in
  let avail, jobs, _ = tandem_rewards p b.Tandem.exploration in
  let ss = b.Tandem.exploration.Model.statespace in
  let same a b = Decomposed.to_vector a ss = Decomposed.to_vector b ss in
  let errs = ref [] in
  expect errs (same avail b.Tandem.rewards_availability) "availability reward differs from Tandem's";
  expect errs (same jobs b.Tandem.rewards_msmq_jobs) "MSMQ-jobs reward differs from Tandem's";
  account_errs "reward decoding" errs

let classes r = Array.to_list (Array.map Partition.num_classes r.Compositional.partitions)

let ints l = String.concat "/" (List.map string_of_int l)

(* Expected Table 1 figures (EXPERIMENTS.md). *)
type expected = {
  states : int;
  level_sizes : int list;
  nodes : int list;
  lumped : int;
  lumped_levels : int list;
}

let expected_j3 =
  {
    states = 2_173_824;
    level_sizes = [ 10; 6_105; 6_144 ];
    nodes = [ 1; 5; 4 ];
    lumped = 44_835;
    lumped_levels = [ 10; 1_685; 380 ];
  }

let expected_j2 =
  {
    states = 355_200;
    level_sizes = [ 6; 1_665; 2_112 ];
    nodes = [ 1; 5; 4 ];
    lumped = 8_015;
    lumped_levels = [ 6; 484; 135 ];
  }

(* The sizes of one pipeline run, kept instead of the run itself so a
   pass never holds its predecessor's state space alive. *)
type facts = {
  states : int;
  level_sizes : int list;
  nodes : int list;
  md_bytes : int;
  lumped_states : int;
  lumped_levels : int list;
  lumped_bytes : int;
  closed : bool;
  lump_deltas : (string * int) list;
}

(* Generate -> MD -> ordinary lump -> lumped state space -> closure.
   Returns the facts, the lump, the lumped space and the reward. *)
let lump_pipeline ctx p =
  let g = generate ctx p in
  let ss = g.ex.Model.statespace in
  let r, lump_deltas =
    with_deltas (fun () ->
        span ctx "core.lump" (fun () ->
            Compositional.lump State_lumping.Ordinary g.md ~rewards:[ g.avail ]
              ~initial:g.initial))
  in
  let lss = span ctx "core.lump_statespace" (fun () -> Compositional.lump_statespace r ss) in
  let closed = span ctx "core.is_closed" (fun () -> Compositional.is_closed r ss) in
  let facts =
    {
      states = Statespace.size ss;
      level_sizes = Array.to_list (Md.sizes g.md);
      nodes = Array.to_list (fst (Md.stats g.md));
      md_bytes = Md.memory_bytes g.md;
      lumped_states = Statespace.size lss;
      lumped_levels = classes r;
      lumped_bytes = Md.memory_bytes r.Compositional.lumped;
      closed;
      lump_deltas;
    }
  in
  (facts, r, lss, g.avail)

let check_pipeline o what (exp : expected) (f : facts) =
  let errs = ref [] in
  let want = if injected o "wrong-states" then exp.states + 1 else exp.states in
  expect errs (f.states = want) "states %d, expected %d" f.states want;
  expect errs (f.level_sizes = exp.level_sizes) "level sizes %s, expected %s"
    (ints f.level_sizes) (ints exp.level_sizes);
  expect errs (f.nodes = exp.nodes) "nodes %s, expected %s" (ints f.nodes) (ints exp.nodes);
  expect errs (f.lumped_states = exp.lumped) "lumped states %d, expected %d" f.lumped_states
    exp.lumped;
  expect errs (f.lumped_levels = exp.lumped_levels) "lumped levels %s, expected %s"
    (ints f.lumped_levels) (ints exp.lumped_levels);
  expect errs f.closed "reachable set not class-closed";
  account_errs what errs

(* Per-layer numbers of the generate-and-lump pipeline. *)
let pipeline_layers f spans =
  let count x = m "count" (float_of_int x) in
  [
    ("san.explore_s", m "s" (span_median spans "san.explore"));
    ("san.states", count f.states);
    ("md.build_s", m "s" (span_median spans "md.build"));
    ("md.nodes", count (List.fold_left ( + ) 0 f.nodes));
    ("md.bytes", m "bytes" (float_of_int f.md_bytes));
    ("md.lumped_bytes", m "bytes" (float_of_int f.lumped_bytes));
    ("core.lump_s", m "s" (span_median spans "core.lump"));
    ("core.lump_statespace_s", m "s" (span_median spans "core.lump_statespace"));
    ("core.is_closed_s", m "s" (span_median spans "core.is_closed"));
    ("core.lumped_states", count f.lumped_states);
  ]
  @ cache_metrics f.lump_deltas @ partition_metrics f.lump_deltas

(* ---------- timed loops ---------- *)

(* Run [op] until another run, predicted to last as long as the longest
   so far, would end past [budget] seconds; always at least once.
   [op] returns its own wall time (checks run outside it).  Each run
   starts from a compacted heap, so no run pays for its predecessor's
   garbage. *)
let timed_loop budget op =
  let t0 = Timer.now_ns () in
  let rec go acc longest =
    Gc.compact ();
    let dt = op () in
    if !first_peak_mb = None then first_peak_mb := Some (heap_mb ());
    let longest = Float.max longest dt in
    let acc = dt :: acc in
    if since_s t0 +. longest > budget then List.rev acc else go acc longest
  in
  go [] 0.0

type phase = {
  ops : float list;  (* wall of each headline operation *)
  traces : Trace.Ctx.t list;
  layers : (string * metric) list;  (* per-layer numbers (traced phase) *)
  report : (string * metric) list;  (* workload metrics by their own names *)
}

(* How much of the timed wall the top-level layer spans cover, and the
   rest per operation.  The parts must add up to the whole: coverage
   under 95% fails the run. *)
let coverage_metrics ~wall ~covered ~ops =
  let coverage = covered /. wall in
  account (coverage >= 0.95) (Printf.sprintf "span coverage %.3f is under 0.95" coverage);
  [
    ("obs.span_coverage", m "ratio" coverage);
    ("other_s", m "s" ((wall -. covered) /. float_of_int (max 1 ops)));
  ]

let pipeline_coverage ops spans =
  coverage_metrics ~wall:(List.fold_left ( +. ) 0.0 ops) ~covered:(span_total spans)
    ~ops:(List.length ops)

(* ---------- workload: table1-j3 ---------- *)

let table1 o ~budget ~ctx =
  let p = Tandem.default ~jobs:3 in
  let last = ref None in
  let ops =
    timed_loop budget (fun () ->
        let (f, _, _, _), dt = Timer.time (fun () -> lump_pipeline ctx p) in
        check_pipeline o "table1-j3 pass" expected_j3 f;
        last := Some f;
        dt)
  in
  let report = [ ("table1_s", p50_s ops); ("peak_heap_mb", peak_heap ()) ] in
  let layers =
    match ctx with
    | Some c ->
        let spans = top_spans c in
        pipeline_layers (Option.get !last) spans @ pipeline_coverage ops spans
    | None -> []
  in
  { ops; traces = Option.to_list ctx; layers; report }

(* ---------- workload: solve-j2 ---------- *)

let solve o ~budget ~ctx =
  let p = Tandem.default ~jobs:2 in
  let last = ref None in
  let results = ref [] in
  let ops =
    timed_loop budget (fun () ->
        let ((f, r, lss, avail), (st : Solver.stats), a), dt =
          Timer.time (fun () ->
              let ((_, r, lss, avail) as pl) = lump_pipeline ctx p in
              let pi, st =
                span ctx "ctmc.solve" (fun () ->
                    Md_solve.steady_state_krylov ~tol:1e-12 r.Compositional.lumped lss)
              in
              let reward = Compositional.lumped_rewards r avail in
              (pl, st, Solver.expected_reward pi (Decomposed.to_vector reward lss)))
        in
        let a = if injected o "perturb-measure" then a +. 2e-9 else a in
        check_pipeline o "solve-j2 lump" expected_j2 f;
        results := (a, st) :: !results;
        last := Some (f, r, lss, avail);
        dt)
  in
  (* Untimed reference: Gauss-Seidel on the flattened quotient. *)
  let f, r, lss, avail = Option.get !last in
  let lumped = r.Compositional.lumped in
  let reference =
    let pi, _ =
      Solver.steady_state_gauss_seidel ~tol:1e-12 ~max_iter:100_000 ~ordering:Solver.Rcm
        ~relax:0.9 (Md_solve.ctmc_of lumped lss)
    in
    Solver.expected_reward pi (Decomposed.to_vector (Compositional.lumped_rewards r avail) lss)
  in
  List.iter
    (fun (a, (st : Solver.stats)) ->
      let errs = ref [] in
      expect errs st.Solver.converged "Krylov did not converge (residual %.3e)" st.Solver.residual;
      expect errs
        (Float.abs (a -. reference) <= 1e-9)
        "availability %.12f differs from Gauss-Seidel %.12f" a reference;
      account_errs "solve-j2 measure" errs)
    !results;
  let availability, st = List.hd !results in
  let report =
    [
      ("solution_s", p50_s ops);
      ("availability", m "ratio" availability);
      ("peak_heap_mb", peak_heap ());
    ]
  in
  let layers =
    match ctx with
    | None -> []
    | Some c ->
        let spans = top_spans c in
        let from = Trace.Ctx.span_count c in
        (* The lumped space's index and five products on the lumped
           diagram, timed on their own after the timed passes. *)
        let mdd = span ctx "md.mdd_index" (fun () -> Mdd.of_statespace lss) in
        let rng = Prng.of_seed o.seed in
        let x = Array.init (Statespace.size lss) (fun _ -> Prng.float rng 1.0) in
        for _ = 1 to 5 do
          ignore (span ctx "md.vec_mul" (fun () -> Md_vector.vec_mul_mdd lumped mdd x))
        done;
        let extra = top_spans ~from c in
        let solve_s = span_median spans "ctmc.solve" in
        let index_s = span_median extra "md.mdd_index" in
        let vec_mul_s = span_median extra "md.vec_mul" in
        (* BiCGStab applies the operator twice per iteration, plus once
           for the initial residual; the solver also indexes the
           lumped space once. *)
        let products = float_of_int ((2 * st.Solver.iterations) + 1) in
        pipeline_layers f spans
        @ [
            ("md.mdd_index_s", m "s" index_s);
            ("md.vec_mul_s", m "s" vec_mul_s);
            ("ctmc.solve_s", m "s" solve_s);
            ("ctmc.iterations", m "count" (float_of_int st.Solver.iterations));
            ("ctmc.residual", m "inf-norm" st.Solver.residual);
            ("ctmc.other_s", m "s" (solve_s -. (products *. vec_mul_s) -. index_s));
          ]
        @ pipeline_coverage ops spans
  in
  { ops; traces = Option.to_list ctx; layers; report }

(* ---------- workload: lump-j3 ---------- *)

type lump_setup = {
  md : Md.t;
  initial : Decomposed.t;
  specs : (string * State_lumping.mode * Decomposed.t list) array;
  family : Compositional.sweep_spec list;  (* the seeded sweep points *)
  point_names : string list;  (* which indicator each point carries *)
  first : (string, Md.t) Hashtbl.t;  (* first result per spec / point name *)
  setup_layers : (string * metric) list;  (* generation, traced in set-up *)
}

(* Threshold indicators "local state >= k" (or "< k") on level 2 or 3,
   the shape of the daemon's sweep rewards. *)
let indicator sizes (level, ge, k) =
  Decomposed.of_level ~sizes ~level (fun s -> if (if ge then s >= k else s < k) then 1.0 else 0.0)

let lump_setup o ctx =
  let g = generate ctx (Tandem.default ~jobs:3) in
  let setup_layers =
    match ctx with
    | None -> []
    | Some c ->
        let spans = top_spans c in
        let nodes, _ = Md.stats g.md in
        [
          ("san.explore_s", m "s" (span_median spans "san.explore"));
          ("san.states", m "count" (float_of_int (Statespace.size g.ex.Model.statespace)));
          ("md.build_s", m "s" (span_median spans "md.build"));
          ("md.nodes", m "count" (float_of_int (Array.fold_left ( + ) 0 nodes)));
          ("md.bytes", m "bytes" (float_of_int (Md.memory_bytes g.md)));
        ]
  in
  let sizes = Md.sizes g.md in
  let rng = Prng.fork (Prng.of_seed o.seed) 1 in
  let pool =
    Array.init 3 (fun _ ->
        let level = 2 + Prng.int rng 2 in
        (level, Prng.bool rng, 1 + Prng.int rng (sizes.(level - 1) - 1)))
  in
  let picks = List.init 6 (fun _ -> pool.(Prng.int rng 3)) in
  let name (l, ge, k) = Printf.sprintf "L%d%s%d" l (if ge then ">=" else "<") k in
  let st =
  {
    md = g.md;
    initial = g.initial;
    specs =
      [|
        ("ordinary-availability", State_lumping.Ordinary, [ g.avail ]);
        ("ordinary-msmq-jobs", State_lumping.Ordinary, [ g.msmq_jobs ]);
        ("exact", State_lumping.Exact, []);
      |];
    family =
      List.map
        (fun ind ->
          { Compositional.sweep_rewards = [ g.avail; indicator sizes ind ]; sweep_initial = g.initial })
        picks;
    point_names = List.map name picks;
    first = Hashtbl.create 16;
    setup_layers;
  }
  in
  (* One untimed lump per spec: the first results every later one must
     equal, and a warm start so the rounds time steady-state lumps. *)
  Array.iter
    (fun (name, mode, rewards) ->
      let r = Compositional.lump mode g.md ~rewards ~initial:g.initial in
      if name = "ordinary-availability" then
        account (classes r = expected_j3.lumped_levels)
          ("lump-j3 ordinary-availability levels " ^ ints (classes r));
      Hashtbl.add st.first name r.Compositional.lumped)
    st.specs;
  st

let lump_phase o st ~budget ~ctx =
  let md = st.md in
  let rng = Prng.fork (Prng.of_seed o.seed) (if ctx = None then 2 else 3) in
  let cold = ref [] and points = ref [] and deltas = ref [] and first_round = ref None in
  let cross = ref [] in
  let same what key lumped =
    match Hashtbl.find_opt st.first key with
    | None -> Hashtbl.add st.first key lumped
    | Some ref_md -> account (Md.equal ref_md lumped) (what ^ " differs from its first result")
  in
  let rounds =
    timed_loop budget (fun () ->
        let order = Array.init 3 Fun.id in
        shuffle rng order;
        let round_wall = ref 0.0 and round_deltas = ref [] in
        Array.iter
          (fun k ->
            let name, mode, rewards = st.specs.(k) in
            let (r, d), dt =
              Timer.time (fun () ->
                  with_deltas (fun () ->
                      span ctx "core.lump" (fun () ->
                          Compositional.lump mode md ~rewards ~initial:st.initial)))
            in
            round_wall := !round_wall +. dt;
            cold := dt :: !cold;
            round_deltas := d :: !round_deltas;
            same ("cold lump " ^ name) name r.Compositional.lumped)
          order;
        let (results, d), dt =
          Timer.time (fun () ->
              with_deltas (fun () ->
                  span ctx "core.lump_sweep" (fun () ->
                      Compositional.lump_sweep State_lumping.Ordinary md ~points:st.family)))
        in
        round_wall := !round_wall +. dt;
        points := (dt /. float_of_int (List.length st.family)) :: !points;
        cross := float_of_int (List.assoc "key_cache.cross_bind_hits" d) :: !cross;
        deltas := d :: !round_deltas @ !deltas;
        if !first_round = None then first_round := Some (sum_deltas !round_deltas);
        List.iteri
          (fun i (name, r) ->
            same (Printf.sprintf "sweep point %d (%s)" i name) ("point " ^ name)
              r.Compositional.lumped)
          (List.combine st.point_names results);
        !round_wall)
  in
  let report =
    [
      ("lump_s", p50_s !cold);
      ("sweep_point_s", p50_s !points);
      ("peak_heap_mb", peak_heap ());
    ]
  in
  let layers =
    match ctx with
    | None -> []
    | Some c ->
        let spans = top_spans c in
        [
          ("core.lump_s", m "s" (span_median spans "core.lump"));
          ("core.sweep_point_s", m "s" (median !points));
          ("core.cross_bind_hits", m "count" (median !cross));
        ]
        @ cache_metrics (sum_deltas !deltas)
        @ partition_metrics (Option.get !first_round)
        @ pipeline_coverage rounds spans
  in
  { ops = !cold; traces = Option.to_list ctx; layers; report }

(* Every sweep point must equal a one-shot lump of its spec. *)
let check_sweep_points st =
  let by_name = List.combine st.point_names st.family in
  List.iter
    (fun name ->
      match Hashtbl.find_opt st.first ("point " ^ name) with
      | None -> ()
      | Some swept ->
          let p = List.assoc name by_name in
          let one_shot =
            Compositional.lump State_lumping.Ordinary st.md
              ~rewards:p.Compositional.sweep_rewards ~initial:p.Compositional.sweep_initial
          in
          account (Md.equal swept one_shot.Compositional.lumped)
            ("sweep point " ^ name ^ " differs from a one-shot lump"))
    (List.sort_uniq String.compare st.point_names)

(* ---------- workload: serve-mixed ---------- *)

let model_name = "bench-tandem"

(* The small tandem instance bench/loadgen serves: J = 1, hyper_dim 2. *)
let serve_params = [ ("jobs", 1); ("hyper_dim", 2) ]

type daemon = {
  pid : int;
  sock : string;
  out : Unix.file_descr;  (* the daemon's stdout *)
  access_log : string option;
}

(* Read one line from [fd], giving up after [timeout] seconds. *)
let read_line_timeout fd timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 80 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ ->
              if Bytes.get byte 0 = '\n' then Some (Buffer.contents buf)
              else begin
                Buffer.add_char buf (Bytes.get byte 0);
                go ()
              end)
  in
  try go () with Unix.Unix_error _ -> None

type conn = { fd : Unix.file_descr; reader : P.reader }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; reader = P.reader fd }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request on [c], as [Mdl_serve.Client.request] does it, with the
   self-test faults applied to the reply frame: [`Drop] discards it and
   waits for one that never comes, [`Malformed] truncates it. *)
let request ?(timeout = 30.0) ?fault c verb id =
  let rq = { P.rq_id = Some id; rq_deadline_ms = None; rq_trace = false; rq_verb = verb } in
  match P.write_frame c.fd (Json.to_string (P.request_to_json rq)) with
  | exception Unix.Unix_error (e, _, _) -> Error ("send failed: " ^ Unix.error_message e)
  | () -> (
      let read timeout =
        let deadline = Unix.gettimeofday () +. timeout in
        P.read_frame ~stop:(fun () -> Unix.gettimeofday () > deadline) c.reader
      in
      let frame =
        match (read timeout, fault) with
        | Ok _, Some `Drop -> read 1.0
        | Ok payload, Some `Malformed -> Ok (String.sub payload 0 (String.length payload / 2))
        | r, _ -> r
      in
      match frame with
      | Ok payload -> P.response_of_string payload
      | Error P.Stopped -> Error "timed out waiting for the reply"
      | Error P.Eof | Error P.Truncated -> Error "daemon closed the connection"
      | Error (P.Oversized n) -> Error (Printf.sprintf "oversized reply (%d bytes)" n)
      | Error (P.Malformed msg) -> Error ("malformed frame: " ^ msg))

let submit_verb =
  P.Submit_model
    { sm_model = model_name; sm_family = P.Tandem; sm_size = None; sm_params = serve_params }

(* Spawn lumpd with its shipped defaults (plus a socket inside the
   checkout and, when asked, an access log), wait until it listens and
   submit the model.  Returns the daemon, the model's level sizes and
   the submit latency. *)
let start_daemon o ~tag ~access_log =
  let file ext = Filename.concat o.out_dir (Printf.sprintf "lumpd-%d-%s.%s" (Unix.getpid ()) tag ext) in
  let sock = file "sock" in
  let log = if access_log then Some (file "access.log") else None in
  let args =
    [ o.lumpd; "--socket"; sock ] @ match log with Some l -> [ "--access-log"; l ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile (file "err") [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process o.lumpd (Array.of_list args) Unix.stdin wr err in
  Unix.close wr;
  Unix.close err;
  let d = { pid; sock; out = rd; access_log = log } in
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    failwith msg
  in
  (match read_line_timeout rd 60.0 with
  | Some l when String.length l >= 15 && String.sub l 0 15 = "lumpd listening" -> ()
  | _ -> fail "lumpd did not report that it listens");
  let c = connect sock in
  let reply, submit_s = Timer.time (fun () -> request c submit_verb "submit") in
  close_conn c;
  match reply with
  | Ok { P.resp_body = Ok (P.Model_info mi); _ } -> (d, Array.of_list mi.P.mi_level_sizes, submit_s)
  | _ -> fail "model submit failed"

let vm_hwm_mb pid =
  try
    let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
    let rec find () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
      | _ -> find ()
      | exception End_of_file -> nan
    in
    Fun.protect ~finally:(fun () -> close_in ic) find
  with Sys_error _ -> nan

(* Ask the daemon to drain, wait for it to exit; kill it if it hangs. *)
let stop_daemon d =
  (try
     let c = connect d.sock in
     ignore (request ~timeout:10.0 c P.Shutdown "shutdown");
     close_conn c
   with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec drain () =
    match read_line_timeout d.out (deadline -. Unix.gettimeofday ()) with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ();
  (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
  | _ -> ());
  Unix.close d.out

type serve_setup = {
  mutable daemon : daemon;
  verbs : P.verb array;  (* one cycle of the mix *)
  samples : float list;  (* set-up latencies *)
  submits : float list;
}

let serve_setup o =
  let runs =
    List.init 3 (fun i ->
        let t0 = Timer.now_ns () in
        let d, sizes, submit_s = start_daemon o ~tag:(string_of_int i) ~access_log:false in
        (d, sizes, submit_s, since_s t0))
  in
  (* Keep the last daemon for the timed phase. *)
  List.iteri (fun i (d, _, _, _) -> if i < 2 then stop_daemon d) runs;
  let d, sizes, _, _ = List.nth runs 2 in
  let rng = Prng.fork (Prng.of_seed o.seed) 4 in
  let spec () =
    let level = 2 + Prng.int rng 2 in
    { P.ind_level = level; ind_ge = Prng.bool rng; ind_k = 1 + Prng.int rng (sizes.(level - 1) - 1) }
  in
  let verbs =
    [|
      P.Ping { pg_sleep_ms = 0 };
      P.Lump { lp_model = model_name; lp_mode = P.Ordinary; lp_extra = [] };
      P.Stats;
      P.Sweep
        { sw_model = model_name; sw_points = List.init 2 (fun _ -> { P.pt_extra = [ spec () ] }) };
      P.Solve { sv_model = model_name; sv_solver = P.Power };
    |]
  in
  {
    daemon = d;
    verbs;
    samples = List.map (fun (_, _, _, s) -> s) runs;
    submits = List.map (fun (_, _, s, _) -> s) runs;
  }

type sample = {
  verb : P.verb;
  latency : float;
  reply : (P.response, string) result;
  id : string;
}

(* A closed loop: each cycle sends every verb once, in a fresh seeded
   order, so the two connections meet in every pairing over a run. *)
let client_loop o st ~conn ~deadline ~ctx =
  let c = ref (connect st.daemon.sock) in
  let rng = Prng.fork (Prng.of_seed o.seed) (10 + conn + if ctx = None then 0 else 2) in
  let cycle = Array.copy st.verbs in
  let n = Array.length cycle in
  let out = ref [] and i = ref 0 in
  while Timer.now_ns () < deadline do
    if !i mod n = 0 then shuffle rng cycle;
    let verb = cycle.(!i mod n) in
    let id = Printf.sprintf "c%d-%d" conn !i in
    let fault =
      if conn = 0 && !i = 2 then
        match o.inject with
        | Some "drop-reply" -> Some `Drop
        | Some "malformed-reply" -> Some `Malformed
        | _ -> None
      else None
    in
    let reply, latency =
      Timer.time (fun () ->
          span ctx ("serve." ^ P.verb_name verb) (fun () -> request ?fault !c verb id))
    in
    out := { verb; latency; reply; id } :: !out;
    (* A failed exchange leaves the connection out of step: start over. *)
    if Result.is_error reply then begin
      close_conn !c;
      c := connect st.daemon.sock
    end;
    incr i
  done;
  close_conn !c;
  List.rev !out

(* The served model, built in-process for reference answers. *)
let serve_reference () =
  Tandem.build { (Tandem.default ~jobs:1) with hyper_dim = 2; msmq_servers = 3; msmq_queues = 4 }

let check_serve o samples =
  let b = serve_reference () in
  let md = b.Tandem.md and ss = b.Tandem.exploration.Model.statespace in
  let sizes = Md.sizes md in
  let base = [ b.Tandem.rewards_availability; b.Tandem.rewards_msmq_jobs ] in
  let memo = Hashtbl.create 8 in
  (* (lumped states, classes per level) of an ordinary lump with extra
     indicators, keyed by the specs. *)
  let lumped extra =
    match Hashtbl.find_opt memo extra with
    | Some x -> x
    | None ->
        let rewards =
          List.map
            (fun (r : P.reward_spec) -> indicator sizes (r.P.ind_level, r.P.ind_ge, r.P.ind_k))
            extra
          @ base
        in
        let r = Compositional.lump State_lumping.Ordinary md ~rewards ~initial:b.Tandem.initial in
        let x = (Statespace.size (Compositional.lump_statespace r ss), classes r) in
        Hashtbl.add memo extra x;
        x
  in
  let measures =
    lazy
      (let r = Compositional.lump State_lumping.Ordinary md ~rewards:base ~initial:b.Tandem.initial in
       let lss = Compositional.lump_statespace r ss in
       let pi, _ = Md_solve.steady_state ~tol:1e-12 ~max_iter:500_000 r.Compositional.lumped lss in
       let value d =
         Solver.expected_reward pi (Decomposed.to_vector (Compositional.lumped_rewards r d) lss)
       in
       [
         ("availability", value b.Tandem.rewards_availability);
         ("msmq jobs", value b.Tandem.rewards_msmq_jobs);
       ])
  in
  List.iter
    (fun s ->
      let errs = ref [] in
      (match s.reply with
      | Error msg -> expect errs false "%s" msg
      | Ok resp -> (
          expect errs (resp.P.resp_id = Some s.id) "reply id does not echo the request";
          match (s.verb, resp.P.resp_body) with
          | _, Error (code, msg) -> expect errs false "%s: %s" (P.error_code_string code) msg
          | P.Ping _, Ok P.Pong | P.Stats, Ok (P.Stats_result _) -> ()
          | P.Lump l, Ok (P.Lump_result lr) ->
              let n, cls = lumped l.P.lp_extra in
              expect errs (lr.P.lr_lumped_states = n && lr.P.lr_classes = cls)
                "lumped %d (%s), in-process %d (%s)" lr.P.lr_lumped_states (ints lr.P.lr_classes)
                n (ints cls)
          | P.Sweep sw, Ok (P.Sweep_result sr) ->
              expect errs (List.length sr.P.sr_points = List.length sw.P.sw_points) "point count";
              List.iter2
                (fun (pt : P.point) (pr : P.point_result) ->
                  let n, cls = lumped pt.P.pt_extra in
                  expect errs (pr.P.pr_lumped_states = n && pr.P.pr_classes = cls)
                    "sweep point lumped %d, in-process %d" pr.P.pr_lumped_states n)
                sw.P.sw_points sr.P.sr_points
          | P.Solve _, Ok (P.Solve_result so) ->
              expect errs so.P.so_converged "solve did not converge";
              List.iter
                (fun (name, want) ->
                  match List.assoc_opt name so.P.so_measures with
                  | Some got ->
                      let got = if injected o "perturb-measure" then got +. 2e-9 else got in
                      expect errs
                        (Float.abs (got -. want) <= 1e-9)
                        "%s %.12f, in-process %.12f" name got want
                  | None -> expect errs false "measure %s missing" name)
                (Lazy.force measures)
          | _ -> expect errs false "reply of the wrong kind"));
      account_errs ("serve " ^ s.id ^ " " ^ P.verb_name s.verb) errs)
    samples

let access_log_entries path =
  try
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> (
          let j = Json.parse line in
          let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
          let secs k =
            match Json.member k j with Some (Json.Int n) -> float_of_int n /. 1e9 | _ -> 0.0
          in
          (* Only the timed loop's requests (ids "c<conn>-<i>"). *)
          let id = str "id" in
          if String.length id > 0 && id.[0] = 'c' then
            go ((str "verb", secs "queue_ns", secs "exec_ns") :: acc)
          else go acc)
      | exception End_of_file -> List.rev acc
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])
  with Sys_error _ | Json.Parse_error _ -> []

let verb_names = [ "ping"; "lump"; "stats"; "sweep"; "solve" ]

let serve_phase o st ~budget ~traced =
  if traced then begin
    let d, _, _ = start_daemon o ~tag:"traced" ~access_log:true in
    st.daemon <- d
  end;
  let ctxs = Array.init 2 (fun _ -> if traced then Some (new_ctx ()) else None) in
  let t0 = Timer.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (budget *. 1e9)) in
  let results = Array.make 2 [] in
  let threads =
    List.init 2 (fun conn ->
        Thread.create
          (fun () ->
            results.(conn) <-
              (try client_loop o st ~conn ~deadline ~ctx:ctxs.(conn)
               with Unix.Unix_error (e, _, _) ->
                 let reply = Error (Unix.error_message e) in
                 [ { verb = P.Stats; latency = 0.0; reply; id = "connect" } ]))
          ())
  in
  List.iter Thread.join threads;
  let wall = since_s t0 in
  let samples = results.(0) @ results.(1) in
  (* Daemon-side figures, read before shutdown. *)
  let stats =
    try
      let c = connect st.daemon.sock in
      let r = request c P.Stats "final-stats" in
      close_conn c;
      match r with Ok { P.resp_body = Ok (P.Stats_result x); _ } -> Some x | _ -> None
    with Unix.Unix_error _ -> None
  in
  let rss = vm_hwm_mb st.daemon.pid in
  stop_daemon st.daemon;
  check_serve o samples;
  (match stats with
  | Some x ->
      account (x.P.st_protocol_errors = 0)
        (Printf.sprintf "daemon counted %d protocol errors" x.P.st_protocol_errors)
  | None -> account false "final stats request failed");
  let completed = List.length (List.filter (fun s -> Result.is_ok s.reply) samples) in
  let latencies v =
    List.filter_map
      (fun s ->
        if P.verb_name s.verb = v && Result.is_ok s.reply then Some s.latency else None)
      samples
  in
  let ms x = x *. 1000.0 in
  let ping_p, ping_tail, ping_beyond = tail (latencies "ping") in
  let rps = float_of_int completed /. wall in
  let report =
    [
      ("serve_rps", m "req/s" rps);
      ("solve_p50_ms", p50_ms (latencies "solve"));
      ("ping_p50_ms", p50_ms (latencies "ping"));
      ("ping_tail_ms", m ~pct:(ping_p, ping_beyond) "ms" (ms ping_tail));
      ("server_peak_rss_mb", m "MB" rss);
    ]
  in
  let layers =
    if not traced then []
    else
      let spans = List.concat_map (fun c -> top_spans (Option.get c)) (Array.to_list ctxs) in
      let span_l v = List.concat_map (fun (n, l) -> if n = "serve." ^ v then l else []) spans in
      let log = match st.daemon.access_log with Some f -> access_log_entries f | None -> [] in
      (* Queue and execution times per request come from the access
         log: the stats verb's quantiles interpolate inside histogram
         buckets and read the same value run after run. *)
      let p50 name v pick =
        let l = List.filter_map (fun (verb, q, e) -> if verb = v then Some (pick q e) else None) log in
        (Printf.sprintf "serve.%s.%s_p50_ms" v name, p50_ms l)
      in
      let covered = span_total spans in
      List.concat_map
        (fun v ->
          [ (Printf.sprintf "serve.%s.client_p50_ms" v, p50_ms (span_l v)) ]
          @ (if v = "stats" then [] else [ p50 "queue" v (fun q _ -> q) ])
          @ [ p50 "exec" v (fun _ e -> e) ])
        verb_names
      @ [
          ("serve.ping.client_tail_ms", m ~pct:(ping_p, ping_beyond) "ms" (ms ping_tail));
          (* Execution-slot time only: stats runs beside the slot. *)
          ( "serve.busy_ratio",
            m "ratio"
              (List.fold_left (fun acc (v, _, e) -> if v = "stats" then acc else acc +. e) 0.0 log
              /. wall) );
          ("serve.submit_s", m "s" (median st.submits));
        ]
      @ coverage_metrics ~wall:(2.0 *. wall) ~covered ~ops:(List.length samples)
  in
  {
    ops = [ wall /. float_of_int (max 1 completed) ];
    traces = List.filter_map Fun.id (Array.to_list ctxs);
    layers;
    report;
  }

(* ---------- main ---------- *)

let json_of_metrics l = Json.Obj (List.map (fun (k, x) -> (k, metric_json x)) l)

let floats l = Json.List (List.map (fun x -> Json.Float x) l)

let () =
  let o = parse_opts () in
  (try Unix.mkdir o.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let budget = if o.trace then o.seconds /. 2.0 else o.seconds in
  let setup_ctx = if o.trace then Some (new_ctx ()) else None in
  let pipeline run = fun ~traced -> run ~ctx:(if traced then Some (new_ctx ()) else None) in
  let samples, phase, finish, setup_layers =
    match o.workload with
    | "table1-j3" -> ([ since_s o.t0_ns ], pipeline (table1 o ~budget), ignore, [])
    | "solve-j2" -> ([ since_s o.t0_ns ], pipeline (solve o ~budget), ignore, [])
    | "lump-j3" ->
        let st = lump_setup o setup_ctx in
        ( [ since_s o.t0_ns ],
          pipeline (lump_phase o st ~budget),
          (fun () -> check_sweep_points st),
          st.setup_layers )
    | "serve-mixed" ->
        let st = serve_setup o in
        (st.samples, serve_phase o st ~budget, ignore, [])
    | w ->
        Printf.eprintf "mdbench: unknown workload %S\n" w;
        exit 2
  in
  if o.probe then begin
    print_endline (Json.to_string (Json.Obj [ ("setup_samples", floats samples) ]));
    exit 0
  end;
  let p1 = phase ~traced:false in
  let p2 =
    if o.trace then begin
      Metrics.set_enabled true;
      Some (phase ~traced:true)
    end
    else None
  in
  finish ();
  if o.workload <> "serve-mixed" then check_rewards ();
  let peak =
    match List.assoc_opt "server_peak_rss_mb" p1.report with
    | Some x -> x
    | None -> List.assoc "peak_heap_mb" p1.report
  in
  let per_layer =
    match p2 with
    | None -> []
    | Some p2 ->
        List.iteri (write_trace o) (Option.to_list setup_ctx @ p2.traces);
        setup_layers @ p2.layers
        @ [ ("obs.trace_overhead_ratio", m "ratio" (median p2.ops /. median p1.ops)) ]
  in
  let out =
    Json.Obj
      [
        ("workload", Json.Str o.workload);
        ("seed", Json.Int o.seed);
        ("ocaml", Json.Str Sys.ocaml_version);
        ("setup_samples", floats samples);
        ("ops", floats p1.ops);
        ( "end_to_end",
          json_of_metrics [ ("op_s", m "s" (median p1.ops)); ("peak_mb", { peak with pct = None }) ]
        );
        ("report", json_of_metrics p1.report);
        ("per_layer", json_of_metrics per_layer);
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ("failures", Json.List (List.rev_map (fun s -> Json.Str s) !failures));
      ]
  in
  print_endline (Json.to_string out)
