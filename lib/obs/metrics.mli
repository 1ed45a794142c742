(** A process-wide registry of named counters, gauges and histograms.

    Instrumented modules register their metrics statically at module
    initialisation ([let m = Metrics.counter "refiner.splits"]) and bump
    them at runtime; registration is idempotent by name, so two modules
    naming the same metric share one cell.  All update operations are
    no-ops while the registry is {e disabled} (the default) — the cost
    of an instrumentation site is then one bool load and branch — and
    reads ({!counter_value}, {!pp}, {!to_json}) work regardless.

    The registry is the single counter source of the lumping pipeline:
    the refinement engine, the splitter-key cache and the rebuild
    publish under the [refiner.*] / [key_cache.*] / [rebuild.*] names,
    and callers that want one run's numbers read {!counter_value}
    deltas around it (what [lumpmd --stats] prints).

    Domain-safe: counters and gauges are [Atomic.t] cells ({!set_max}
    is a CAS loop), histograms shard their buckets by domain id and
    merge the shards on read, and the registry itself is mutex-guarded
    — so [--stats]/[--metrics] stay exact when refinement runs on a
    {!Mdl_util.Domain_pool}.  Disabled-mode updates remain one atomic
    load and a branch. *)

type counter

type gauge

type histogram

val set_enabled : bool -> unit
(** Turn metric updates on or off (off by default). *)

val enabled : unit -> bool

(** {2 Counters — monotone integers} *)

val counter : string -> counter
(** The registered counter of that name (created zero on first use).
    @raise Invalid_argument if the name is registered as another kind. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : string -> int
(** Current value, [0] when the name is unregistered. *)

(** {2 Gauges — last/extremal float values} *)

val gauge : string -> gauge
(** @raise Invalid_argument if the name is registered as another kind. *)

val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Keep the maximum of the current and given value — for high-water
    marks like the interned-key alphabet. *)

val gauge_value : string -> float
(** Current value, [0.] when the name is unregistered or never set. *)

(** {2 Histograms — bucketed distributions} *)

val log_buckets : lo:float -> hi:float -> per_decade:int -> float array
(** Logarithmically spaced upper bounds from [lo] to at least [hi] with
    [per_decade] buckets per decade — the bucket layout used for
    key-evaluation and sort latencies (seconds span many orders of
    magnitude; linear buckets would waste all resolution on one end).
    @raise Invalid_argument unless [0 < lo < hi] and [per_decade >= 1]. *)

val histogram : ?buckets:float array -> string -> histogram
(** The registered histogram of that name.  [buckets] are strictly
    increasing upper bounds; observations above the last bound land in
    an implicit overflow bucket.  Defaults to
    [log_buckets ~lo:1e-7 ~hi:10.0 ~per_decade:3] (100ns .. 10s).
    @raise Invalid_argument if the name is registered as another kind,
    or re-registered with different bounds. *)

val observe : histogram -> float -> unit

val histogram_stats : string -> int * float
(** [(count, sum)] of the named histogram; [(0, 0.)] when
    unregistered. *)

val histogram_buckets : string -> (float * int) array
(** [(upper_bound, count)] per bucket, the overflow bucket last with
    bound [infinity]; [[||]] when unregistered. *)

type hist_snapshot = {
  hs_bounds : float array;  (** strictly increasing finite upper bounds *)
  hs_counts : int array;  (** per-bucket counts, overflow bucket last *)
  hs_count : int;  (** total observations, [= sum of hs_counts] *)
  hs_sum : float;  (** sum of observed values *)
}
(** One consistent read of a histogram: bounds, non-cumulative bucket
    counts (one more than bounds — the overflow bucket is last), total
    count and sum.  All shards are merged under their locks in a single
    pass, so [hs_count] always equals the sum of [hs_counts] even while
    other domains keep observing. *)

val histogram_snapshot : string -> hist_snapshot option
(** Snapshot of the named histogram; [None] when unregistered.  The
    arrays are fresh copies — callers may mutate them. *)

val snapshot_quantile : hist_snapshot -> float -> float
(** [snapshot_quantile s q] estimates the [q]-quantile ([0 <= q <= 1],
    clamped) from the bucket counts by linear interpolation within the
    winning bucket — the same estimate as Prometheus'
    [histogram_quantile].  Ranks landing in the overflow bucket degrade
    to the largest finite bound; [0.] on an empty snapshot. *)

(** {2 Registry} *)

val reset : unit -> unit
(** Zero every registered metric, keeping the registrations (module
    initialisers only run once). *)

val names : unit -> string list
(** Registered metric names in registration order. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable dump of every registered metric with a non-zero
    value, in registration order ([lumpmd --metrics]).  Histograms print
    count/sum/mean plus their non-empty buckets. *)

val to_json : Buffer.t -> unit
(** Append a JSON object [{"counters": {...}, "gauges": {...},
    "histograms": {...}}] with every registered metric. *)

val to_prometheus : Buffer.t -> unit
(** Append every registered metric in the Prometheus {e text exposition
    format} (version 0.0.4) — the body served by [lumpd]'s
    [GET /metrics] endpoint.  Registry names are sanitised to the
    Prometheus grammar (dots and dashes become underscores, so
    [serve.request_seconds] scrapes as [serve_request_seconds]);
    counters and gauges emit one sample each, histograms emit the
    cumulative [_bucket{le="..."}] series (the implicit overflow bucket
    as [le="+Inf"]) plus [_sum] and [_count].  Zero-valued metrics are
    included — a scraper sees every registered series from the first
    scrape. *)
