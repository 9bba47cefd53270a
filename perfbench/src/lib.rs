//! The repository benchmark: host time to regenerate the paper's grid,
//! the open-loop serving campaign and the 1000-host fleet campaign, end
//! to end (`--trace 0`) and layer by layer (`--trace 1`).
//!
//! The end-to-end run measures with tracing off. The traced run is a
//! separate invocation: it times each layer's public calls with kernels
//! fed from the workload's own scenarios, reads the layers' counters, and
//! attributes the wall of traced passes to layers through spans.

pub mod digest;
pub mod kernels;
pub mod measure;
pub mod run;
pub mod trace;
pub mod workloads;

/// One metric's declaration: name, unit, which direction is better.
pub type MetricDecl = (&'static str, &'static str, &'static str);

/// The end-to-end metrics (`--trace 0`), as `BENCHMARK.json` declares
/// them.
pub const END_TO_END: [MetricDecl; 6] = [
    ("wall_s", "s", "lower"),
    ("sim_s_per_s", "s/s", "higher"),
    ("run_ms.p50", "ms", "lower"),
    ("run_ms.tail", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Layers as spans name them, with their self-time metric.
pub const LAYERS: [(&str, &str); 10] = [
    ("sim", "self_ms.sim"),
    ("xen", "self_ms.xen"),
    ("guest", "self_ms.guest"),
    ("workloads", "self_ms.workloads"),
    ("core", "self_ms.core"),
    ("runner", "self_ms.runner"),
    ("pool", "self_ms.pool"),
    ("fleet", "self_ms.fleet"),
    ("metrics", "self_ms.metrics"),
    ("bench", "self_ms.bench"),
];

/// The per-layer metrics (`--trace 1`), as `BENCHMARK.json` declares them.
pub const PER_LAYER: [MetricDecl; 48] = [
    ("sim.queue_ns_per_op", "ns", "lower"),
    ("xen.tick_ns", "ns", "lower"),
    ("xen.wake_ns", "ns", "lower"),
    ("xen.sched_op_ns", "ns", "lower"),
    ("xen.schedules", "count", "lower"),
    ("xen.preemptions", "count", "lower"),
    ("xen.wakes", "count", "lower"),
    ("xen.sa_sent", "count", "lower"),
    ("xen.ple_exits", "count", "lower"),
    ("xen.sa_ack_ratio", "ratio", "higher"),
    ("guest.tick_ns", "ns", "lower"),
    ("guest.idle_balance_ns", "ns", "lower"),
    ("guest.context_switches", "count", "lower"),
    ("guest.wakeups", "count", "lower"),
    ("guest.sa_migrations", "count", "lower"),
    ("guest.sa_idle_target_ratio", "ratio", "higher"),
    ("workloads.step_ns", "ns", "lower"),
    ("workloads.steps", "count", "higher"),
    ("core.ns_per_event", "ns", "lower"),
    ("core.events", "count", "lower"),
    ("core.snapshot_us", "us", "lower"),
    ("core.resume_us", "us", "lower"),
    ("core.snapshot_kib", "KiB", "lower"),
    ("runner.cached_grid_ms.miss", "ms", "lower"),
    ("runner.cached_grid_ms.hit", "ms", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.resident_mib", "MiB", "lower"),
    ("cache.evictions", "count", "lower"),
    ("fleet.place_ns", "ns", "lower"),
    ("fleet.host_runs", "count", "lower"),
    ("fleet.runs_elided", "count", "higher"),
    ("fleet.hosts_carried", "count", "higher"),
    ("fleet.fork_warmup_saved", "count", "higher"),
    ("fleet.elision_ratio", "ratio", "higher"),
    ("pool.cpu_util", "ratio", "higher"),
    ("metrics.percentile_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("self_ms.sim", "ms", "lower"),
    ("self_ms.xen", "ms", "lower"),
    ("self_ms.guest", "ms", "lower"),
    ("self_ms.workloads", "ms", "lower"),
    ("self_ms.core", "ms", "lower"),
    ("self_ms.runner", "ms", "lower"),
    ("self_ms.pool", "ms", "lower"),
    ("self_ms.fleet", "ms", "lower"),
    ("self_ms.metrics", "ms", "lower"),
    ("self_ms.bench", "ms", "lower"),
];
