//! The measured run, the traced run, and re-pinning the references.

use crate::digest::{failed_ops, parse_references, reference_line, REFERENCES, REFERENCES_HEADER};
use crate::kernels;
use crate::measure::{median, peak_rss_mib, process_cpu_s, quantile};
use crate::trace;
use crate::workloads::{Inputs, Kind, Pass, Results, Workload};
use crate::{END_TO_END, LAYERS, PER_LAYER};
use irs_core::runner::ForkCacheStats;
use irs_core::{RunResult, Scenario};
use irs_sim::SimTime;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions before each pass; `setup_s` is the median of all.
const SETUP_REPS: usize = 5;

/// Fewest untraced and traced passes of the traced run, each.
const TRACED_PASSES: usize = 3;

/// Virtual warmup before snapshots and cached-grid branches (the fleet's).
const WARMUP: SimTime = SimTime::from_millis(50);

/// A finished run: the result line's fields plus what is printed above
/// it.
#[derive(Debug)]
pub struct Report {
    /// Every op matched its reference.
    pub correct: bool,
    /// Ops run.
    pub attempted: u64,
    /// Ops that panicked, broke their contract or missed the reference.
    pub failed: u64,
    /// Metric name → value, in the declared order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The simulated headline of the last pass.
    pub headline: String,
    /// Run facts for the metadata line (JSON object members).
    pub meta: Vec<(String, String)>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The metadata line printed before the result line.
    pub fn meta_json(&self) -> String {
        let m: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", m.join(", "))
    }
}

/// A JSON number; non-finite values (an empty sample) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Checks passes against the pinned references: (attempted, failed).
struct Checker {
    reference: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(w: &Workload) -> Result<Self, String> {
        let refs = parse_references(REFERENCES)?;
        let reference = refs
            .get(w.kind.name())
            .and_then(|m| m.get(&w.slot))
            .cloned()
            .ok_or_else(|| format!("no pinned reference for {} slot {}", w.kind.name(), w.slot))?;
        Ok(Checker {
            reference,
            attempted: 0,
            failed: 0,
        })
    }

    fn check(&mut self, pass: &Pass) {
        self.attempted += pass.digests.len() as u64;
        self.failed += failed_ops(&self.reference, &pass.checked()).len() as u64;
    }
}

fn base_meta(w: &Workload, cli_seed: u64) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload".into(), format!("\"{}\"", w.kind.name())),
        ("seed".into(), cli_seed.to_string()),
        ("input_slot".into(), w.slot.to_string()),
        ("input_seed".into(), w.input_seed().to_string()),
        ("nproc".into(), nproc.to_string()),
        ("jobs".into(), w.jobs.to_string()),
    ]
}

/// The end-to-end run: passes for `seconds` (and at least the workload's
/// minimum), each after [`SETUP_REPS`] set-ups, tracing off.
pub fn measured(w: &Workload, cli_seed: u64, seconds: f64) -> Result<Report, String> {
    let mut checker = Checker::new(w)?;
    let t = Instant::now();
    let (mut walls, mut rates, mut run_ms, mut setup_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut headline = String::new();
    let mut peak_rss = f64::NAN;
    while walls.len() < w.kind.min_passes() || t.elapsed().as_secs_f64() < seconds {
        // Set-ups are spread over the run like the passes, so their median
        // sees the same host conditions rather than one instant's.
        let mut inputs = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            inputs = Some(w.setup());
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let inputs = inputs.expect("at least one set-up");
        let pass = w.pass(&inputs, trace::ROOT);
        checker.check(&pass);
        walls.push(pass.wall_s);
        if walls.len() == 1 {
            // Set-up plus one pass: a fixed amount of work, so the reading
            // does not drift with how many passes a run fits in.
            peak_rss = peak_rss_mib();
        }
        rates.push(pass.sim_s / pass.wall_s);
        run_ms.extend_from_slice(&pass.run_ms);
        headline = pass.headline;
    }
    let tail = w.kind.tail_pct();
    let values = [
        median(&walls),
        median(&rates),
        quantile(&run_ms, 0.5),
        quantile(&run_ms, tail / 100.0),
        peak_rss,
        median(&setup_s),
    ];
    let mut meta = base_meta(w, cli_seed);
    meta.push(("passes".into(), walls.len().to_string()));
    meta.push(("runs".into(), run_ms.len().to_string()));
    meta.push(("run_ms.tail_percentile".into(), json_num(tail)));
    meta.push(("setups".into(), setup_s.len().to_string()));
    Ok(Report {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u, _), v)| (n, u, v))
            .collect(),
        headline,
        meta,
    })
}

/// Counters summed over host runs.
#[derive(Debug, Default)]
struct Counts {
    schedules: u64,
    preemptions: u64,
    wakes: u64,
    sa_sent: u64,
    sa_acked: u64,
    ple_exits: u64,
    context_switches: u64,
    wakeups: u64,
    sa_migrations: u64,
    sa_idle_targets: u64,
    events: u64,
}

impl Counts {
    fn add(&mut self, r: &RunResult) {
        let hv = &r.hv;
        self.schedules += hv.schedules;
        self.preemptions += hv.preemptions;
        self.wakes += hv.wakes;
        self.sa_sent += hv.sa_sent;
        self.sa_acked += hv.sa_acked;
        self.ple_exits += hv.ple_exits;
        for vm in &r.vms {
            self.context_switches += vm.guest.context_switches;
            self.wakeups += vm.guest.wakeups;
            self.sa_migrations += vm.guest.sa_migrations;
            self.sa_idle_targets += vm.guest.sa_idle_targets;
        }
        self.events += r.events;
    }
}

/// What the layer kernels measured.
struct KernelTimes {
    queue_ns: f64,
    xen: kernels::XenTimes,
    guest: kernels::GuestTimes,
    step_ns: f64,
    steps: u64,
    snap: kernels::SnapshotTimes,
    grid_miss_ms: f64,
    grid_hit_ms: f64,
    grid_cache: ForkCacheStats,
    place_ns: f64,
}

/// Runs every layer kernel on the workload's kernel scenarios.
fn run_kernels(w: &Workload, inputs: &Inputs, scenarios: &[Scenario], seed: u64) -> KernelTimes {
    let segments = trace::span("bench", "segment lengths", trace::ROOT, |_| {
        kernels::segment_lengths(scenarios, seed)
    });
    let few = &scenarios[..scenarios.len().min(4)];
    let rebuild = |i: usize| w.kernel_scenarios(inputs).swap_remove(i);
    let (grid_miss_ms, grid_hit_ms, grid_cache) =
        kernels::cached_grid(w.jobs, WARMUP, scenarios.len(), rebuild);
    let shape = &scenarios[0];
    let (hosts, capacity, need) = match inputs {
        Inputs::Fleet(spec) => (
            spec.fleet.hosts,
            spec.fleet.capacity_vcpus(),
            spec.fleet.tenant_vcpus,
        ),
        Inputs::Grid { cells, .. } => (
            cells.len(),
            shape.vms.iter().map(|v| v.n_vcpus).sum(),
            shape.vms[0].n_vcpus,
        ),
    };
    let (step_ns, steps) = kernels::interpreter(scenarios, seed);
    KernelTimes {
        queue_ns: kernels::queue_ns_per_op(scenarios, &segments),
        xen: kernels::xen_times(few),
        guest: kernels::guest_times(few),
        step_ns,
        steps,
        snap: kernels::snapshot_times(rebuild(scenarios.len() - 1), WARMUP),
        grid_miss_ms,
        grid_hit_ms,
        grid_cache,
        place_ns: kernels::place_ns(hosts, capacity, need, seed),
    }
}

/// Runs `f` with tracing on, adding the segment's length to `total_ns`.
fn traced_segment<T>(total_ns: &mut u64, f: impl FnOnce() -> T) -> T {
    trace::set_enabled(true);
    let start = trace::now_ns();
    let out = f();
    *total_ns += trace::now_ns() - start;
    trace::set_enabled(false);
    out
}

/// The traced run: with spans on, the layer kernels; then untraced and
/// traced passes alternately for `seconds` (the untraced ones give the
/// overhead baseline and the pool's CPU utilisation); per-layer metrics
/// from kernels, counters and spans.
pub fn traced(w: &Workload, cli_seed: u64, seconds: f64) -> Result<Report, String> {
    let mut checker = Checker::new(w)?;
    let inputs = w.setup();
    let seed = w.input_seed();
    let mut traced_ns = 0u64;
    let t = Instant::now();

    let scenarios = traced_segment(&mut traced_ns, || {
        trace::span("bench", "kernel inputs", trace::ROOT, |_| {
            w.kernel_scenarios(&inputs)
        })
    });
    let k = traced_segment(&mut traced_ns, || run_kernels(w, &inputs, &scenarios, seed));

    let (mut untraced, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut cpu_s, mut last) = (0.0, None);
    while traced_walls.len() < TRACED_PASSES || t.elapsed().as_secs_f64() < seconds {
        let cpu0 = process_cpu_s();
        let pass = w.pass(&inputs, trace::ROOT);
        cpu_s += process_cpu_s() - cpu0;
        checker.check(&pass);
        untraced.push(pass.wall_s);
        let pass = traced_segment(&mut traced_ns, || {
            trace::span("bench", "pass", trace::ROOT, |id| w.pass(&inputs, id))
        });
        checker.check(&pass);
        traced_walls.push(pass.wall_s);
        last = Some(pass);
    }
    let cpu_util = cpu_s / (untraced.iter().sum::<f64>() * w.jobs as f64);
    let last = last.expect("at least one traced pass");

    // Counters of executed runs: the pass's own (grid workloads), or a
    // from-scratch run of the kernels' fleet hosts (the campaign does not
    // expose its host results).
    let mut counts = Counts::default();
    let mut run_ns = 0.0;
    let mut samples: Vec<f64> = Vec::new();
    match &last.results {
        Results::Runs(runs) => {
            for r in runs.iter().flatten() {
                counts.add(r);
                for vm in r.vms.iter().filter(|v| v.measured) {
                    samples.extend_from_slice(&vm.latencies_us);
                    if let Some(m) = vm.makespan {
                        samples.push(m.as_secs_f64() * 1e3);
                    }
                }
            }
            run_ns = last.run_ms.iter().sum::<f64>() * 1e6;
        }
        Results::Fleet(_) => {
            let n = scenarios.len();
            let probe = traced_segment(&mut traced_ns, || {
                trace::span("pool", "parallel::ordered_map", trace::ROOT, |fan| {
                    irs_core::parallel::ordered_map(w.jobs, n, |i| {
                        let t = Instant::now();
                        let r = trace::span("core", "Scenario::run", fan, |_| {
                            w.kernel_scenarios(&inputs).swap_remove(i).run()
                        });
                        (r, t.elapsed().as_nanos() as f64)
                    })
                })
            });
            for (r, ns) in &probe {
                counts.add(r);
                run_ns += ns;
                for vm in &r.vms {
                    samples.extend_from_slice(&vm.latencies_us);
                }
            }
        }
    }
    let percentile_ms = traced_segment(&mut traced_ns, || kernels::percentile_ms(&samples));
    let spans = trace::take();

    let (cache, host_runs, runs_elided, carried, warmup_saved, elision) = match &last.results {
        Results::Fleet(Some(r)) => {
            let executed = r.events - r.fork_warmup_saved - r.events_elided;
            (
                r.cache,
                r.host_runs as f64,
                r.runs_elided as f64,
                r.hosts_carried as f64,
                r.fork_warmup_saved as f64,
                ratio(r.events as f64, executed as f64),
            )
        }
        Results::Fleet(None) => (k.grid_cache, 0.0, 0.0, 0.0, 0.0, 0.0),
        Results::Runs(runs) => (k.grid_cache, runs.len() as f64, 0.0, 0.0, 0.0, 1.0),
    };

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("sim.queue_ns_per_op", k.queue_ns);
    v.insert("xen.tick_ns", k.xen.tick_ns);
    v.insert("xen.wake_ns", k.xen.wake_ns);
    v.insert("xen.sched_op_ns", k.xen.sched_op_ns);
    v.insert("xen.schedules", counts.schedules as f64);
    v.insert("xen.preemptions", counts.preemptions as f64);
    v.insert("xen.wakes", counts.wakes as f64);
    v.insert("xen.sa_sent", counts.sa_sent as f64);
    v.insert("xen.ple_exits", counts.ple_exits as f64);
    v.insert(
        "xen.sa_ack_ratio",
        ratio(counts.sa_acked as f64, counts.sa_sent as f64),
    );
    v.insert("guest.tick_ns", k.guest.tick_ns);
    v.insert("guest.idle_balance_ns", k.guest.idle_balance_ns);
    v.insert("guest.context_switches", counts.context_switches as f64);
    v.insert("guest.wakeups", counts.wakeups as f64);
    v.insert("guest.sa_migrations", counts.sa_migrations as f64);
    v.insert(
        "guest.sa_idle_target_ratio",
        ratio(counts.sa_idle_targets as f64, counts.sa_migrations as f64),
    );
    v.insert("workloads.step_ns", k.step_ns);
    v.insert("workloads.steps", k.steps as f64);
    v.insert("core.ns_per_event", ratio(run_ns, counts.events as f64));
    v.insert("core.events", counts.events as f64);
    v.insert("core.snapshot_us", k.snap.snapshot_us);
    v.insert("core.resume_us", k.snap.resume_us);
    v.insert("core.snapshot_kib", k.snap.kib);
    v.insert("runner.cached_grid_ms.miss", k.grid_miss_ms);
    v.insert("runner.cached_grid_ms.hit", k.grid_hit_ms);
    v.insert("cache.hit_rate", cache.hit_rate());
    v.insert(
        "cache.resident_mib",
        cache.resident_bytes as f64 / (1 << 20) as f64,
    );
    v.insert("cache.evictions", cache.evictions as f64);
    v.insert("fleet.place_ns", k.place_ns);
    v.insert("fleet.host_runs", host_runs);
    v.insert("fleet.runs_elided", runs_elided);
    v.insert("fleet.hosts_carried", carried);
    v.insert("fleet.fork_warmup_saved", warmup_saved);
    v.insert("fleet.elision_ratio", elision);
    v.insert("pool.cpu_util", cpu_util);
    v.insert("metrics.percentile_ms", percentile_ms);
    v.insert(
        "trace.overhead_s",
        median(&traced_walls) - median(&untraced),
    );
    v.insert(
        "trace.coverage",
        ratio(trace::top_level_ns(&spans) as f64, traced_ns as f64),
    );

    let self_ns = trace::self_ns_by_layer(&spans);
    for (layer, name) in LAYERS {
        v.insert(name, self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u, _)| {
            (
                n,
                u,
                *v.get(n)
                    .unwrap_or_else(|| panic!("per-layer metric {n} not measured")),
            )
        })
        .collect();

    let mut meta = base_meta(w, cli_seed);
    meta.push(("untraced_wall_s".into(), json_num(median(&untraced))));
    meta.push(("traced_wall_s".into(), json_num(median(&traced_walls))));
    meta.push(("spans".into(), spans.len().to_string()));
    meta.push(("traced_s".into(), json_num(traced_ns as f64 / 1e9)));
    meta.push(("pass_pairs".into(), traced_walls.len().to_string()));
    if let Some(path) = write_spans(w, cli_seed, &spans) {
        meta.push(("spans_file".into(), format!("\"{path}\"")));
    }
    Ok(Report {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        headline: last.headline,
        meta,
    })
}

/// Writes the spans next to the benchmark's sources, under `out/`; a
/// failure to write is reported and otherwise ignored.
fn write_spans(w: &Workload, seed: u64, spans: &[trace::Span]) -> Option<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{seed}.json", w.kind.name());
    let written =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace::to_json(spans)));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: spans not written to {path}: {e}");
            None
        }
    }
}

/// Re-pins the references: one pass per (workload, slot). Every op must
/// complete; ops that break their contract are pinned too (the contract is
/// checked at run time, not recorded) and reported. Returns the new file
/// contents.
pub fn pin(jobs: usize) -> Result<String, String> {
    let mut out = String::from(REFERENCES_HEADER);
    for kind in Kind::ALL {
        for slot in 0..kind.slots() {
            let w = Workload { kind, slot, jobs };
            let pass = w.pass(&w.setup(), trace::ROOT);
            let digests: Option<Vec<u64>> = pass.digests.iter().copied().collect();
            let digests =
                digests.ok_or_else(|| format!("{} slot {slot}: an op panicked", kind.name()))?;
            let broken: Vec<usize> = (0..digests.len()).filter(|&i| !pass.contract[i]).collect();
            if !broken.is_empty() {
                eprintln!(
                    "warning: {} slot {slot}: ops {broken:?} break their contract",
                    kind.name()
                );
            }
            out.push_str(&reference_line(kind.name(), slot, &digests));
            out.push('\n');
        }
    }
    Ok(out)
}
