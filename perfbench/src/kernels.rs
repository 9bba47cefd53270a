//! Layer kernels: each times one layer's public calls on inputs taken from
//! the workload's own scenarios and bundles (its host shapes, VM layouts,
//! thread programs and sample vectors), not on synthetic shapes.
//!
//! Every kernel does a fixed amount of work and reports the median of a
//! few repetitions. Each one runs inside a span of its layer, so the
//! traced run attributes its time.

use crate::measure::median;
use crate::trace;
use irs_core::runner::{run_forked_grid_cached, ForkCache, ForkCacheStats};
use irs_core::{Scenario, System, SystemConfig};
use irs_fleet::{PlacementIndex, PlacementPolicy};
use irs_guest::{GuestOs, VcpuView};
use irs_metrics::percentile;
use irs_sim::{EventQueue, SimRng, SimTime};
use irs_workloads::{ProgramRunner, Step};
use irs_xen::{Hypervisor, PcpuId, SchedOp, VmSpec};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per kernel; the median is reported.
const REPS: usize = 5;

/// Interpreter steps taken per thread program before moving on (server
/// and background programs loop forever).
const STEP_CAP: u64 = 4_000;

fn per_op_ns(t: Instant, ops: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Compute and sleep segment lengths (ns) the scenarios' thread programs
/// yield, in interpreter order: the delays the engine arms timers for.
pub fn segment_lengths(scenarios: &[Scenario], seed: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut rng = SimRng::seed_from(seed);
    for s in scenarios {
        for vm in &s.vms {
            let mut space = vm.bundle.space.clone();
            for p in &vm.bundle.threads {
                let mut r = ProgramRunner::new(p.clone());
                for _ in 0..256 {
                    match r.next(&mut rng, &mut space) {
                        Step::Compute { ns } | Step::Sleep { ns } => out.push(ns.max(1)),
                        Step::Done => break,
                        _ => {}
                    }
                }
            }
        }
    }
    if out.is_empty() {
        out.push(1_000_000);
    }
    out
}

/// `EventQueue` schedule/cancel/pop churn, ns per operation. The live
/// population is one host's armed timers — three per pCPU (tick,
/// accounting, slice), one guest tick per vCPU and one segment timer per
/// thread — of the largest scenario; delays alternate between the
/// programs' segment lengths and the 1 ms guest tick.
pub fn queue_ns_per_op(scenarios: &[Scenario], segments: &[u64]) -> f64 {
    const OPS: u64 = 2_000_000;
    let population = scenarios
        .iter()
        .map(|s| {
            3 * s.n_pcpus
                + s.vms
                    .iter()
                    .map(|v| v.n_vcpus + v.bundle.threads.len())
                    .sum::<usize>()
        })
        .max()
        .unwrap_or(16);
    trace::span("sim", "EventQueue churn", trace::ROOT, |_| {
        let reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let mut q: EventQueue<u32> = EventQueue::new();
                let mut now = 0u64;
                let mut k = 0usize;
                let mut next_delay = || {
                    k += 1;
                    if k.is_multiple_of(2) {
                        1_000_000
                    } else {
                        segments[k / 2 % segments.len()]
                    }
                };
                for i in 0..population {
                    q.schedule(SimTime::from_nanos(now + next_delay()), i as u32);
                }
                let t = Instant::now();
                let mut ops = 0u64;
                while ops < OPS {
                    // A segment timer dies to an early block: arm, cancel.
                    let id = q.schedule(SimTime::from_nanos(now + next_delay()), 0);
                    q.cancel(id);
                    let (at, ev) = q.pop().expect("population never drains");
                    now = at.as_nanos();
                    q.schedule(SimTime::from_nanos(now + next_delay()), black_box(ev));
                    ops += 4;
                }
                per_op_ns(t, ops)
            })
            .collect();
        median(&reps)
    })
}

/// Per-call host ns of the credit scheduler's handlers.
#[derive(Debug, Clone, Copy)]
pub struct XenTimes {
    /// `tick` (plus `accounting` every third tick), per tick.
    pub tick_ns: f64,
    /// `vcpu_wake` of a just-blocked vCPU.
    pub wake_ns: f64,
    /// `sched_op(Block)` from a running vCPU.
    pub sched_op_ns: f64,
}

/// Builds the scenario's host with `create_vm`: same pCPUs, vCPU counts,
/// pinning, weights and SA capability as the engine would give it.
fn host_of(s: &Scenario) -> Hypervisor {
    let mut hv = Hypervisor::new(s.strategy.xen_config(), s.n_pcpus);
    for vm in &s.vms {
        let mut spec = VmSpec::new(vm.n_vcpus).weight(vm.weight);
        if let Some(p) = &vm.pinning {
            spec = spec.pin(p.clone());
        }
        let irs_guest = vm.irs_guest.unwrap_or(vm.measured);
        spec = spec.sa_capable(irs_guest && s.strategy.sa_capable_guest());
        hv.create_vm(spec);
    }
    let a = hv.start(SimTime::ZERO);
    hv.recycle_actions(a);
    hv
}

/// Times `Hypervisor::tick`/`accounting`, `sched_op` and `vcpu_wake` on
/// the scenarios' hosts.
pub fn xen_times(scenarios: &[Scenario]) -> XenTimes {
    const TICKS: u64 = 3_000;
    const ROUNDS: u64 = 3_000;
    trace::span("xen", "Hypervisor handlers", trace::ROOT, |_| {
        let mut tick = Vec::new();
        let mut wake = Vec::new();
        let mut op = Vec::new();
        for s in scenarios {
            let mut hv = host_of(s);
            let t = Instant::now();
            for i in 1..=TICKS {
                let now = SimTime::from_millis(i * 10);
                let a = hv.tick(now);
                hv.recycle_actions(a);
                if i % 3 == 0 {
                    let a = hv.accounting(now);
                    hv.recycle_actions(a);
                }
            }
            tick.push(per_op_ns(t, TICKS));

            let mut hv = host_of(s);
            let (mut wake_ns, mut op_ns, mut n) = (0u128, 0u128, 0u64);
            for round in 0..ROUNDS {
                let now = SimTime::from_micros(round * 100);
                for p in 0..s.n_pcpus {
                    let Some(v) = hv.pcpu_current(PcpuId(p)) else {
                        continue;
                    };
                    let t = Instant::now();
                    let a = hv.sched_op(v, SchedOp::Block, now);
                    op_ns += t.elapsed().as_nanos();
                    hv.recycle_actions(a);
                    let t = Instant::now();
                    let a = hv.vcpu_wake(v, now + SimTime::from_micros(1));
                    wake_ns += t.elapsed().as_nanos();
                    hv.recycle_actions(a);
                    n += 1;
                }
            }
            wake.push(wake_ns as f64 / n.max(1) as f64);
            op.push(op_ns as f64 / n.max(1) as f64);
        }
        XenTimes {
            tick_ns: median(&tick),
            wake_ns: median(&wake),
            sched_op_ns: median(&op),
        }
    })
}

/// Per-call host ns of the guest kernel's tick and idle balance.
#[derive(Debug, Clone, Copy)]
pub struct GuestTimes {
    /// `GuestOs::tick` (CFS tick + periodic balance).
    pub tick_ns: f64,
    /// `GuestOs::idle_balance` on a vCPU whose task just blocked.
    pub idle_balance_ns: f64,
}

/// Times the guests of the scenarios' VMs: each VM's vCPUs with one task
/// per thread program, spread round-robin as the engine spawns them.
pub fn guest_times(scenarios: &[Scenario]) -> GuestTimes {
    const ROUNDS: u64 = 2_000;
    trace::span("guest", "GuestOs tick/idle_balance", trace::ROOT, |_| {
        let mut tick = Vec::new();
        let mut idle = Vec::new();
        for s in scenarios {
            for vm in &s.vms {
                let irs = vm.irs_guest.unwrap_or(vm.measured) && s.strategy.sa_capable_guest();
                let cfg = if irs {
                    s.strategy.guest_config()
                } else {
                    Default::default()
                };
                let n = vm.n_vcpus;
                let mut g = GuestOs::new(cfg, n);
                for i in 0..vm.bundle.threads.len() {
                    g.spawn(i % n);
                }
                let a = g.start(SimTime::ZERO);
                g.recycle_actions(a);
                let views = vec![VcpuView::running(); n];
                let (mut tick_ns, mut idle_ns, mut ticks, mut balances) =
                    (0u128, 0u128, 0u64, 0u64);
                for round in 1..=ROUNDS {
                    let now = SimTime::from_millis(round);
                    for v in 0..n {
                        g.account_runtime(v, SimTime::from_millis(1));
                        let t = Instant::now();
                        let out = g.tick(v, now, &views);
                        tick_ns += t.elapsed().as_nanos();
                        ticks += 1;
                        g.recycle_actions(out.actions);
                    }
                    let v = (round as usize) % n;
                    if let Some(task) = g.current(v) {
                        let a = g.block_current(v, now, &views);
                        g.recycle_actions(a);
                        let t = Instant::now();
                        let a = g.idle_balance(v, &views);
                        idle_ns += t.elapsed().as_nanos();
                        balances += 1;
                        g.recycle_actions(a);
                        let a = g.wake(task, &views);
                        g.recycle_actions(a);
                    }
                }
                tick.push(tick_ns as f64 / ticks.max(1) as f64);
                idle.push(idle_ns as f64 / balances.max(1) as f64);
            }
        }
        GuestTimes {
            tick_ns: median(&tick),
            idle_balance_ns: median(&idle),
        }
    })
}

/// `ProgramRunner::next` over every thread program of the scenarios' VMs
/// against each bundle's own `SyncSpace`: (ns per step, steps per rep).
pub fn interpreter(scenarios: &[Scenario], seed: u64) -> (f64, u64) {
    trace::span("workloads", "ProgramRunner::next", trace::ROOT, |_| {
        let mut steps = 0u64;
        let reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let mut rng = SimRng::seed_from(seed);
                steps = 0;
                let t = Instant::now();
                for s in scenarios {
                    for vm in &s.vms {
                        let mut space = vm.bundle.space.clone();
                        let mut runners: Vec<ProgramRunner> = vm
                            .bundle
                            .threads
                            .iter()
                            .cloned()
                            .map(ProgramRunner::new)
                            .collect();
                        // Round-robin, as interleaved tasks would advance.
                        for _ in 0..STEP_CAP {
                            let mut live = false;
                            for r in &mut runners {
                                if black_box(r.next(&mut rng, &mut space)) != Step::Done {
                                    steps += 1;
                                    live = true;
                                }
                            }
                            if !live {
                                break;
                            }
                        }
                    }
                }
                per_op_ns(t, steps)
            })
            .collect();
        (median(&reps), steps)
    })
}

/// Snapshot costs on one warmed-up system.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotTimes {
    /// `System::snapshot`, µs.
    pub snapshot_us: f64,
    /// `Snapshot::resume`, µs.
    pub resume_us: f64,
    /// `Snapshot::approx_bytes`, KiB.
    pub kib: f64,
}

/// Times `System::snapshot` and `Snapshot::resume` on `scenario` after a
/// `warmup` prefix of virtual time.
pub fn snapshot_times(scenario: Scenario, warmup: SimTime) -> SnapshotTimes {
    const REPEATS: usize = 40;
    trace::span("core", "System::snapshot/resume", trace::ROOT, |_| {
        let mut sys = System::new(scenario);
        sys.run_until(warmup);
        let mut snap_us = Vec::new();
        let mut resume_us = Vec::new();
        let mut kib = 0.0;
        for _ in 0..REPEATS {
            let t = Instant::now();
            let snap = sys.snapshot();
            snap_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let resumed = snap.resume();
            resume_us.push(t.elapsed().as_secs_f64() * 1e6);
            kib = snap.approx_bytes() as f64 / 1024.0;
            black_box(resumed);
        }
        SnapshotTimes {
            snapshot_us: median(&snap_us),
            resume_us: median(&resume_us),
            kib,
        }
    })
}

/// `run_forked_grid_cached` on one grid, cold then warm: (miss ms, hit ms,
/// the cache's counters).
pub fn cached_grid<F>(
    jobs: usize,
    warmup: SimTime,
    groups: usize,
    make: F,
) -> (f64, f64, ForkCacheStats)
where
    F: Fn(usize) -> Scenario + Sync,
{
    trace::span("runner", "run_forked_grid_cached", trace::ROOT, |_| {
        let keyed: Vec<(u64, usize)> = (0..groups as u64).map(|g| (g, 2)).collect();
        let mut cache = ForkCache::new(256 << 20);
        let cfg = SystemConfig::default();
        let t = Instant::now();
        black_box(run_forked_grid_cached(
            jobs,
            Some(warmup),
            &cfg,
            &keyed,
            &make,
            &mut cache,
        ));
        let miss = t.elapsed().as_secs_f64() * 1e3;
        let hits: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(run_forked_grid_cached(
                    jobs,
                    Some(warmup),
                    &cfg,
                    &keyed,
                    &make,
                    &mut cache,
                ));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        (miss, median(&hits), cache.stats())
    })
}

/// `PlacementIndex` place/add/remove churn over `hosts` hosts of
/// `capacity` vCPUs with tenants of `need` vCPUs, cycling the three
/// policies; ns per operation.
pub fn place_ns(hosts: usize, capacity: usize, need: usize, seed: u64) -> f64 {
    const OPS: u64 = 200_000;
    const POLICIES: [PlacementPolicy; 3] = [
        PlacementPolicy::FirstFit,
        PlacementPolicy::WorstFit,
        PlacementPolicy::InterferenceAware,
    ];
    trace::span("fleet", "PlacementIndex churn", trace::ROOT, |_| {
        let reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let mut rng = SimRng::seed_from(seed);
                let mut index = PlacementIndex::new(hosts, capacity);
                let mut placed: Vec<usize> = Vec::new();
                let target = hosts * capacity / need.max(1) * 3 / 4;
                let t = Instant::now();
                for i in 0..OPS {
                    if placed.len() < target && !rng.chance(0.3) {
                        let policy = POLICIES[(i % 3) as usize];
                        if let Some(h) = index.place(policy, need) {
                            index.add_tenant(h, need);
                            placed.push(h);
                        }
                    } else if !placed.is_empty() {
                        let h = placed.swap_remove(rng.index(placed.len()));
                        index.remove_tenant(h, need);
                        index.set_steal(h, rng.unit_f64());
                    }
                }
                per_op_ns(t, OPS)
            })
            .collect();
        median(&reps)
    })
}

/// `irs_metrics::percentile` at p50/p99/p99.9 over `samples`, ms for the
/// three.
pub fn percentile_ms(samples: &[f64]) -> f64 {
    trace::span("metrics", "percentile", trace::ROOT, |_| {
        let reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                for p in [50.0, 99.0, 99.9] {
                    black_box(percentile(samples, p));
                }
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&reps)
    })
}
