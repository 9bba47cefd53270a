//! The three benchmark workloads: what one pass runs, how its ops are
//! checked, and what it simulated.
//!
//! * `paper-grid` — a fixed from-scratch grid of the paper's scenarios
//!   (Fig 5/6-style blocking, spinning and work-stealing presets, Fig 7/9
//!   real-application interference, Fig 10 eight-vCPU hosts; 1–8 hogs;
//!   Vanilla/PLE/Relaxed-Co/IRS) through `parallel::ordered_map` with no
//!   forking and no cache. Engine-bound: the queue, credit scheduler,
//!   guests and interpreter do nearly all the work.
//! * `serving-open-loop` — the `figures serving` grid (Poisson open-loop
//!   arrivals at load 0.6, 0–3 hogs, vanilla and IRS). The same engine
//!   layers, used differently: wake/block and channels rather than ticks
//!   and spins, idle-heavy at 0 hogs, latency vectors that dominate
//!   memory, and `percentile` over the pooled samples.
//! * `fleet-churn` — `run_campaign` on the 1000-host incremental spec of
//!   `figures fleet --hosts 1000`. Driver- and cache-bound: placement,
//!   cache classification, snapshot clone/resume and absorb dominate.
//!
//! An op is one `Scenario::run` (grid workloads) or one campaign cell
//! (`fleet-churn`: one policy column of one SLO table).

use crate::digest::{run_digest, Fnv};
use crate::trace;
use irs_bench::{fleet, serving, Opts};
use irs_core::{parallel, RunResult, Scenario, Strategy, VmScenario, DEGRADATION_MARGIN};
use irs_fleet::{run_campaign, CampaignSpec, FleetReport, TenantKind, FLEET_STRATEGIES};
use irs_metrics::{improvement_pct, percentile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// `--seed` values of the grid workloads map onto this many pinned input
/// slots (`seed % GRID_SLOTS`).
pub const GRID_SLOTS: u64 = 16;

/// The fleet campaign's seed: the one `figures fleet --hosts 1000` runs
/// and asserts the degradation contract at. At fleet seeds 5, 6, 7 and 14
/// the campaign breaks that contract (`figures fleet --hosts 1000
/// --base-seed 5` panics); `tests/selftest.rs` pins those violations.
pub const FLEET_SEED: u64 = 1;

/// Fleet size of the `fleet-churn` campaign.
pub const FLEET_HOSTS: usize = 1000;

/// Seeds per paper-grid cell in one pass.
pub const PAPER_SEEDS: u64 = 2;

/// Seeds per serving cell in one pass (as `figures serving` runs it).
pub const SERVING_SEEDS: u64 = 3;

/// The paper-grid strategy columns.
const STRATEGIES: [Strategy; 4] = [
    Strategy::Vanilla,
    Strategy::Ple,
    Strategy::RelaxedCo,
    Strategy::Irs,
];

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Engine-bound paper scenarios.
    PaperGrid,
    /// Open-loop serving campaign.
    Serving,
    /// 1000-host incremental fleet campaign.
    Fleet,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::PaperGrid, Kind::Serving, Kind::Fleet];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper-grid",
            Kind::Serving => "serving-open-loop",
            Kind::Fleet => "fleet-churn",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The percentile `run_ms.tail` reports. Fixed per workload so every
    /// run reports the same statistic; [`Kind::min_passes`] guarantees at
    /// least ten samples beyond it.
    pub fn tail_pct(self) -> f64 {
        match self {
            Kind::PaperGrid => 99.0,
            Kind::Serving => 98.0,
            // One run per pass: the campaign call itself.
            Kind::Fleet => 50.0,
        }
    }

    /// How many pinned input slots `--seed` maps onto (`seed % slots`):
    /// one for the fleet, which runs the published campaign at
    /// [`FLEET_SEED`] whatever the seed.
    pub fn slots(self) -> u64 {
        match self {
            Kind::PaperGrid | Kind::Serving => GRID_SLOTS,
            Kind::Fleet => 1,
        }
    }

    /// Fewest passes a measured run makes, whatever `--seconds` says.
    pub fn min_passes(self) -> usize {
        let runs_per_pass = match self {
            Kind::PaperGrid => paper_grid_cells(1, PAPER_SEEDS).len(),
            Kind::Serving => serving_cells(1, SERVING_SEEDS).len(),
            Kind::Fleet => 1,
        };
        let need = (10.0 / (1.0 - self.tail_pct() / 100.0)).ceil() as usize;
        need.div_ceil(runs_per_pass).max(3)
    }
}

/// A grid scenario's shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `Scenario::fig5_style` (PARSEC blocking / NPB spinning) with hogs.
    Fig5 { bench: &'static str, n_inter: usize },
    /// `Scenario::real_interference` (Fig 7/9 weighted-speedup setup).
    Real {
        bench: &'static str,
        background: &'static str,
        n_inter: usize,
    },
    /// `Scenario::fig10_style` with hogs (8 vCPUs on 8 pCPUs).
    Fig10 { bench: &'static str, n_inter: usize },
    /// `serving::serving_scenario` at the full horizon.
    Serving { n_inter: usize },
}

/// One grid scenario, buildable on any worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// What runs.
    pub shape: Shape,
    /// Under which strategy.
    pub strategy: Strategy,
    /// With which scenario seed.
    pub seed: u64,
}

impl Cell {
    /// Builds the scenario.
    pub fn scenario(&self) -> Scenario {
        let (strategy, seed) = (self.strategy, self.seed);
        match self.shape {
            Shape::Fig5 { bench, n_inter } => Scenario::fig5_style(bench, n_inter, strategy, seed),
            Shape::Real {
                bench,
                background,
                n_inter,
            } => Scenario::real_interference(bench, background, n_inter, strategy, seed),
            Shape::Fig10 { bench, n_inter } => {
                Scenario::fig10_style(bench, None, n_inter, strategy, seed)
            }
            Shape::Serving { n_inter } => {
                serving::serving_scenario(n_inter, strategy, seed, serving::HORIZON)
            }
        }
    }

    fn n_inter(&self) -> usize {
        match self.shape {
            Shape::Fig5 { n_inter, .. }
            | Shape::Real { n_inter, .. }
            | Shape::Fig10 { n_inter, .. }
            | Shape::Serving { n_inter } => n_inter,
        }
    }
}

/// The paper-grid at `seeds` consecutive seeds from `base_seed`: blocking
/// (barrier, fine mutex, pipeline) and work-stealing PARSEC and spinning
/// NPB presets at 1–4 hogs, the Fig 7/9 real-application backgrounds, and
/// Fig 10's 8-vCPU hosts, each under all four strategies.
pub fn paper_grid_cells(base_seed: u64, seeds: u64) -> Vec<Cell> {
    let mut shapes = Vec::new();
    for bench in [
        "streamcluster",
        "fluidanimate",
        "dedup",
        "raytrace",
        "CG",
        "MG",
        "UA",
    ] {
        shapes.extend((1..=4).map(|n_inter| Shape::Fig5 { bench, n_inter }));
    }
    for (bench, background) in [("streamcluster", "fluidanimate"), ("LU", "UA")] {
        shapes.extend([1, 2, 4].map(|n_inter| Shape::Real {
            bench,
            background,
            n_inter,
        }));
    }
    for bench in ["streamcluster", "LU"] {
        shapes.extend([2, 4, 8].map(|n_inter| Shape::Fig10 { bench, n_inter }));
    }
    let mut cells = Vec::new();
    for seed in base_seed..base_seed + seeds {
        for &shape in &shapes {
            cells.extend(STRATEGIES.map(|strategy| Cell {
                shape,
                strategy,
                seed,
            }));
        }
    }
    cells
}

/// The serving grid: 0–3 hogs × {vanilla, IRS} × `seeds` consecutive
/// seeds from `base_seed`, in the `figures serving` cell order.
pub fn serving_cells(base_seed: u64, seeds: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for n_inter in 0..=3 {
        for strategy in [Strategy::Vanilla, Strategy::Irs] {
            cells.extend((base_seed..base_seed + seeds).map(|seed| Cell {
                shape: Shape::Serving { n_inter },
                strategy,
                seed,
            }));
        }
    }
    cells
}

/// The fleet campaign spec: `figures fleet --hosts 1000` at this seed,
/// with the contract checked per cell by the benchmark instead of by a
/// panic inside the campaign, so that one violating cell fails one op and
/// the pass still measures the whole campaign.
pub fn fleet_spec(seed: u64, jobs: usize) -> CampaignSpec {
    CampaignSpec {
        assert_contract: false,
        ..fleet::spec(
            Opts {
                seeds: 1,
                base_seed: seed,
                jobs,
            },
            false,
            Some(FLEET_HOSTS),
        )
    }
}

/// One workload instance: the kind, its input slot and seed, and the
/// worker count.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Input slot, `--seed % kind.slots()`.
    pub slot: u64,
    /// Worker threads for every fan-out.
    pub jobs: usize,
}

/// Everything a pass needs, built by [`Workload::setup`].
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Grid cells.
    Grid { cells: Vec<Cell> },
    /// The campaign spec.
    Fleet(Box<CampaignSpec>),
}

/// What one pass produced.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds for the pass: the fan-out plus the statistics its
    /// table needs (digest checks excluded).
    pub wall_s: f64,
    /// Simulated seconds of the runs the pass actually executed.
    pub sim_s: f64,
    /// Host ms per `Scenario::run` (fleet: per campaign call).
    pub run_ms: Vec<f64>,
    /// Per-op output digest; `None` when the op panicked.
    pub digests: Vec<Option<u64>>,
    /// Per-op: the op kept its contract.
    pub contract: Vec<bool>,
    /// The simulated headline, printed beside the host metrics.
    pub headline: String,
    /// The results themselves, for the per-layer counts.
    pub results: Results,
}

impl Pass {
    /// What the references are checked against: each op's digest, or
    /// `None` where it panicked or broke its contract.
    pub fn checked(&self) -> Vec<Option<u64>> {
        self.digests
            .iter()
            .zip(&self.contract)
            .map(|(d, &ok)| d.filter(|_| ok))
            .collect()
    }
}

/// Per-op results of a pass.
#[derive(Debug)]
pub enum Results {
    /// One entry per grid op (`None` if it panicked).
    Runs(Vec<Option<RunResult>>),
    /// The campaign report (`None` if the campaign panicked).
    Fleet(Option<Box<FleetReport>>),
}

impl Workload {
    /// The first input seed of this slot; grid cells take this and the
    /// next seeds (one per repetition), the fleet is seeded with it.
    pub fn input_seed(&self) -> u64 {
        match self.kind {
            Kind::PaperGrid => self.slot * PAPER_SEEDS + 1,
            Kind::Serving => self.slot * SERVING_SEEDS + 1,
            Kind::Fleet => FLEET_SEED,
        }
    }

    /// Builds the inputs: cell lists or the campaign spec, every scenario
    /// (or tenant bundle) once, and the worker pool.
    pub fn setup(&self) -> Inputs {
        let seed = self.input_seed();
        let inputs = match self.kind {
            Kind::PaperGrid => Inputs::Grid {
                cells: paper_grid_cells(seed, PAPER_SEEDS),
            },
            Kind::Serving => Inputs::Grid {
                cells: serving_cells(seed, SERVING_SEEDS),
            },
            Kind::Fleet => Inputs::Fleet(Box::new(fleet_spec(seed, self.jobs))),
        };
        match &inputs {
            Inputs::Grid { cells } => {
                for c in cells {
                    std::hint::black_box(c.scenario());
                }
            }
            Inputs::Fleet(spec) => {
                for kind in TenantKind::ALL {
                    std::hint::black_box(kind.bundle(spec.fleet.tenant_vcpus));
                }
            }
        }
        let warm = parallel::ordered_map(self.jobs, self.jobs * 8, |i| i);
        std::hint::black_box(warm);
        inputs
    }

    /// Runs one pass under the span `parent`.
    pub fn pass(&self, inputs: &Inputs, parent: u64) -> Pass {
        match inputs {
            Inputs::Grid { cells } => self.grid_pass(cells, parent),
            Inputs::Fleet(spec) => fleet_pass(spec, parent),
        }
    }

    fn grid_pass(&self, cells: &[Cell], parent: u64) -> Pass {
        let t = Instant::now();
        let out: Vec<(Option<RunResult>, f64)> =
            trace::span("pool", "parallel::ordered_map", parent, |fan| {
                parallel::ordered_map(self.jobs, cells.len(), |i| {
                    let t0 = Instant::now();
                    let r = trace::span("core", "Scenario::run", fan, |_| {
                        catch_unwind(AssertUnwindSafe(|| cells[i].scenario().run())).ok()
                    });
                    (r, t0.elapsed().as_secs_f64() * 1e3)
                })
            });
        let (results, run_ms): (Vec<Option<RunResult>>, Vec<f64>) = out.into_iter().unzip();
        let headline = match self.kind {
            Kind::Serving => serving_headline(cells, &results, parent),
            _ => paper_headline(cells, &results),
        };
        let wall_s = t.elapsed().as_secs_f64();
        let (digests, contract) = trace::span("bench", "verify", parent, |_| {
            results
                .iter()
                .map(|r| {
                    (
                        r.as_ref().map(run_digest),
                        r.as_ref().is_some_and(|r| self.contract_holds(r)),
                    )
                })
                .unzip()
        });
        let sim_s = results
            .iter()
            .flatten()
            .map(|r| r.elapsed.as_secs_f64())
            .sum();
        Pass {
            wall_s,
            sim_s,
            run_ms,
            digests,
            contract,
            headline,
            results: Results::Runs(results),
        }
    }

    /// The op contract the figures already assert: every paper-grid
    /// measured VM completes (its makespan is the plotted value), and
    /// every serving run completes requests.
    fn contract_holds(&self, r: &RunResult) -> bool {
        let Some(m) = r.vms.iter().find(|v| v.measured) else {
            return false;
        };
        match self.kind {
            Kind::Serving => m.requests > 0,
            _ => m.makespan.is_some(),
        }
    }

    /// Scenarios the layer kernels take their inputs from: the grid's IRS
    /// cells at 2 hogs (paper-grid), the first seed's cells (serving), or
    /// full fleet hosts — three tenants drawn from the campaign's kinds,
    /// built as the campaign builds them — under both arms (fleet-churn).
    pub fn kernel_scenarios(&self, inputs: &Inputs) -> Vec<Scenario> {
        match inputs {
            Inputs::Grid { cells } => cells
                .iter()
                .filter(|c| match c.shape {
                    Shape::Serving { .. } => c.seed == self.input_seed(),
                    _ => {
                        c.seed == self.input_seed()
                            && c.n_inter() == 2
                            && c.strategy == Strategy::Irs
                    }
                })
                .map(Cell::scenario)
                .collect(),
            Inputs::Fleet(spec) => fleet_hosts(spec, KERNEL_FLEET_HOSTS),
        }
    }
}

/// Fleet host compositions the kernels sample.
const KERNEL_FLEET_HOSTS: usize = 8;

/// `n` full fleet hosts (tenants drawn uniformly from every kind, one
/// always a latency server) under each arm, built like the campaign's own
/// host scenarios: 2-vCPU tenant VMs, unpinned, honest tenants on
/// SA-capable guests under IRS, seeded per composition.
pub fn fleet_hosts(spec: &CampaignSpec, n: usize) -> Vec<Scenario> {
    let cfg = &spec.fleet;
    let per_host = cfg.capacity_vcpus() / cfg.tenant_vcpus;
    let mut rng = irs_sim::SimRng::seed_from(cfg.seed);
    let mut out = Vec::new();
    for _ in 0..n {
        let mut comp = vec![TenantKind::LatencyServer];
        while comp.len() < per_host {
            comp.push(TenantKind::ALL[rng.index(TenantKind::ALL.len())]);
        }
        comp.sort();
        for (arm, strategy) in FLEET_STRATEGIES.into_iter().enumerate() {
            let mut h = Fnv::default();
            h.u64(cfg.seed).u64(arm as u64);
            for k in &comp {
                h.u64(k.id() as u64);
            }
            let mut s =
                Scenario::new(cfg.host_pcpus, strategy, h.finish()).horizon(cfg.epoch_horizon);
            for &kind in &comp {
                let mut vm = VmScenario::new(kind.bundle(cfg.tenant_vcpus), cfg.tenant_vcpus);
                if !kind.is_adversarial() && strategy.sa_capable_guest() {
                    vm = vm.irs_guest(true);
                }
                s = s.vm(vm);
            }
            out.push(s);
        }
    }
    out
}

/// IRS-vs-vanilla mean makespan gain over the grid's (scenario, hogs)
/// pairs.
fn paper_headline(cells: &[Cell], results: &[Option<RunResult>]) -> String {
    let makespan = |i: usize| {
        results[i]
            .as_ref()
            .and_then(|r| r.vms.iter().find(|v| v.measured))
            .and_then(|m| m.makespan)
            .map(|t| t.as_secs_f64())
    };
    let mut gains = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        if c.strategy != Strategy::Irs {
            continue;
        }
        let vanilla = Cell {
            strategy: Strategy::Vanilla,
            ..*c
        };
        let van = cells.iter().position(|d| *d == vanilla);
        if let (Some(v), Some(irs)) = (van.and_then(makespan), makespan(i)) {
            gains.push(improvement_pct(v, irs));
        }
    }
    let mean = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
    format!(
        "IRS vs vanilla mean makespan gain {mean:+.1}% over {} (scenario, hogs, seed) pairs",
        gains.len()
    )
}

/// Vanilla and IRS p99 latency at 3 hogs over the pooled seeds, plus the
/// p50/p99/p99.9 table statistics every cell of `figures serving` needs.
fn serving_headline(cells: &[Cell], results: &[Option<RunResult>], parent: u64) -> String {
    trace::span("metrics", "percentile", parent, |_| {
        let mut p99_at_3 = [f64::NAN; 2];
        for n in 0..=3 {
            for (arm, strat) in [Strategy::Vanilla, Strategy::Irs].into_iter().enumerate() {
                let lat: Vec<f64> = cells
                    .iter()
                    .zip(results)
                    .filter(|(c, _)| c.n_inter() == n && c.strategy == strat)
                    .filter_map(|(_, r)| r.as_ref())
                    .flat_map(|r| r.measured().latencies_us.iter().copied())
                    .collect();
                let p = [50.0, 99.0, 99.9].map(|p| percentile(&lat, p));
                if n == 3 {
                    p99_at_3[arm] = p[1];
                }
            }
        }
        format!(
            "p99 latency at 3 hogs: vanilla {:.1} ms, IRS {:.1} ms",
            p99_at_3[0] / 1e3,
            p99_at_3[1] / 1e3
        )
    })
}

/// One `run_campaign` call; its ops are the cells of the SLO tables.
fn fleet_pass(spec: &CampaignSpec, parent: u64) -> Pass {
    let t = Instant::now();
    let report = trace::span("fleet", "run_campaign", parent, |_| {
        catch_unwind(AssertUnwindSafe(|| run_campaign(spec))).ok()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let (cells, headline, sim_s) = match &report {
        Some(r) => trace::span("bench", "verify", parent, |_| {
            (fleet_cells(r), fleet_headline(r), fleet_sim_s(spec, r))
        }),
        None => (vec![(None, false)], "campaign panicked".to_string(), 0.0),
    };
    let (digests, contract) = cells.into_iter().unzip();
    Pass {
        wall_s,
        sim_s,
        run_ms: vec![wall_s * 1e3],
        digests,
        contract,
        headline,
        results: Results::Fleet(report.map(Box::new)),
    }
}

/// Column labels of a table in first-appearance order.
fn columns(table: &irs_metrics::Table) -> Vec<String> {
    let mut cols: Vec<String> = Vec::new();
    for s in table.series() {
        for l in s.labels() {
            if !cols.iter().any(|c| c == l) {
                cols.push(l.to_string());
            }
        }
    }
    cols
}

/// Per campaign cell (one column of one SLO table): its digest, and
/// whether it keeps the degradation contract's p95 half (IRS honest p95 ≤
/// vanilla × margin; the report carries no per-cell mean, so the mean
/// half is not checkable here).
pub fn fleet_cells(report: &FleetReport) -> Vec<(Option<u64>, bool)> {
    let mut out = Vec::new();
    for table in &report.tables {
        for col in columns(table) {
            let mut h = Fnv::default();
            h.bytes(table.title().as_bytes()).bytes(col.as_bytes());
            for s in table.series() {
                if let Some(v) = s.value_at(&col) {
                    h.bytes(s.name().as_bytes()).f64(v);
                }
            }
            let at = |name: &str| table.series_named(name).and_then(|s| s.value_at(&col));
            let holds = matches!(
                (at("van p95"), at("irs p95")),
                (Some(v), Some(i)) if i <= v * DEGRADATION_MARGIN
            );
            out.push((Some(h.finish()), holds));
        }
    }
    out
}

/// Honest-tenant p95 slowdown range across cells, per arm.
fn fleet_headline(report: &FleetReport) -> String {
    let range = |name: &str| {
        let v: Vec<f64> = report
            .tables
            .iter()
            .filter_map(|t| t.series_named(name))
            .flat_map(|s| s.values())
            .collect();
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("{lo:.2}-{hi:.2}")
    };
    format!(
        "honest p95 slowdown: vanilla {}, IRS {}",
        range("van p95"),
        range("irs p95")
    )
}

/// Simulated seconds the campaign executed: the solo baselines, one full
/// horizon per cache miss (warmup + completion), and one post-warmup
/// completion per snapshot hit. Carried and memoized runs simulate
/// nothing.
fn fleet_sim_s(spec: &CampaignSpec, r: &FleetReport) -> f64 {
    let cfg = &spec.fleet;
    let horizon = cfg.epoch_horizon.as_secs_f64();
    let solo = (TenantKind::ALL.len() * FLEET_STRATEGIES.len()) as f64;
    (solo + r.cache.misses as f64) * horizon
        + r.cache.snapshot_hits as f64 * (horizon - cfg.warmup.as_secs_f64())
}
