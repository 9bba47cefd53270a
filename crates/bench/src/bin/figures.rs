//! Regenerates the paper's tables and figures as fixed-width text (and
//! optionally CSV).
//!
//! ```text
//! figures <experiment>... [--seeds N] [--base-seed S] [--jobs N] [--quick]
//!                         [--check] [--check-perf] [--smoke] [--hosts N] [--parity]
//!                         [--csv DIR]
//! ```
//!
//! Experiment names are listed by [`usage`], generated from the one
//! [`EXPERIMENTS`] registry (so the help text, the `core`/`all` aliases,
//! and this doc cannot drift apart): the core per-figure set used by
//! EXPERIMENTS.md (`fig1a` … `fig13`, `fairness`, `sa_stats`), the extras
//! (`io_latency`, `ablate_strict_co`, `stacking_baseline`,
//! `ablate_pingpong`, `ablate_idle_first`, `ablate_sa_delay`,
//! `ablate_pull`, `ablate_slice`, `ablate_pv_spin`, `chaos`,
//! `fork_smoke`), `perf` (engine self-benchmark; writes
//! BENCH_runner.json), `fleet` (the datacenter-scale fleet campaign;
//! `--smoke` shrinks it for CI), and `serving` (the open-loop
//! latency-SLO serving campaign; `--smoke` likewise).
//!
//! `--jobs N` sets the worker-thread count for the run fan-out (default:
//! all available cores). Tables are identical for every worker count.
//! `--check` arms the online invariant sanitizer
//! ([`irs_core::check`]) for every simulated run: each system validates
//! scheduler invariants after every event and panics with a trace dump on
//! the first violation. Tables are identical with and without it.
//! `--hosts N` rescales the fleet campaign to an `N`-host fleet (tenant
//! load scales along). `--parity` re-runs the fleet campaign with the
//! incremental engine disabled and asserts the SLO tables are
//! bit-identical (a correctness gate). `--seeds N` and `--hosts N` must
//! be positive.
//!
//! `perf`, `fleet` and `serving` share one record-and-ratchet path
//! ([`irs_bench::history`]): each run appends one `BENCH_history.jsonl`
//! record per measured phase — `perf`'s `ticked` and `parallel` passes
//! plus its `queue` micro-benchmark, and one `fleet` / `fleet-smoke` /
//! `fleet-scale` / `serving` / `serving-smoke` record per campaign.
//! `--check-perf` turns them into a regression gate: exit non-zero if
//! any phase regresses past the ratchet tolerance against the best
//! matching record (same phase / worker count / host core count, and
//! fleet size for fleet phases), or if a floor fails — `perf`'s speedup
//! (sequential over parallel) below its noise-band floor (0.85 — the
//! true ratio is ~1.0 on 1-core boxes) or its queue micro-benchmark below
//! its absolute floor, or `fleet-scale` (which ratchets *effective*
//! events/sec, logical volume per wall second) below its deterministic
//! ≥5× incrementality floor. Under `--check` or `--parity` the sanitizer
//! tax or the full re-simulation makes runs incomparable: they neither
//! log nor ratchet.

use irs_bench::fig5_6::Interference;
use irs_bench::history::{self, Phase};
use irs_bench::Opts;
use irs_metrics::Table;
use std::time::Instant;

/// Every experiment name the dispatcher understands, in presentation
/// order, tagged with whether the `core` alias includes it (`all` takes
/// the whole list). The single source for [`usage`] and alias expansion.
const EXPERIMENTS: [(&str, bool); 27] = [
    ("fig1a", true),
    ("fig1b", true),
    ("fig2", true),
    ("fig5", true),
    ("fig6", true),
    ("fig7", true),
    ("fig8", true),
    ("fig9", true),
    ("fig10", true),
    ("fig11", true),
    ("fig12", true),
    ("fig13", true),
    ("fairness", true),
    ("sa_stats", true),
    ("io_latency", false),
    ("ablate_strict_co", false),
    ("stacking_baseline", false),
    ("ablate_pingpong", false),
    ("ablate_idle_first", false),
    ("ablate_sa_delay", false),
    ("ablate_pull", false),
    ("ablate_slice", false),
    ("ablate_pv_spin", false),
    ("chaos", false),
    ("fork_smoke", false),
    ("fleet", false),
    ("serving", false),
];

fn usage() -> ! {
    let join = |core: bool| {
        EXPERIMENTS
            .iter()
            .filter(|(_, c)| *c == core)
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "usage: figures <experiment>... [--seeds N] [--base-seed S] [--jobs N] [--quick] [--check] [--check-perf] [--smoke] [--hosts N] [--parity] [--csv DIR]\n\
         experiments:\n\
         \u{20} {}\n\
         \u{20} {}\n\
         \u{20} perf   (engine self-benchmark; writes BENCH_runner.json)\n\
         \u{20} core   (= the per-figure set used by EXPERIMENTS.md)\n\
         \u{20} all    (= core + the extras on the second line)",
        join(true),
        join(false),
    );
    std::process::exit(2);
}

/// Builds the tables for one experiment name.
fn run_experiment(exp: &str, opts: Opts) -> Vec<Table> {
    match exp {
        "fig1a" => vec![irs_bench::fig1::fig1a(opts)],
        "fig1b" => vec![irs_bench::fig1::fig1b(opts)],
        "fig2" => vec![irs_bench::fig2::fig2(opts)],
        "fig5" => [
            Interference::Micro,
            Interference::RealApp("streamcluster"),
            Interference::RealApp("fluidanimate"),
        ]
        .into_iter()
        .map(|i| irs_bench::fig5_6::fig5(opts, i))
        .collect(),
        "fig6" => [
            Interference::Micro,
            Interference::RealApp("UA"),
            Interference::RealApp("LU"),
        ]
        .into_iter()
        .map(|i| irs_bench::fig5_6::fig6(opts, i))
        .collect(),
        "fig7" => ["fluidanimate", "streamcluster"]
            .into_iter()
            .map(|bg| irs_bench::fig7_9::fig7(opts, bg))
            .collect(),
        "fig8" => vec![irs_bench::fig8::fig8(opts), irs_bench::fig8::fig8_raw(opts)],
        "fig9" => ["LU", "UA"]
            .into_iter()
            .map(|bg| irs_bench::fig7_9::fig9(opts, bg))
            .collect(),
        "fig10" => vec![irs_bench::fig10_11::fig10(opts)],
        "fig11" => vec![irs_bench::fig10_11::fig11(opts)],
        "fig12" => vec![irs_bench::fig12_13::fig12(opts)],
        "fig13" => vec![irs_bench::fig12_13::fig13(opts)],
        "fairness" => vec![irs_bench::fairness::fairness(opts)],
        "sa_stats" => vec![irs_bench::fairness::sa_stats(opts)],
        "stacking_baseline" => vec![irs_bench::fig12_13::stacking_baseline(opts)],
        "ablate_pingpong" => vec![irs_bench::ablations::ablate_pingpong(opts)],
        "ablate_idle_first" => vec![irs_bench::ablations::ablate_idle_first(opts)],
        "ablate_sa_delay" => vec![irs_bench::ablations::ablate_sa_delay(opts)],
        "ablate_pull" => vec![irs_bench::ablations::ablate_pull(opts)],
        "ablate_slice" => vec![irs_bench::ablations::ablate_slice(opts)],
        "ablate_pv_spin" => vec![irs_bench::ablations::ablate_pv_spin(opts)],
        "io_latency" => vec![irs_bench::io_latency::io_latency(opts)],
        "chaos" => vec![irs_bench::chaos::chaos(opts)],
        "fork_smoke" => vec![irs_bench::fork_smoke::fork_smoke(opts)],
        "ablate_strict_co" => vec![irs_bench::ablations::ablate_strict_co(opts)],
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    }
}

/// The one record-and-ratchet step after every `perf`, `fleet` and
/// `serving` run ([`history::log_and_gate`] on `BENCH_history.jsonl`);
/// under `--check-perf`, exits non-zero on any failed floor or ratchet.
/// `--check` (the sanitizer's tax) and `--parity` (a full re-simulation)
/// make runs incomparable to normal records: they are neither logged nor
/// ratcheted, but their floors still gate.
fn log_and_gate(check_perf: bool, parity: bool, phases: &[Phase], floors: Vec<String>) {
    let comparable = !(irs_core::check::check_enabled() || parity);
    let failures = history::log_and_gate(
        std::path::Path::new("BENCH_history.jsonl"),
        comparable,
        phases,
        floors,
    );
    println!();
    if check_perf && !failures.is_empty() {
        for f in &failures {
            eprintln!("perf regression: {f}");
        }
        std::process::exit(1);
    }
}

/// Parses a count that must be at least 1 (`--seeds`, `--hosts`): zero
/// seeds or hosts would make every table and contract vacuous.
fn positive<T: std::str::FromStr + PartialOrd + Default>(arg: Option<String>) -> T {
    arg.and_then(|n| n.parse().ok())
        .filter(|n| *n > T::default())
        .unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut opts = Opts::default();
    let mut csv_dir: Option<String> = None;
    let mut check_perf = false;
    let mut smoke = false;
    let mut hosts: Option<usize> = None;
    let mut parity = false;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts = Opts { seeds: 1, ..opts },
            "--seeds" => opts.seeds = positive(it.next()),
            "--base-seed" => {
                let n = it.next().unwrap_or_else(|| usage());
                opts.base_seed = n.parse().unwrap_or_else(|_| usage());
            }
            "--jobs" => {
                let n = it.next().unwrap_or_else(|| usage());
                opts.jobs = n.parse().unwrap_or_else(|_| usage());
                // Helpers that take no Opts (and `opts.jobs == 0` call
                // sites) resolve through the process default.
                irs_core::parallel::set_default_jobs(opts.jobs);
            }
            "--check" => irs_core::check::set_check_enabled(true),
            "--check-perf" => check_perf = true,
            // Shrinks the fleet campaign to its CI variant.
            "--smoke" => smoke = true,
            // Rescales the fleet campaign (phase `fleet-scale`).
            "--hosts" => hosts = Some(positive(it.next())),
            // Incremental-vs-full bit-identity gate for the fleet.
            "--parity" => parity = true,
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| usage()));
            }
            other if other.starts_with('-') => usage(),
            other => experiments.push(other.to_string()),
        }
    }

    let mut queue: Vec<String> = Vec::new();
    for e in &experiments {
        match e.as_str() {
            "all" => queue.extend(EXPERIMENTS.iter().map(|(n, _)| n.to_string())),
            "core" => queue.extend(
                EXPERIMENTS
                    .iter()
                    .filter(|(_, core)| *core)
                    .map(|(n, _)| n.to_string()),
            ),
            other => {
                if other != "perf" && !EXPERIMENTS.iter().any(|(n, _)| *n == other) {
                    eprintln!("unknown experiment: {other}");
                    usage();
                }
                queue.push(other.to_string());
            }
        }
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create csv directory {dir}: {e}");
            std::process::exit(1);
        }
    }

    // The worker count the campaigns' history records are keyed on.
    let jobs = irs_core::parallel::resolve_jobs(opts.jobs);
    for exp in queue {
        let start = Instant::now();
        if exp == "perf" {
            let report = irs_bench::perf::perf(opts);
            print!("{}", report.render());
            if let Err(e) = std::fs::write("BENCH_runner.json", report.to_json()) {
                eprintln!("cannot write BENCH_runner.json: {e}");
                std::process::exit(1);
            }
            eprintln!("[perf done in {:.1}s]", start.elapsed().as_secs_f64());
            log_and_gate(check_perf, parity, &report.phases(), report.floors());
            continue;
        }
        if exp == "fleet" {
            let outcome = if parity {
                irs_bench::fleet::assert_incremental_parity(opts, smoke, hosts)
            } else {
                irs_bench::fleet::fleet(opts, smoke, hosts)
            };
            for (i, table) in outcome.report.tables.iter().enumerate() {
                print!("{table}");
                if let Some(dir) = &csv_dir {
                    let path = format!("{dir}/fleet_{i}.csv");
                    if let Err(e) = std::fs::write(&path, table.to_csv()) {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            print!("{}", outcome.report.accounting);
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/fleet_accounting.csv");
                if let Err(e) = std::fs::write(&path, outcome.report.accounting.to_csv()) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
            let cache = &outcome.report.cache;
            eprintln!(
                "[fleet done in {:.1}s: {} hosts, {} host runs ({} elided), \
                 {} events logical ({:.0}/s effective), {} executed ({:.0}/s), \
                 fork_warmup_saved={}, cache hit rate {:.1}% ({:.1} MiB resident, \
                 {} evictions), {} tenants placed, {} rejected{}]",
                outcome.wall_s,
                outcome.hosts,
                outcome.report.host_runs,
                outcome.report.runs_elided,
                outcome.report.events,
                irs_bench::fleet::effective_events_per_sec(&outcome),
                irs_bench::fleet::events_executed(&outcome),
                irs_bench::fleet::events_per_sec(&outcome),
                outcome.report.fork_warmup_saved,
                100.0 * cache.hit_rate().max(0.0),
                cache.resident_bytes as f64 / (1 << 20) as f64,
                cache.evictions,
                outcome.report.tenants_placed,
                outcome.report.tenants_rejected,
                if parity { "; incremental parity OK" } else { "" },
            );
            log_and_gate(
                check_perf,
                parity,
                &[irs_bench::fleet::history_phase(&outcome, jobs)],
                irs_bench::fleet::floors(&outcome),
            );
            continue;
        }
        if exp == "serving" {
            let outcome = irs_bench::serving::serving(opts, smoke);
            print!("{}", outcome.table);
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/serving.csv");
                if let Err(e) = std::fs::write(&path, outcome.table.to_csv()) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
            eprintln!(
                "[serving done in {:.1}s: {} runs, {} requests, {} events ({:.0}/s)]",
                outcome.wall_s,
                outcome.runs,
                outcome.requests,
                outcome.events,
                irs_bench::serving::events_per_sec(&outcome),
            );
            log_and_gate(
                check_perf,
                parity,
                &[irs_bench::serving::history_phase(&outcome, jobs)],
                Vec::new(),
            );
            continue;
        }
        let tables = run_experiment(&exp, opts);
        for (i, table) in tables.iter().enumerate() {
            print!("{table}");
            if let Some(dir) = &csv_dir {
                let path = if tables.len() == 1 {
                    format!("{dir}/{exp}.csv")
                } else {
                    format!("{dir}/{exp}_{i}.csv")
                };
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        eprintln!("[{exp} done in {:.1}s]", start.elapsed().as_secs_f64());
        println!();
    }
}
