//! `figures fleet` — the datacenter-scale fleet campaign
//! (`irs_fleet`), sized for the CLI, plus its BENCH_history.jsonl
//! records and `--check-perf` ratchet.
//!
//! The full campaign runs a 120-host fleet over three churn epochs:
//! three placement policies × five adversary mixes, plus an overcommit
//! sweep, every cell simulated under both vanilla and IRS and held to
//! the degradation contract ([`irs_core::DEGRADATION_MARGIN`]). The
//! `--smoke` variant shrinks the fleet (16 hosts, 2 policies × 2 mixes)
//! for CI; it asserts the same contract. `--hosts N` rescales the fleet
//! shape (tenant load grows proportionally) — the *scale* configuration,
//! whose history phase is `fleet-scale` and whose ratchet tracks
//! *effective* throughput: logical events (what a non-incremental
//! campaign would have simulated) per wall second. The incremental
//! engine (dirty-host carry-over + composition-keyed result cache) is
//! what makes 1000-host fleets affordable; `--parity`
//! re-runs the campaign with incrementality disabled and asserts the
//! SLO tables are bit-identical.

use crate::perf::{json_raw_field, json_str_field, json_usize_field};
use crate::Opts;
use irs_fleet::{AdversaryMix, CampaignSpec, FleetConfig, FleetReport, PlacementPolicy};
use std::time::Instant;

/// Campaign outcome plus the wall-clock facts the history record needs.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The campaign report (tables, elision accounting, churn).
    pub report: FleetReport,
    /// Wall-clock of the whole campaign, seconds.
    pub wall_s: f64,
    /// Whether this was the `--smoke` variant (separate history phase).
    pub smoke: bool,
    /// Fleet size actually simulated (default, smoke, or `--hosts`).
    pub hosts: usize,
    /// Whether `--hosts` rescaled the fleet (the `fleet-scale` phase).
    pub scale: bool,
}

/// Ratchet tolerance for the fleet phases, matching the perf gate's.
const RATCHET_FRAC: f64 = 0.5;

/// The scale configuration's incrementality floor: the logical event
/// volume must be at least this multiple of what was actually executed
/// (counter-based, so the gate is deterministic).
const SCALE_MIN_ELISION: u64 = 5;

/// Builds the campaign spec for the CLI: full-size by default, the CI
/// smoke variant with `smoke`, rescaled to `hosts` when given (tenant
/// load scales with the fleet so occupancy stays comparable).
/// `opts.base_seed` seeds the fleet; `opts.seeds` is ignored (the
/// campaign is a population study — its sample count is tenant-epochs,
/// not repeated runs).
pub fn spec(opts: Opts, smoke: bool, hosts: Option<usize>) -> CampaignSpec {
    let mut fleet = FleetConfig {
        seed: opts.base_seed,
        jobs: opts.jobs,
        ..FleetConfig::default()
    };
    if smoke {
        fleet = FleetConfig {
            hosts: 16,
            epochs: 2,
            initial_tenants: 28,
            arrivals_per_epoch: 8,
            ..fleet
        };
    }
    if let Some(n) = hosts {
        // Stock ratios: 120 hosts carry 300 initial tenants and 100
        // arrivals per epoch — 5/2 and 5/6 per host.
        fleet.hosts = n;
        fleet.initial_tenants = n * 5 / 2;
        fleet.arrivals_per_epoch = (n * 5 / 6).max(1);
    }
    if smoke {
        CampaignSpec {
            fleet,
            policies: vec![PlacementPolicy::FirstFit, PlacementPolicy::InterferenceAware],
            mixes: vec![AdversaryMix::CLEAN, AdversaryMix::BLEND],
            overcommit_sweep: vec![],
            assert_contract: true,
        }
    } else {
        CampaignSpec {
            fleet,
            policies: vec![
                PlacementPolicy::FirstFit,
                PlacementPolicy::WorstFit,
                PlacementPolicy::InterferenceAware,
            ],
            mixes: vec![
                AdversaryMix::CLEAN,
                AdversaryMix::BOOST,
                AdversaryMix::STEAL,
                AdversaryMix::EVADE,
                AdversaryMix::BLEND,
            ],
            overcommit_sweep: vec![1.0, 1.5, 2.0],
            assert_contract: true,
        }
    }
}

/// Runs the fleet campaign and times it.
///
/// # Panics
///
/// Panics if any cell violates the degradation contract, or if no
/// composition repeated within an epoch (a fleet without repeated
/// compositions would mean the churn model degenerated).
pub fn fleet(opts: Opts, smoke: bool, hosts: Option<usize>) -> FleetOutcome {
    let spec = spec(opts, smoke, hosts);
    let fleet_hosts = spec.fleet.hosts;
    let t = Instant::now();
    let report = irs_fleet::run_campaign(&spec);
    let wall_s = t.elapsed().as_secs_f64();
    assert!(
        report.fork_warmup_saved > 0,
        "fleet campaign had no repeated host compositions to share a run"
    );
    FleetOutcome {
        report,
        wall_s,
        smoke,
        hosts: fleet_hosts,
        scale: hosts.is_some() && !smoke,
    }
}

/// Runs the campaign twice — incremental and full — and asserts the SLO
/// tables are bit-identical (the incremental-parity gate). Returns the
/// incremental outcome; the full run is compared and dropped.
///
/// # Panics
///
/// Panics on any table divergence or logical-counter mismatch.
pub fn assert_incremental_parity(opts: Opts, smoke: bool, hosts: Option<usize>) -> FleetOutcome {
    let mut full_spec = spec(opts, smoke, hosts);
    full_spec.fleet.incremental = false;
    let outcome = fleet(opts, smoke, hosts);
    let full = irs_fleet::run_campaign(&full_spec);
    let render = |r: &FleetReport| {
        r.tables
            .iter()
            .map(|t| t.render())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        render(&full),
        render(&outcome.report),
        "incremental SLO tables diverged from full re-simulation"
    );
    assert_eq!(full.events, outcome.report.events, "logical events diverged");
    assert_eq!(full.host_runs, outcome.report.host_runs, "host runs diverged");
    assert_eq!(
        full.tenants_placed, outcome.report.tenants_placed,
        "tenants placed diverged"
    );
    assert_eq!(
        full.tenants_rejected, outcome.report.tenants_rejected,
        "tenants rejected diverged"
    );
    assert!(
        outcome.report.runs_elided > 0,
        "parity held but incrementality elided nothing"
    );
    outcome
}

/// Events actually executed: the logical volume minus both savings
/// layers (shared warmups and elided member runs).
pub fn events_executed(o: &FleetOutcome) -> u64 {
    o.report
        .events
        .saturating_sub(o.report.fork_warmup_saved)
        .saturating_sub(o.report.events_elided)
}

/// Simulation throughput of the campaign: events actually executed per
/// wall second (the engine-speed metric — elided work excluded).
pub fn events_per_sec(o: &FleetOutcome) -> f64 {
    events_executed(o) as f64 / o.wall_s.max(1e-9)
}

/// *Effective* throughput: logical events per wall second — what the
/// campaign delivers per second counting carried/memoized host runs at
/// face value. This is the `fleet-scale` ratchet metric: it rises with
/// both engine speed and elision rate.
pub fn effective_events_per_sec(o: &FleetOutcome) -> f64 {
    o.report.events as f64 / o.wall_s.max(1e-9)
}

/// History phase name; smoke, full, and scale campaigns ratchet
/// separately (they simulate different fleets).
pub fn phase(o: &FleetOutcome) -> &'static str {
    if o.smoke {
        "fleet-smoke"
    } else if o.scale {
        "fleet-scale"
    } else {
        "fleet"
    }
}

/// One BENCH_history.jsonl record for this campaign, shaped like the
/// perf phases' records so one trend log covers both campaigns.
pub fn history_line(
    o: &FleetOutcome,
    commit: &str,
    timestamp: u64,
    jobs: usize,
    cores: usize,
) -> String {
    format!(
        "{{\"commit\": \"{commit}\", \"timestamp\": {timestamp}, \"phase\": \"{}\", \
         \"jobs\": {jobs}, \"cores\": {cores}, \"hosts\": {}, \
         \"events_per_sec\": {:.0}, \"effective_events_per_sec\": {:.0}, \
         \"fork_warmup_saved\": {}, \"runs_elided\": {}, \"host_runs\": {}}}\n",
        phase(o),
        o.hosts,
        events_per_sec(o),
        effective_events_per_sec(o),
        o.report.fork_warmup_saved,
        o.report.runs_elided,
        o.report.host_runs,
    )
}

/// The fleet side of `--check-perf`: ratchets the campaign's throughput
/// against the best matching history record (same phase, worker count,
/// host core count — and fleet size, for records new enough to carry
/// one). The `fleet` / `fleet-smoke` phases ratchet
/// *executed* events/sec (engine speed, comparable across the
/// incremental transition); `fleet-scale` ratchets *effective*
/// events/sec and additionally enforces the deterministic
/// `SCALE_MIN_ELISION`× incrementality floor.
pub fn check_fleet_perf(
    o: &FleetOutcome,
    history: &str,
    jobs: usize,
    cores: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    let scale = phase(o) == "fleet-scale";
    let (metric, current) = if scale {
        ("effective_events_per_sec", effective_events_per_sec(o))
    } else {
        ("events_per_sec", events_per_sec(o))
    };
    if scale {
        let executed = events_executed(o);
        if o.report.events < SCALE_MIN_ELISION * executed {
            failures.push(format!(
                "fleet-scale incrementality floor: logical volume {} is below \
                 {SCALE_MIN_ELISION}x the {executed} events executed \
                 (runs_elided={}, hosts_carried={})",
                o.report.events, o.report.runs_elided, o.report.hosts_carried,
            ));
        }
    }
    let best = history
        .lines()
        .filter(|l| {
            json_str_field(l, "phase").as_deref() == Some(phase(o))
                && json_usize_field(l, "jobs") == Some(jobs)
                && json_usize_field(l, "cores") == Some(cores)
                // Old records carry no hosts field; they predate --hosts
                // and can only be stock-size campaigns.
                && json_usize_field(l, "hosts").is_none_or(|h| h == o.hosts)
        })
        .filter_map(|l| {
            json_raw_field(l, metric)
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| v.is_finite() && *v > 0.0)
        })
        .fold(f64::NAN, f64::max);
    if best.is_finite() && current < RATCHET_FRAC * best {
        failures.push(format!(
            "{} phase ratchet: {current:.0} {metric} is below {:.0}% of the best \
             matching record ({best:.0}; jobs={jobs}, cores={cores})",
            phase(o),
            RATCHET_FRAC * 100.0,
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::runner::ForkCacheStats;
    use irs_metrics::Table;

    fn outcome(smoke: bool, scale: bool) -> FleetOutcome {
        FleetOutcome {
            report: FleetReport {
                tables: Vec::new(),
                fork_warmup_saved: 1_000,
                events_elided: 4_000,
                events: 15_000,
                host_runs: 40,
                runs_elided: 10,
                hosts_carried: 6,
                tenants_placed: 30,
                tenants_rejected: 2,
                cache: ForkCacheStats::default(),
                accounting: Table::new("accounting"),
            },
            wall_s: 2.0,
            smoke,
            hosts: if smoke { 16 } else { 120 },
            scale,
        }
    }

    #[test]
    fn throughput_metrics_decompose() {
        let o = outcome(true, false);
        // Executed: 15000 − 1000 − 4000.
        assert_eq!(events_executed(&o), 10_000);
        assert_eq!(events_per_sec(&o), 5_000.0);
        assert_eq!(effective_events_per_sec(&o), 7_500.0);
    }

    #[test]
    fn history_line_is_one_self_describing_record() {
        let l = history_line(&outcome(true, false), "abc1234", 1_700_000_000, 2, 4);
        assert!(l.ends_with("}\n"));
        assert_eq!(json_str_field(&l, "phase").as_deref(), Some("fleet-smoke"));
        assert_eq!(json_usize_field(&l, "jobs"), Some(2));
        assert_eq!(json_usize_field(&l, "cores"), Some(4));
        assert_eq!(json_usize_field(&l, "hosts"), Some(16));
        assert_eq!(json_raw_field(&l, "events_per_sec").as_deref(), Some("5000"));
        assert_eq!(
            json_raw_field(&l, "effective_events_per_sec").as_deref(),
            Some("7500")
        );
        assert_eq!(json_raw_field(&l, "runs_elided").as_deref(), Some("10"));
        assert_eq!(json_raw_field(&l, "fork_warmup_saved").as_deref(), Some("1000"));
    }

    #[test]
    fn fleet_ratchet_matches_config_and_fires() {
        let o = outcome(false, false);
        let good = "{\"phase\": \"fleet\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 6000}\n";
        assert!(check_fleet_perf(&o, good, 2, 4).is_empty());
        let fast = "{\"phase\": \"fleet\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 99999999}\n";
        let failures = check_fleet_perf(&o, fast, 2, 4);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("fleet phase ratchet"));
        // Other phase, jobs, or cores: ignored.
        assert!(check_fleet_perf(&o, fast, 4, 4).is_empty());
        assert!(check_fleet_perf(&o, fast, 2, 64).is_empty());
        let smoke_rec = fast.replace("\"fleet\"", "\"fleet-smoke\"");
        assert!(check_fleet_perf(&o, &smoke_rec, 2, 4).is_empty());
        // A legacy record written with event elision on is a baseline
        // too: 5000 events/s < 0.5 x 12000 fails.
        let legacy = "{\"phase\": \"fleet\", \"tickless\": true, \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 12000}\n";
        assert_eq!(check_fleet_perf(&o, legacy, 2, 4).len(), 1);
    }

    #[test]
    fn hosts_aware_matching_skips_other_sizes() {
        let o = outcome(false, false); // 120 hosts
        let other_size = "{\"phase\": \"fleet\", \"jobs\": 2, \"cores\": 4, \"hosts\": 1000, \"events_per_sec\": 99999999}\n";
        assert!(check_fleet_perf(&o, other_size, 2, 4).is_empty());
        let same_size = other_size.replace("\"hosts\": 1000", "\"hosts\": 120");
        assert_eq!(check_fleet_perf(&o, &same_size, 2, 4).len(), 1);
    }

    #[test]
    fn scale_phase_ratchets_effective_throughput_and_floors_elision() {
        let mut o = outcome(false, true);
        o.hosts = 1000;
        assert_eq!(phase(&o), "fleet-scale");
        // 15000 logical < 5 × 10000 executed: the elision floor fires
        // even with no history at all.
        let failures = check_fleet_perf(&o, "", 2, 4);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("incrementality floor"));
        // With enough elision the floor passes and the ratchet compares
        // effective (not executed) throughput.
        o.report.events_elided = 50_000;
        o.report.events = 55_000; // executed 4000; 55000 ≥ 5×4000
        let fast = "{\"phase\": \"fleet-scale\", \"jobs\": 2, \"cores\": 4, \"hosts\": 1000, \"effective_events_per_sec\": 999999999}\n";
        let failures = check_fleet_perf(&o, fast, 2, 4);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("fleet-scale phase ratchet"));
        assert!(failures[0].contains("effective_events_per_sec"));
        let slow = fast.replace("999999999", "30000");
        assert!(check_fleet_perf(&o, slow.as_str(), 2, 4).is_empty());
    }
}
