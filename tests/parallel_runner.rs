//! The parallel experiment engine's headline guarantee: worker count
//! changes wall-clock only, never results. Every metric of every seeded
//! run must be bit-identical between `jobs = 1` and a wide fan-out.

use irs_sched::runner::run_seeds;
use irs_sched::{Scenario, Strategy};

fn assert_identical_runs(make: impl Fn(u64) -> Scenario + Sync) {
    let sequential = run_seeds(1, 6, 1, &make);
    let parallel = run_seeds(1, 6, 8, &make);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.elapsed, p.elapsed);
        assert_eq!(s.events, p.events);
        assert_eq!(s.measured().makespan, p.measured().makespan);
        assert_eq!(s.hv.preemptions, p.hv.preemptions);
        assert_eq!(s.hv.vcpu_migrations, p.hv.vcpu_migrations);
    }
}

/// Vanilla EP: the cheapest preset, blocking guest path.
#[test]
fn vanilla_runs_identical_across_worker_counts() {
    assert_identical_runs(|seed| Scenario::fig5_style("EP", 1, Strategy::Vanilla, seed));
}

/// IRS with interference: exercises SA upcalls, the migrator, and
/// hypervisor preemption — the full event mix.
#[test]
fn irs_runs_identical_across_worker_counts() {
    assert_identical_runs(|seed| Scenario::fig5_style("EP", 2, Strategy::Irs, seed));
}
