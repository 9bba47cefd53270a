//! End-to-end tests for the online invariant sanitizer (`irs_core::check`):
//! clean strategies stay clean, checking never perturbs results, and a
//! deliberately corrupted scheduler is caught with a named invariant and a
//! trace dump.

use irs_core::{FaultConfig, Scenario, Strategy, System, SystemConfig};
use irs_sim::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn checked_cfg() -> SystemConfig {
    SystemConfig {
        check: true,
        ..SystemConfig::default()
    }
}

fn short_fig5(strategy: Strategy, seed: u64) -> Scenario {
    Scenario::fig5_style("streamcluster", 2, strategy, seed).horizon(SimTime::from_secs(5))
}

/// Every shipping strategy survives a checked run with zero violations
/// (a violation panics, so reaching the result *is* the assertion).
#[test]
fn checked_runs_are_clean_for_all_strategies() {
    for strategy in Strategy::ALL {
        let res = System::with_config(short_fig5(strategy, 7), checked_cfg()).run();
        assert!(res.events > 0, "{strategy}: no events processed");
    }
}

/// Strict co-scheduling exercises the gang-rotation paths the default four
/// strategies never touch; keep it honest under the sanitizer too.
#[test]
fn checked_strict_co_is_clean() {
    let res = System::with_config(short_fig5(Strategy::StrictCo, 7), checked_cfg()).run();
    assert!(res.events > 0);
}

/// The sanitizer (and the trace rings it arms) must be observers only:
/// the same scenario with checking on and off produces bit-identical
/// results, down to the debug rendering of every per-VM metric.
#[test]
fn checking_does_not_perturb_results() {
    let plain = System::new(short_fig5(Strategy::Irs, 42)).run();
    let checked = System::with_config(short_fig5(Strategy::Irs, 42), checked_cfg()).run();
    assert_eq!(plain.events, checked.events, "event counts diverged");
    assert_eq!(plain.elapsed, checked.elapsed, "elapsed time diverged");
    assert_eq!(
        format!("{:?}", plain.vms),
        format!("{:?}", checked.vms),
        "per-VM results diverged between checked and unchecked runs"
    );
}

/// A scheduler that double-books a pCPU on wake-up must be caught, and the
/// panic report must name the invariant and carry a timestamped trace of
/// the decisions that led to the corruption.
#[test]
fn fault_injection_trips_the_sanitizer() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let cfg = SystemConfig {
            faults: Some(FaultConfig {
                double_run: true,
                ..FaultConfig::default()
            }),
            ..checked_cfg()
        };
        System::with_config(short_fig5(Strategy::Vanilla, 42), cfg).run()
    }));
    let err = result.expect_err("the double-run fault must trip the sanitizer");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload should be a string");
    assert!(
        msg.contains("scheduler invariant violated: pcpu-double-run"),
        "report does not name the tripped invariant:\n{msg}"
    );
    assert!(
        msg.contains("last scheduling decisions"),
        "report carries no trace dump:\n{msg}"
    );
    // The dump is rendered as `[<timestamp>] <category> <decision>` lines;
    // the wake that double-booked the pCPU must be among them, timestamped.
    assert!(
        msg.lines()
            .any(|l| l.trim_start().starts_with('[') && l.contains("xen.wake")),
        "trace dump lacks timestamped wake decisions:\n{msg}"
    );
}
