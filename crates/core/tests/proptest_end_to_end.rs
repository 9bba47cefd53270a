//! End-to-end property tests: randomly composed workloads, strategies,
//! interference, and fault profiles always run to completion with the
//! online sanitizer armed on every event, cross-layer invariants intact,
//! and physical time conserved.

use irs_core::{FaultConfig, Scenario, Strategy, System, SystemConfig, VmScenario};
use irs_sim::SimTime;
use irs_sync::{SyncSpace, WaitMode};
use irs_workloads::{presets, ProgramBuilder, WorkloadBundle};
use proptest::prelude::*;

/// A random small parallel workload: n threads, barrier or mutex, blocking
/// or spinning, short enough to finish fast.
fn random_bundle(
    threads: usize,
    iters: u64,
    grain_us: u64,
    barrier: bool,
    spin: bool,
) -> WorkloadBundle {
    let mode = if spin { WaitMode::Spin } else { WaitMode::Block };
    let mut space = SyncSpace::new();
    if barrier {
        let bar = space.new_barrier(threads, mode);
        let progs = (0..threads)
            .map(|_| {
                ProgramBuilder::new()
                    .repeat(iters, |b| b.compute_us(grain_us, 0.1).barrier(bar))
                    .build()
            })
            .collect();
        WorkloadBundle::parallel("prop", progs, space, 0.5)
    } else {
        let lock = space.new_lock(mode);
        let join = space.new_barrier(threads, mode);
        let progs = (0..threads)
            .map(|_| {
                ProgramBuilder::new()
                    .repeat(iters, |b| {
                        b.compute_us(grain_us, 0.1)
                            .lock(lock)
                            .compute_us(20, 0.1)
                            .unlock(lock)
                    })
                    .barrier(join)
                    .build()
            })
            .collect();
        WorkloadBundle::parallel("prop", progs, space, 0.5)
    }
}

fn strategy_from(idx: u8) -> Strategy {
    match idx % 6 {
        0 => Strategy::Vanilla,
        1 => Strategy::Ple,
        2 => Strategy::RelaxedCo,
        3 => Strategy::Irs,
        4 => Strategy::StrictCo,
        _ => Strategy::IrsPull,
    }
}

fn faults_from(idx: u8) -> FaultConfig {
    match idx % 7 {
        0 => FaultConfig::none(),
        1 => FaultConfig::upcall_storm(),
        2 => FaultConfig::ack_chaos(),
        3 => FaultConfig::wedged_guest(),
        4 => FaultConfig::jittery_timer(),
        5 => FaultConfig::degraded_host(),
        _ => FaultConfig::everything(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any random configuration completes under any fault profile, passes
    /// the sanitizer after every event, conserves physical time, and keeps
    /// every layer's invariants at sampled points.
    #[test]
    fn random_scenarios_complete_cleanly(
        threads in 2usize..6,
        iters in 3u64..12,
        grain_us in 500u64..8_000,
        barrier in any::<bool>(),
        spin in any::<bool>(),
        strategy_idx in 0u8..6,
        n_inter in 1usize..4,
        pinned in any::<bool>(),
        seed in 0u64..1_000,
        fault_idx in 0u8..7,
    ) {
        let bundle = random_bundle(threads, iters, grain_us, barrier, spin);
        let strategy = strategy_from(strategy_idx);
        let mut scenario = Scenario::new(4, strategy, seed)
            .vm(VmScenario::new(bundle, 4).pin_one_to_one().measured())
            .vm(VmScenario::new(presets::hog::cpu_hogs(n_inter), 4).pin_one_to_one())
            .horizon(SimTime::from_secs(60));
        if !pinned {
            for vm in &mut scenario.vms {
                vm.pinning = None;
            }
        }
        let faults = faults_from(fault_idx);
        let cfg = SystemConfig {
            check: true,
            faults: Some(faults.clone()),
            ..SystemConfig::default()
        };
        let mut sys = System::with_config(scenario, cfg);
        let mut steps = 0u64;
        loop {
            prop_assert!(sys.step(), "event queue drained unexpectedly");
            steps += 1;
            if steps.is_multiple_of(509) {
                sys.check_invariants();
            }
            if sys.guest(0).n_tasks() > 0
                && (0..sys.guest(0).n_tasks())
                    .all(|t| sys.guest(0).task(irs_guest::TaskId(t)).state
                        == irs_guest::TaskState::Exited)
            {
                break;
            }
            prop_assert!(
                sys.now() < SimTime::from_secs(59),
                "workload failed to complete ({strategy}, spin={spin}, barrier={barrier}, {faults:?})"
            );
        }
        sys.check_invariants();

        // Physical conservation: the two VMs' CPU time cannot exceed the
        // machine's capacity over the elapsed window.
        let elapsed = sys.now();
        let hv = sys.hypervisor();
        let total: u64 = (0..2)
            .map(|vm| hv.vm_cpu_time(irs_xen::VmId(vm), elapsed).as_nanos())
            .sum();
        prop_assert!(total <= 4 * elapsed.as_nanos() + 1000);
    }
}
