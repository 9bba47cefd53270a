//! Hypervisor configuration.

use irs_sim::SimTime;

/// Configuration of the hypervisor and its credit scheduler.
///
/// Defaults mirror Xen 4.5's credit scheduler as described in the paper:
/// 30 ms time slice, 10 ms credit-burn tick, 30 ms accounting period, and
/// wake-up boosting enabled.
///
/// # Example
///
/// ```
/// use irs_sim::SimTime;
/// use irs_xen::{SaConfig, XenConfig};
///
/// let cfg = XenConfig {
///     sa: Some(SaConfig::default()),
///     ..XenConfig::default()
/// };
/// assert_eq!(cfg.time_slice, SimTime::from_millis(30));
/// ```
#[derive(Debug, Clone)]
pub struct XenConfig {
    /// Maximum time a vCPU runs before the scheduler re-decides (30 ms).
    pub time_slice: SimTime,
    /// Half-width of the deterministic per-dispatch slice perturbation.
    ///
    /// Real hosts never run slices in perfect lockstep: interrupts, softirqs
    /// and timer skew desynchronize the per-pCPU schedules. Without this,
    /// co-located deterministic workloads phase-lock (all contended vCPUs
    /// stall in the same windows), which understates the stall unions that
    /// drive the paper's vanilla slowdowns. Zero disables the perturbation
    /// (unit tests rely on exact slice arithmetic).
    pub slice_jitter: SimTime,
    /// Period of the credit-burn tick (10 ms).
    pub tick_period: SimTime,
    /// Period of credit replenishment and priority recomputation (30 ms).
    pub accounting_period: SimTime,
    /// Whether vCPUs waking from `Blocked` receive the BOOST priority.
    pub boost: bool,
    /// Whether unpinned vCPUs are placed by load and stolen by idle pCPUs.
    ///
    /// Pinned vCPUs (hard affinity) are never migrated regardless.
    pub migration: bool,
    /// Initial placement of unpinned vCPUs: `None` assigns round-robin
    /// homes (exactly balanced — convenient for unit tests); `Some(salt)`
    /// hashes `(salt, vm, vcpu)` to a pCPU, producing the lumpy placements
    /// real creation order yields. Lumpy placement is a precondition for
    /// the §5.6 CPU-stacking pathology: with no idle pCPU to steal from,
    /// initially co-located sibling vCPUs stay co-located.
    pub placement_salt: Option<u64>,
    /// Scheduler-activation (IRS) sender; `None` disables SA entirely.
    pub sa: Option<SaConfig>,
    /// Pause-loop-exiting response; `None` means PLE exits are ignored.
    pub ple: Option<PleConfig>,
    /// Relaxed co-scheduling; `None` disables skew balancing.
    pub relaxed_co: Option<RelaxedCoConfig>,
    /// Strict (gang) co-scheduling — the VMware ESX 2.x baseline of §2.1:
    /// whole VMs rotate on gang slices; see [`crate::Hypervisor::gang_rotate`].
    pub strict_co: bool,
    /// **Deliberate fault injection** for the invariant sanitizer's own
    /// tests: on wake-up the scheduler marks the woken vCPU `Running` on its
    /// target pCPU *without* descheduling the incumbent, double-booking the
    /// pCPU. Never set outside sanitizer self-tests (which reach it through
    /// `irs_core::FaultConfig::double_run`).
    pub fault_double_run: bool,
}

impl Default for XenConfig {
    fn default() -> Self {
        XenConfig {
            time_slice: SimTime::from_millis(30),
            slice_jitter: SimTime::ZERO,
            tick_period: SimTime::from_millis(10),
            accounting_period: SimTime::from_millis(30),
            boost: true,
            migration: false,
            placement_salt: None,
            sa: None,
            ple: None,
            relaxed_co: None,
            strict_co: false,
            fault_double_run: false,
        }
    }
}

/// Scheduler-activation sender parameters (paper §3.1, §4.1).
#[derive(Debug, Clone)]
pub struct SaConfig {
    /// Hard limit on guest SA processing before the hypervisor forces the
    /// preemption anyway — the paper's defense against rogue guests that
    /// never return control (§4.1). SA processing normally takes 20–26 µs,
    /// so a generous 500 µs limit never triggers for well-behaved guests.
    pub completion_limit: SimTime,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            completion_limit: SimTime::from_micros(500),
        }
    }
}

/// Pause-loop-exiting parameters.
///
/// PLE is a hardware feature: after a guest executes PAUSE in a tight loop
/// beyond a threshold window, the CPU takes a VM-exit. The *detection* is
/// modelled by the embedding simulation (it knows when a task spins); this
/// config controls the hypervisor's *response*, which in Xen's credit
/// scheduler is to yield the spinning vCPU.
#[derive(Debug, Clone)]
pub struct PleConfig {
    /// Continuous spin window that triggers a VM-exit (order of tens of µs
    /// on real hardware; the default models a 25 µs window).
    pub window: SimTime,
}

impl Default for PleConfig {
    fn default() -> Self {
        PleConfig {
            window: SimTime::from_micros(25),
        }
    }
}

/// Relaxed co-scheduling parameters (the paper's reimplementation of
/// VMware's scheme, §5.1).
///
/// Every accounting period the hypervisor measures per-vCPU *progress*,
/// where — crucially, and deliberately — **idle (blocked) time counts as
/// progress**. If the skew between the most- and least-progressed sibling
/// exceeds [`RelaxedCoConfig::skew_threshold`], the leading vCPU is stopped
/// for one period and the most-lagging runnable sibling is boosted.
#[derive(Debug, Clone)]
pub struct RelaxedCoConfig {
    /// Progress skew between siblings that triggers a leader/laggard swap.
    pub skew_threshold: SimTime,
}

impl Default for RelaxedCoConfig {
    fn default() -> Self {
        RelaxedCoConfig {
            skew_threshold: SimTime::from_millis(30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_xen_credit() {
        let cfg = XenConfig::default();
        assert_eq!(cfg.time_slice, SimTime::from_millis(30));
        assert_eq!(cfg.tick_period, SimTime::from_millis(10));
        assert_eq!(cfg.accounting_period, SimTime::from_millis(30));
        assert!(cfg.boost);
        assert!(!cfg.migration);
        assert!(cfg.sa.is_none());
        assert!(cfg.ple.is_none());
        assert!(cfg.relaxed_co.is_none());
    }

    #[test]
    fn sa_limit_is_generous_relative_to_processing_cost() {
        // Paper: SA processing takes 20–26 µs; limit must not clip it.
        let sa = SaConfig::default();
        assert!(sa.completion_limit > SimTime::from_micros(26));
    }

    #[test]
    fn ple_window_is_sub_slice() {
        let ple = PleConfig::default();
        assert!(ple.window < XenConfig::default().time_slice);
    }
}
