//! The scheduling strategies compared throughout the evaluation.

use irs_guest::GuestConfig;
use irs_sim::SimTime;
use irs_xen::{PleConfig, RelaxedCoConfig, SaConfig, XenConfig};
use std::fmt;

/// A hypervisor/guest scheduling strategy (§5.1 "Scheduling strategies").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Unmodified Xen credit scheduler + unmodified Linux guest: the
    /// baseline every figure normalizes against.
    Vanilla,
    /// Pause-loop exiting: the hypervisor yields a vCPU caught spinning
    /// beyond the PLE window (hardware-assisted spin mitigation).
    Ple,
    /// The paper's reimplementation of VMware's relaxed co-scheduling:
    /// per-period skew monitoring, park the leader, boost the laggard
    /// (idle counts as progress — deliberately).
    RelaxedCo,
    /// Interference-resilient scheduling: scheduler activations from the
    /// hypervisor plus guest-side context switcher and migrator.
    Irs,
    /// Strict (gang) co-scheduling — the VMware ESX 2.x scheme §2.1
    /// discusses: whole VMs rotate on gang slices. Immune to LHP/LWP by
    /// construction, but pays CPU fragmentation and slot-wait latency.
    StrictCo,
    /// The paper's §6 "Limitation" thought experiment: ideal *pull-based*
    /// migration, where an idle vCPU pulls the stranded "running" task off
    /// a preempted sibling directly. Not realizable in a real guest without
    /// new kernel machinery; implemented here as the upper-bound oracle.
    IrsPull,
}

impl Strategy {
    /// Every strategy, in the order the paper's figures list them.
    pub const ALL: [Strategy; 4] = [
        Strategy::Vanilla,
        Strategy::Ple,
        Strategy::RelaxedCo,
        Strategy::Irs,
    ];

    /// Hypervisor configuration implementing this strategy.
    ///
    /// All strategies run with a small slice perturbation
    /// ([`XenConfig::slice_jitter`]) so co-located deterministic workloads
    /// do not phase-lock, mirroring real-host timer noise.
    pub fn xen_config(self) -> XenConfig {
        let base = XenConfig {
            slice_jitter: SimTime::from_millis(2),
            ..XenConfig::default()
        };
        match self {
            Strategy::Vanilla => base,
            Strategy::Ple => XenConfig {
                ple: Some(PleConfig::default()),
                ..base
            },
            Strategy::RelaxedCo => XenConfig {
                relaxed_co: Some(RelaxedCoConfig::default()),
                ..base
            },
            Strategy::StrictCo => XenConfig {
                strict_co: true,
                // Gang rotation replaces per-pCPU slice scheduling; the
                // perturbation would only desynchronize the rotation.
                slice_jitter: SimTime::ZERO,
                ..base
            },
            Strategy::Irs | Strategy::IrsPull => XenConfig {
                sa: Some(SaConfig::default()),
                ..base
            },
        }
    }

    /// Guest configuration for a VM that participates in the strategy
    /// (the paper's foreground VM; background VMs always run vanilla
    /// kernels — see §5.4 footnote 1).
    pub fn guest_config(self) -> GuestConfig {
        match self {
            Strategy::Irs | Strategy::IrsPull => GuestConfig::with_irs(),
            _ => GuestConfig::default(),
        }
    }

    /// Whether foreground VMs register the SA upcall handler.
    pub fn sa_capable_guest(self) -> bool {
        matches!(self, Strategy::Irs | Strategy::IrsPull)
    }

    /// The continuous-spin window after which a PLE VM-exit fires, if this
    /// strategy reacts to spinning.
    pub fn ple_window(self) -> Option<SimTime> {
        match self {
            Strategy::Ple => Some(PleConfig::default().window),
            _ => None,
        }
    }

    /// Whether the idle-pull oracle (§6) is active.
    pub fn pull_oracle(self) -> bool {
        self == Strategy::IrsPull
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::Vanilla => "Vanilla",
            Strategy::Ple => "PLE",
            Strategy::RelaxedCo => "Relaxed-Co",
            Strategy::StrictCo => "Strict-Co",
            Strategy::Irs => "IRS",
            Strategy::IrsPull => "IRS-pull",
        };
        f.pad(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_match_strategies() {
        assert!(Strategy::Vanilla.xen_config().sa.is_none());
        assert!(Strategy::Ple.xen_config().ple.is_some());
        assert!(Strategy::RelaxedCo.xen_config().relaxed_co.is_some());
        assert!(Strategy::Irs.xen_config().sa.is_some());
        assert!(Strategy::IrsPull.xen_config().sa.is_some());
    }

    #[test]
    fn only_irs_strategies_enable_the_guest_side() {
        assert!(!Strategy::Vanilla.sa_capable_guest());
        assert!(!Strategy::Ple.sa_capable_guest());
        assert!(Strategy::Irs.sa_capable_guest());
        assert!(Strategy::Irs.guest_config().sa.is_some());
        assert!(Strategy::Ple.guest_config().sa.is_none());
    }

    #[test]
    fn ple_window_only_for_ple() {
        assert!(Strategy::Ple.ple_window().is_some());
        assert!(Strategy::Irs.ple_window().is_none());
        assert!(Strategy::Vanilla.ple_window().is_none());
    }

    #[test]
    fn display_names() {
        assert_eq!(Strategy::RelaxedCo.to_string(), "Relaxed-Co");
        assert_eq!(Strategy::Irs.to_string(), "IRS");
    }
}
