//! Output digests and the pinned references they are checked against.
//!
//! An op's digest covers the simulated outcome only — virtual times,
//! per-VM results, latency samples, and the hypervisor and guest counters
//! — and leaves out `RunResult::events`, the simulator's own event count,
//! which an optimisation may legitimately change (event elision) without
//! changing anything simulated.

use irs_core::RunResult;
use std::collections::BTreeMap;

/// The pinned references, compiled in: one line per (workload, slot),
/// `<workload> <slot> <hex digest>,<hex digest>,...` in op order.
pub const REFERENCES: &str = include_str!("../references.txt");

/// The first line of `references.txt`.
pub const REFERENCES_HEADER: &str =
    "# Pinned op digests: <workload> <input slot> <digest>,... in op order. Re-pin with `perfbench --pin`.\n";

/// Incremental FNV-1a (64-bit).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in one integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds in one float by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one run's simulated outcome.
pub fn run_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(r.elapsed.as_nanos());
    let hv = &r.hv;
    for v in [
        hv.schedules,
        hv.preemptions,
        hv.sa_sent,
        hv.sa_acked,
        hv.sa_timeouts,
        hv.ple_exits,
        hv.co_parks,
        hv.wakes,
        hv.boosts,
        hv.vcpu_migrations,
        hv.gang_rotations,
    ] {
        h.u64(v);
    }
    for vm in &r.vms {
        h.bytes(vm.name.as_bytes()).u64(vm.measured as u64);
        h.u64(vm.makespan.map_or(u64::MAX, |t| t.as_nanos()));
        for t in [vm.useful, vm.cpu_time, vm.steal_time] {
            h.u64(t.as_nanos());
        }
        for v in [
            vm.requests,
            vm.dropped_requests,
            vm.requests_truncated,
            vm.lhp,
            vm.lwp,
        ] {
            h.u64(v);
        }
        h.u64(vm.latencies_us.len() as u64);
        for &l in &vm.latencies_us {
            h.f64(l);
        }
        let g = &vm.guest;
        for v in [
            g.context_switches,
            g.wakeups,
            g.push_migrations,
            g.pull_migrations,
            g.wake_migrations,
            g.sa_migrations,
            g.sa_idle_targets,
            g.sa_upcalls,
            g.pingpong_preempts,
            g.stopper_migrations,
            g.idle_blocks,
        ] {
            h.u64(v);
        }
    }
    h.finish()
}

/// Reference digests by workload name and slot.
pub type References = BTreeMap<String, BTreeMap<u64, Vec<u64>>>;

/// Parses the references format; malformed lines are an error.
pub fn parse_references(text: &str) -> Result<References, String> {
    let mut out = References::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("references line {}: malformed: {line:.60}", n + 1);
        let mut parts = line.split_whitespace();
        let (Some(name), Some(slot), Some(list), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(bad());
        };
        let slot: u64 = slot.parse().map_err(|_| bad())?;
        let digests = list
            .split(',')
            .map(|d| u64::from_str_radix(d, 16).map_err(|_| bad()))
            .collect::<Result<Vec<_>, _>>()?;
        out.entry(name.to_string())
            .or_default()
            .insert(slot, digests);
    }
    Ok(out)
}

/// Renders one references line.
pub fn reference_line(workload: &str, slot: u64, digests: &[u64]) -> String {
    let list: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    format!("{workload} {slot} {}", list.join(","))
}

/// Indices of the ops that failed: an op fails when it produced no digest
/// (it panicked or broke its contract) or a digest other than the
/// reference's. Extra or missing ops against the reference fail too.
pub fn failed_ops(reference: &[u64], got: &[Option<u64>]) -> Vec<usize> {
    (0..got.len().max(reference.len()))
        .filter(|&i| match (reference.get(i), got.get(i)) {
            (Some(r), Some(Some(g))) => r != g,
            _ => true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_round_trip() {
        let line = reference_line("paper-grid", 3, &[1, 0xdead_beef]);
        let refs = parse_references(&format!("# header\n{line}\n")).unwrap();
        assert_eq!(refs["paper-grid"][&3], vec![1, 0xdead_beef]);
        assert!(parse_references("paper-grid x 01").is_err());
        assert!(parse_references("paper-grid 1 zz").is_err());
    }

    #[test]
    fn failure_accounting_counts_each_bad_op() {
        assert!(failed_ops(&[1, 2, 3], &[Some(1), Some(2), Some(3)]).is_empty());
        assert_eq!(
            failed_ops(&[1, 2, 3], &[Some(1), None, Some(4)]),
            vec![1, 2]
        );
        assert_eq!(failed_ops(&[1, 2], &[Some(1)]), vec![1]);
    }
}
