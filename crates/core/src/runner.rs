//! Experiment runners: one entry point per job, each fanning out through
//! [`parallel::ordered_map`] with an explicit worker count (`0` = process
//! default).
//!
//! * [`run_seeds`] — one constructor over consecutive seeds (the paper
//!   reports the average of at least five runs per data point).
//! * [`grid_mean_makespans`] — seed-averaged makespans of a batch of
//!   constructors in one fan-out.
//! * [`run_forked`] — one warmup snapshot completed as many branches.
//! * [`run_forked_grid_cached`] — keyed groups sharing one run each, with
//!   a cross-call result cache ([`ForkCache`]).

use crate::parallel;
use crate::results::RunResult;
use crate::scenario::Scenario;
use crate::system::{System, SystemConfig};
use irs_metrics::Summary;
use irs_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A borrowed scenario constructor, the unit of work in a
/// [`grid_mean_makespans`] batch.
pub type ScenarioFn<'a> = &'a (dyn Fn(u64) -> Scenario + Sync);

/// Runs `make(seed)` for `seeds` consecutive seeds starting at
/// `base_seed`, returning every result in seed order.
///
/// Runs fan out across `jobs` workers (`0` = the process default, see
/// [`parallel::default_jobs`]); results are identical to a sequential run.
pub fn run_seeds<F>(base_seed: u64, seeds: u64, jobs: usize, make: F) -> Vec<RunResult>
where
    F: Fn(u64) -> Scenario + Sync,
{
    parallel::ordered_map(jobs, seeds as usize, |i| make(base_seed + i as u64).run())
}

/// Mean makespans for a whole batch of scenario constructors in one
/// fan-out: `makes.len() × seeds` independent runs share the worker pool,
/// so narrow panels still saturate wide hosts.
///
/// Entry `k` of the result is the seed-averaged makespan of `makes[k]`
/// (job order is constructor-major, seed-minor — canonical and therefore
/// deterministic).
///
/// # Panics
///
/// Panics if any run failed to complete within its horizon.
pub fn grid_mean_makespans(
    base_seed: u64,
    seeds: u64,
    jobs: usize,
    makes: &[ScenarioFn<'_>],
) -> Vec<f64> {
    let per = seeds as usize;
    let samples = parallel::ordered_map(jobs, makes.len() * per, |i| {
        let make = makes[i / per];
        make(base_seed + (i % per) as u64).run().measured().makespan_ms()
    });
    samples
        .chunks(per.max(1))
        .map(|chunk| Summary::of(chunk).mean)
        .collect()
}

/// One warmup, many branches: builds the scenario, runs it to `warmup`
/// virtual time once, snapshots, and completes `branches` forked copies
/// through the worker pool (`jobs` as in [`run_seeds`]).
///
/// Every branch is bit-identical to a from-scratch run of the same
/// `(scenario, cfg)` pair — the [`crate::Snapshot`] determinism contract.
/// Returns the per-branch results plus the number of events the sharing
/// avoided re-executing (`warmup events × (branches − 1)`).
///
/// A `warmup` past the run's completion is harmless: the snapshot is then
/// of the finished state and branches return immediately (still
/// bit-identical — [`System::run`] re-checks completion before stepping).
pub fn run_forked(
    scenario: Scenario,
    cfg: SystemConfig,
    warmup: SimTime,
    branches: usize,
    jobs: usize,
) -> (Vec<RunResult>, u64) {
    let mut sys = System::with_config(scenario, cfg);
    sys.run_until(warmup);
    let snap = sys.snapshot();
    let saved = snap
        .events_processed()
        .saturating_mul(branches.saturating_sub(1) as u64);
    let results = parallel::ordered_map(jobs, branches, |_| snap.resume().run());
    (results, saved)
}

/// Counters of a [`ForkCache`]'s behaviour, cheap to copy out for
/// reporting. Hits and misses count *groups* (one lookup per group per
/// [`run_forked_grid_cached`] call), not member runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkCacheStats {
    /// Groups served entirely from a cached [`RunResult`] (no simulation).
    pub result_hits: u64,
    /// Always 0: the cache holds no warmup snapshots. Kept so existing
    /// reports keep their shape.
    pub snapshot_hits: u64,
    /// Groups with no cached result: one full run each.
    pub misses: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently resident (see [`RunResult::approx_bytes`]
    /// for what "estimated" means).
    pub resident_bytes: usize,
}

impl ForkCacheStats {
    /// Fraction of lookups served from the cache; `NaN` before the first
    /// lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.result_hits + self.snapshot_hits;
        hits as f64 / (hits + self.misses) as f64
    }
}

/// One cached result.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// Completed-run result; runs of one key are bit-identical, so a
    /// single result stands for every member of the group.
    result: Arc<RunResult>,
    /// Events the run had processed by the warmup instant (0 when the
    /// owning call passed no warmup).
    warmup_events: u64,
    /// Estimated resident bytes of this entry.
    bytes: usize,
    /// LRU stamp (monotonic lookup counter).
    last_used: u64,
}

/// Cross-call result cache for [`run_forked_grid_cached`]: the
/// cross-epoch carry-over store behind the fleet campaign's incremental
/// mode.
///
/// Keys are caller-chosen `u64`s that must uniquely identify the
/// `(scenario, config)` pair (the fleet uses its composition seed, which
/// *is* the scenario seed). Each entry holds the completed-run
/// [`RunResult`] for its key; because runs are deterministic, one cached
/// result serves any number of future members — reuse cannot change any
/// table derived from the results.
///
/// The cache is memory-bounded: entry sizes are *estimated* (coarse but
/// deterministic — see [`RunResult::approx_bytes`]) and least-recently-used
/// entries are evicted once the estimate exceeds the budget. All
/// bookkeeping happens on the driver thread in deterministic order, so
/// hit/miss/eviction counts are identical for every `--jobs N`.
#[derive(Debug)]
pub struct ForkCache {
    max_bytes: usize,
    tick: u64,
    entries: BTreeMap<u64, CacheEntry>,
    stats: ForkCacheStats,
}

impl ForkCache {
    /// Creates a cache holding at most (an estimated) `max_bytes`. A budget
    /// smaller than any single entry still works — every insertion is
    /// evicted right back out, degrading to recompute-always.
    pub fn new(max_bytes: usize) -> Self {
        ForkCache {
            max_bytes,
            tick: 0,
            entries: BTreeMap::new(),
            stats: ForkCacheStats::default(),
        }
    }

    /// Current counters (resident bytes included).
    pub fn stats(&self) -> ForkCacheStats {
        self.stats
    }

    /// The configured byte budget.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evicts least-recently-used entries until the byte estimate fits the
    /// budget.
    fn evict_to_budget(&mut self) {
        while self.stats.resident_bytes > self.max_bytes && !self.entries.is_empty() {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty cache has an LRU entry");
            let e = self.entries.remove(&lru).expect("key just observed");
            self.stats.resident_bytes -= e.bytes;
            self.stats.evictions += 1;
        }
    }
}

/// Outcome of one [`run_forked_grid_cached`] call.
///
/// `results[g]` is the single result shared by every member of group `g`
/// (runs of one key are bit-identical, so handing the same `Arc` to each
/// member is observationally equal to running them all). The counters
/// decompose the *logical* event volume (`Σ size[g] × results[g].events`)
/// so that
///
/// ```text
/// executed = logical − fork_warmup_saved − events_elided
/// ```
///
/// always equals the events this call actually simulated.
#[derive(Debug, Clone)]
pub struct CachedGrid {
    /// One shared result per group, in input order.
    pub results: Vec<Arc<RunResult>>,
    /// The warmup-prefix share of the events not re-executed:
    /// `warmup_events × (members − runs executed)` summed over groups.
    pub fork_warmup_saved: u64,
    /// The post-warmup share of the events not re-executed:
    /// `(total − warmup) events × (members − runs executed)` summed.
    pub events_elided: u64,
    /// Member runs served by a shared or memoized result instead of a
    /// simulation (`members − runs executed`, summed over groups).
    pub runs_elided: u64,
}

/// Runs a grid of keyed groups with a cross-call [`ForkCache`]: group `g`
/// is identified by `groups[g].0` and has `groups[g].1` members; `make(g)`
/// builds its scenario on a miss.
///
/// Per group, at most one run is ever executed — within a call (members
/// share their group's single result) *and across calls* (a later call
/// with the same key reuses the cached result). Misses fan out through
/// the worker pool in group order, so results and counters are
/// bit-identical for every `jobs` value. `warmup` only splits the
/// accounting: with `Some(w)` each miss records how many events it had
/// processed by `w` (an uninterrupted `run_until(w)` then `run()`, which
/// is the same event sequence as one `run()`), and the elided volume is
/// reported as warmup-prefix ([`CachedGrid::fork_warmup_saved`]) and
/// post-warmup ([`CachedGrid::events_elided`]) events.
///
/// Keys must be unique within one call, and must map to one scenario:
/// the shared-result shortcut is sound only because runs of equal
/// `(scenario, config)` pairs are bit-identical.
pub fn run_forked_grid_cached<F>(
    jobs: usize,
    warmup: Option<SimTime>,
    cfg: &SystemConfig,
    groups: &[(u64, usize)],
    make: F,
    cache: &mut ForkCache,
) -> CachedGrid
where
    F: Fn(usize) -> Scenario + Sync,
{
    debug_assert!(
        groups.iter().map(|&(k, _)| k).collect::<std::collections::BTreeSet<_>>().len()
            == groups.len(),
        "cache keys must be unique within one call"
    );

    // Classify each group against the cache (sequential: deterministic
    // hit/miss order at any worker count).
    let mut miss = Vec::new();
    for (g, &(key, _)) in groups.iter().enumerate() {
        cache.tick += 1;
        match cache.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = cache.tick;
                cache.stats.result_hits += 1;
            }
            None => {
                cache.stats.misses += 1;
                miss.push(g);
            }
        }
    }

    // One run per miss (one canonical fan-out, group order), noting the
    // events processed by the warmup instant on the way.
    let mut fresh = parallel::ordered_map(jobs, miss.len(), |i| {
        let mut sys = System::with_config(make(miss[i]), cfg.clone());
        let warmup_events = warmup.map_or(0, |w| {
            sys.run_until(w);
            sys.events_processed()
        });
        (Arc::new(sys.run()), warmup_events)
    })
    .into_iter();

    // Assemble results, account savings, and feed the cache.
    let mut out = CachedGrid {
        results: Vec::with_capacity(groups.len()),
        fork_warmup_saved: 0,
        events_elided: 0,
        runs_elided: 0,
    };
    let mut miss = miss.into_iter().peekable();
    for (g, &(key, size)) in groups.iter().enumerate() {
        let n = size as u64;
        // Members served without a run: all of them on a hit, all but
        // one on a miss.
        let (r, warmup_events, elided) = if miss.next_if_eq(&g).is_some() {
            let (r, warmup_events) = fresh.next().expect("one run per miss");
            let bytes = r.approx_bytes();
            cache.stats.resident_bytes += bytes;
            cache.entries.insert(
                key,
                CacheEntry {
                    result: r.clone(),
                    warmup_events,
                    bytes,
                    last_used: cache.tick,
                },
            );
            (r, warmup_events, n.saturating_sub(1))
        } else {
            let e = &cache.entries[&key];
            (e.result.clone(), e.warmup_events, n)
        };
        out.fork_warmup_saved += elided * warmup_events;
        out.events_elided += elided * (r.events - warmup_events);
        out.runs_elided += elided;
        out.results.push(r);
    }
    cache.evict_to_budget();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn quick(seed: u64) -> Scenario {
        // Tiny controlled run: EP is the cheapest preset.
        Scenario::fig5_style("EP", 1, Strategy::Vanilla, seed)
    }

    #[test]
    fn run_seeds_produces_one_result_per_seed() {
        let results = run_seeds(1, 2, 0, quick);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.measured().makespan.is_some());
        }
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let a = quick(7).run();
        let b = quick(7).run();
        assert_eq!(a.measured().makespan, b.measured().makespan);
        assert_eq!(a.hv.preemptions, b.hv.preemptions);
    }

    #[test]
    fn different_seeds_differ_slightly() {
        let a = quick(1).run();
        let b = quick(2).run();
        // Jittered compute makes exact ties essentially impossible.
        assert_ne!(a.measured().makespan, b.measured().makespan);
    }

    #[test]
    fn forked_branches_match_scratch() {
        let scratch = quick(3).run();
        let (branches, saved) = run_forked(
            quick(3),
            SystemConfig::default(),
            SimTime::from_millis(50),
            3,
            2,
        );
        assert_eq!(branches.len(), 3);
        assert!(saved > 0, "a 50 ms warmup must have processed events");
        for b in &branches {
            assert_eq!(format!("{b:?}"), format!("{scratch:?}"));
        }
    }

    #[test]
    fn grid_matches_per_constructor_means() {
        let irs = |seed| Scenario::fig5_style("EP", 1, Strategy::Irs, seed);
        let grid = grid_mean_makespans(1, 2, 2, &[&quick, &irs]);
        assert_eq!(grid.len(), 2);
        let seed_mean = |make: ScenarioFn<'_>| {
            let samples: Vec<f64> = run_seeds(1, 2, 1, make)
                .iter()
                .map(|r| r.measured().makespan_ms())
                .collect();
            Summary::of(&samples).mean
        };
        assert_eq!(grid[0], seed_mean(&quick));
        assert_eq!(grid[1], seed_mean(&irs));
    }

    /// Two groups keyed by seed; `make` mirrors the fleet's
    /// composition-to-scenario mapping (key ↔ scenario bijection).
    fn cached_groups() -> Vec<(u64, usize)> {
        vec![(3, 2), (11, 3)]
    }

    fn cached_make(i: usize, groups: &[(u64, usize)]) -> Scenario {
        quick(groups[i].0)
    }

    #[test]
    fn cached_grid_matches_scratch_and_accounts_exactly() {
        let groups = cached_groups();
        let warmup = SimTime::from_millis(40);
        let mut cache = ForkCache::new(1 << 30);
        let out = run_forked_grid_cached(
            2,
            Some(warmup),
            &SystemConfig::default(),
            &groups,
            |i| cached_make(i, &groups),
            &mut cache,
        );
        assert_eq!(out.results.len(), 2);
        for (g, &(key, _)) in groups.iter().enumerate() {
            let scratch = format!("{:?}", quick(key).run());
            assert_eq!(format!("{:?}", *out.results[g]), scratch);
        }
        // First call: every group misses, runs once, and shares the
        // result among its members.
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.result_hits, 0);
        assert_eq!(out.runs_elided, (2 - 1) + (3 - 1));
        assert!(out.fork_warmup_saved > 0);
        assert!(out.events_elided > 0);
        assert!(stats.resident_bytes > 0);
        let logical: u64 = groups
            .iter()
            .zip(&out.results)
            .map(|(&(_, n), r)| n as u64 * r.events)
            .sum();
        // What actually ran: each group's full run once (warmup included).
        let executed: u64 = out.results.iter().map(|r| r.events).sum();
        assert_eq!(executed, logical - out.fork_warmup_saved - out.events_elided);
        // Only results are resident: no warmup state is kept.
        let result_bytes: usize = out.results.iter().map(|r| r.approx_bytes()).sum();
        assert_eq!(stats.resident_bytes, result_bytes);
        // The warmup share of the elided volume is what an independent
        // run had processed by the warmup instant, once per elided member.
        let warmup_saved: u64 = groups
            .iter()
            .map(|&(key, n)| {
                let mut sys = System::with_config(quick(key), SystemConfig::default());
                sys.run_until(warmup);
                (n as u64 - 1) * sys.events_processed()
            })
            .sum();
        assert_eq!(out.fork_warmup_saved, warmup_saved);
    }

    #[test]
    fn cached_grid_second_call_is_all_result_hits() {
        let groups = cached_groups();
        let mut cache = ForkCache::new(1 << 30);
        let warm = Some(SimTime::from_millis(40));
        let cfg = SystemConfig::default();
        let first =
            run_forked_grid_cached(1, warm, &cfg, &groups, |i| cached_make(i, &groups), &mut cache);
        let second =
            run_forked_grid_cached(1, warm, &cfg, &groups, |i| cached_make(i, &groups), &mut cache);
        let stats = cache.stats();
        assert_eq!(stats.result_hits, 2, "second call must be memoized");
        assert_eq!(stats.misses, 2, "only the first call missed");
        assert_eq!(stats.snapshot_hits, 0, "the cache holds no snapshots");
        // Every member run is elided, and the whole logical volume is
        // split between warmup savings and elision.
        assert_eq!(second.runs_elided, 2 + 3);
        let logical: u64 = groups
            .iter()
            .zip(&second.results)
            .map(|(&(_, n), r)| n as u64 * r.events)
            .sum();
        assert_eq!(second.fork_warmup_saved + second.events_elided, logical);
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "hit must be bit-identical");
        }
    }

    #[test]
    fn cached_grid_without_warmup_runs_scratch_and_still_memoizes() {
        let groups = cached_groups();
        let mut cache = ForkCache::new(1 << 30);
        let cfg = SystemConfig::default();
        let first =
            run_forked_grid_cached(1, None, &cfg, &groups, |i| cached_make(i, &groups), &mut cache);
        assert_eq!(first.fork_warmup_saved, 0, "no warmup layer, no sharing");
        assert!(first.events_elided > 0, "multi-member groups still share");
        let second =
            run_forked_grid_cached(1, None, &cfg, &groups, |i| cached_make(i, &groups), &mut cache);
        assert_eq!(cache.stats().result_hits, 2);
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn cache_evicts_lru_under_byte_pressure() {
        let groups = cached_groups();
        let mut cache = ForkCache::new(1);
        let cfg = SystemConfig::default();
        let warm = Some(SimTime::from_millis(40));
        run_forked_grid_cached(1, warm, &cfg, &groups, |i| cached_make(i, &groups), &mut cache);
        let stats = cache.stats();
        assert!(stats.evictions >= 2, "a 1-byte budget evicts everything");
        assert_eq!(stats.resident_bytes, 0);
        assert!(cache.is_empty());
        // Degrades to recompute-always, never to wrong results.
        let again = run_forked_grid_cached(
            1,
            warm,
            &cfg,
            &groups,
            |i| cached_make(i, &groups),
            &mut cache,
        );
        assert_eq!(cache.stats().result_hits, 0);
        for (g, &(key, _)) in groups.iter().enumerate() {
            assert_eq!(
                format!("{:?}", *again.results[g]),
                format!("{:?}", quick(key).run())
            );
        }
    }
}
