//! `BENCH_history.jsonl` — the one trend log and ratchet behind
//! `figures perf`, `fleet` and `serving`.
//!
//! Every measured [`Phase`] appends one flat, self-describing JSON record
//! (commit, timestamp, phase, worker count, host core count, then its
//! numbers). Under `--check-perf`, [`ratchet`] holds each phase's metric
//! above [`RATCHET_FRAC`] of the best earlier record with the **matching
//! configuration**: same phase, worker count and host core count, and —
//! for fleet phases — fleet size. [`log_and_gate`] is the single
//! read → append → ratchet path all three campaigns share; sanitized
//! (`--check`) and parity runs are incomparable, so it neither logs nor
//! ratchets them.

use std::fmt::Write as _;
use std::path::Path;

/// Ratchet tolerance: a phase fails when its current metric drops below
/// this fraction of the best matching history record. The loose fraction
/// absorbs the ±30% wall-clock noise of shared CI boxes while still
/// catching structural regressions (a heap-class queue would land at
/// ~15% of the wheel's ops/s).
pub const RATCHET_FRAC: f64 = 0.5;

/// The recording host's core count, stamped into every history record
/// and required to match during ratcheting: 1-core CI containers and
/// multi-core dev boxes measure incomparable throughputs, and mixing
/// them made the ratchet either toothless (1-core best) or a guaranteed
/// failure (multi-core best).
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Extract the raw (unquoted) value of a top-level `"key": value` pair
/// from a single-line JSON object. Good enough for the flat records this
/// module writes; not a general JSON parser. Matches are anchored: the
/// quoted key must sit where a key can sit (line start, or after `{` or
/// `,`), so a string *value* that happens to contain `"jobs":` cannot
/// alias the `jobs` field.
fn json_raw_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let mut from = 0;
    while let Some(off) = line[from..].find(&pat) {
        let idx = from + off;
        if idx == 0 || line[..idx].trim_end().ends_with(['{', ',']) {
            let rest = line[idx + pat.len()..].trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            return Some(rest[..end].trim().to_string());
        }
        from = idx + pat.len();
    }
    None
}

/// Like [`json_raw_field`] but strips one layer of surrounding quotes.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let raw = json_raw_field(line, key)?;
    Some(raw.trim_matches('"').to_string())
}

/// Strictly-parsed JSON unsigned integer: bare ASCII digits only. Rejects
/// quoted numbers, signs, floats, and empty tokens.
fn json_usize_field(line: &str, key: &str) -> Option<usize> {
    let raw = json_raw_field(line, key)?;
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    raw.parse().ok()
}

/// The current commit and unix time, stamped into every history record.
fn commit_and_timestamp() -> (String, u64) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    (commit, timestamp)
}

/// Appends records to the trend log at `path`. History is best-effort —
/// a read-only checkout warns instead of failing the benchmark.
fn append_history(path: &Path, lines: &str) {
    let appended = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, lines.as_bytes()));
    if let Err(e) = appended {
        eprintln!("cannot append to {}: {e}", path.display());
    }
}

/// One measured phase of a run: the keys its history record is matched
/// on, the metric the ratchet gates, and the numbers logged with it.
#[derive(Debug, Clone)]
pub struct Phase {
    /// History phase name (`ticked`, `parallel`, `queue`, `fleet`,
    /// `fleet-smoke`, `fleet-scale`, `serving`, `serving-smoke`).
    pub name: &'static str,
    /// Worker count the phase ran with.
    pub jobs: usize,
    /// Fleet size, for fleet phases only: logged, and matched against
    /// records that carry one.
    pub hosts: Option<usize>,
    /// The record field the ratchet gates on (higher is better).
    pub metric: &'static str,
    /// This run's value of `metric`.
    pub current: f64,
    /// The record's numbers after the matching keys, in order and already
    /// formatted; `metric` is one of them.
    pub fields: Vec<(&'static str, String)>,
}

impl Phase {
    /// The phase's one-line `BENCH_history.jsonl` record.
    pub fn record(&self, commit: &str, timestamp: u64, cores: usize) -> String {
        let mut line = format!(
            "{{\"commit\": \"{commit}\", \"timestamp\": {timestamp}, \"phase\": \"{}\", \
             \"jobs\": {}, \"cores\": {cores}",
            self.name, self.jobs,
        );
        if let Some(hosts) = self.hosts {
            let _ = write!(line, ", \"hosts\": {hosts}");
        }
        for (key, value) in &self.fields {
            let _ = write!(line, ", \"{key}\": {value}");
        }
        line.push_str("}\n");
        line
    }
}

/// The ratchet: `Some(failure)` when `current` is below [`RATCHET_FRAC`]
/// of the best `metric` among `history`'s records with the same `phase`,
/// `jobs` and `cores` — and, when `hosts` is given, the same fleet size
/// (records without a `hosts` field predate `--hosts` and can only be
/// stock-size campaigns, so they match). Legacy lines without a `phase`
/// or `cores` field, and records whose `jobs` / `cores` / metric fields
/// are malformed (a non-numeric count, a truncated line from an
/// interrupted append), are ignored rather than matched by accident: a
/// corrupt record must never be able to fail — or pass — the gate.
/// Legacy records written while the engine could still elide events
/// carry an extra `tickless` flag the ratchet no longer reads: they
/// measured an engine that was as fast or faster, so matching them can
/// only tighten the ratchet.
pub fn ratchet(
    history: &str,
    phase: &str,
    jobs: usize,
    cores: usize,
    hosts: Option<usize>,
    metric: &str,
    current: f64,
) -> Option<String> {
    let best = history
        .lines()
        .filter(|l| {
            json_str_field(l, "phase").as_deref() == Some(phase)
                && json_usize_field(l, "jobs") == Some(jobs)
                && json_usize_field(l, "cores") == Some(cores)
                && hosts.is_none_or(|h| json_usize_field(l, "hosts").is_none_or(|r| r == h))
        })
        .filter_map(|l| {
            json_raw_field(l, metric)
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| v.is_finite() && *v > 0.0)
        })
        .fold(f64::NAN, f64::max);
    (best.is_finite() && current < RATCHET_FRAC * best).then(|| {
        format!(
            "{phase} phase ratchet: {current:.0} {metric} is below {:.0}% of the best \
             matching record ({best:.0}; jobs={jobs}, cores={cores})",
            RATCHET_FRAC * 100.0,
        )
    })
}

/// The record-and-ratchet path of every campaign. A `comparable` run
/// appends one record per phase to the trend log at `path` and is
/// ratcheted against the log as it stood *before* the append, so a run
/// never ratchets against itself. A run that is not comparable (the
/// sanitizer's invariant-checking tax, or a parity re-run's full
/// re-simulation) is neither logged nor ratcheted. Returns the
/// `--check-perf` failures: `floors` (the campaign's history-independent
/// checks) first, then every phase that fell past the ratchet.
pub fn log_and_gate(
    path: &Path,
    comparable: bool,
    phases: &[Phase],
    floors: Vec<String>,
) -> Vec<String> {
    let mut failures = floors;
    if !comparable {
        return failures;
    }
    let cores = host_cores();
    let history = std::fs::read_to_string(path).unwrap_or_default();
    let (commit, timestamp) = commit_and_timestamp();
    let records: String = phases
        .iter()
        .map(|p| p.record(&commit, timestamp, cores))
        .collect();
    append_history(path, &records);
    failures.extend(
        phases
            .iter()
            .filter_map(|p| ratchet(&history, p.name, p.jobs, cores, p.hosts, p.metric, p.current)),
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One phase per history phase name, each at a current metric of
    /// 5000, plus a real record of that phase from `BENCH_history.jsonl`
    /// (recorded on a 1-core host).
    fn round_trip_cases() -> Vec<(Phase, &'static str)> {
        #[rustfmt::skip]
        let cases = [
            ("ticked", 1, None, "events_per_sec", r#"{"commit": "b37c6e5", "timestamp": 1786122331, "phase": "ticked", "tickless": false, "jobs": 1, "cores": 1, "events_per_sec": 9574802}"#),
            ("parallel", 2, None, "events_per_sec", r#"{"commit": "b37c6e5", "timestamp": 1786122331, "phase": "parallel", "tickless": true, "jobs": 2, "cores": 1, "events_per_sec": 9894404, "speedup": 1.033}"#),
            ("queue", 1, None, "ops_per_sec", r#"{"commit": "b37c6e5", "timestamp": 1786122331, "phase": "queue", "tickless": false, "jobs": 1, "cores": 1, "ops_per_sec": 60126466}"#),
            ("fleet", 1, Some(120), "events_per_sec", r#"{"commit": "b37c6e5", "timestamp": 1786122005, "phase": "fleet", "tickless": false, "jobs": 1, "cores": 1, "hosts": 120, "events_per_sec": 4576344, "effective_events_per_sec": 112144296, "fork_warmup_saved": 2236087, "runs_elided": 11474, "host_runs": 11914}"#),
            ("fleet-smoke", 2, Some(16), "events_per_sec", r#"{"commit": "b37c6e5", "timestamp": 1786122326, "phase": "fleet-smoke", "tickless": false, "jobs": 2, "cores": 1, "hosts": 16, "events_per_sec": 4670099, "effective_events_per_sec": 11216351, "fork_warmup_saved": 20371, "runs_elided": 126, "host_runs": 204}"#),
            ("fleet-scale", 2, Some(1000), "effective_events_per_sec", r#"{"commit": "b37c6e5", "timestamp": 1786122327, "phase": "fleet-scale", "tickless": false, "jobs": 2, "cores": 1, "hosts": 1000, "events_per_sec": 3877498, "effective_events_per_sec": 549288112, "fork_warmup_saved": 13579112, "runs_elided": 98622, "host_runs": 99244}"#),
            ("serving", 1, None, "events_per_sec", r#"{"commit": "b37c6e5", "timestamp": 1786122006, "phase": "serving", "tickless": false, "jobs": 1, "cores": 1, "events_per_sec": 5831808, "runs": 24, "requests": 402908}"#),
            ("serving-smoke", 2, None, "events_per_sec", r#"{"commit": "b37c6e5", "timestamp": 1786122327, "phase": "serving-smoke", "tickless": false, "jobs": 2, "cores": 1, "events_per_sec": 3705527, "runs": 12, "requests": 41018}"#),
        ];
        let phase = |(name, jobs, hosts, metric, real)| {
            let fields = vec![(metric, "5000".to_string())];
            let current = 5000.0;
            (Phase { name, jobs, hosts, metric, current, fields }, real)
        };
        cases.into_iter().map(phase).collect()
    }

    fn check(p: &Phase, history: &str, cores: usize) -> Option<String> {
        ratchet(history, p.name, p.jobs, cores, p.hosts, p.metric, p.current)
    }

    /// Every phase: its own record round-trips through the
    /// readers, a record 10× above the current run fires, one within
    /// tolerance passes, and a real logged line still matches.
    #[test]
    fn every_phase_round_trips_and_fires() {
        for (p, real) in round_trip_cases() {
            let rec = p.record("abc1234", 1_700_000_000, 4);
            assert!(rec.starts_with('{') && rec.ends_with("}\n"), "{rec}");
            assert_eq!(rec.lines().count(), 1, "{rec}");
            assert_eq!(json_str_field(&rec, "commit").as_deref(), Some("abc1234"));
            assert_eq!(json_raw_field(&rec, "timestamp").as_deref(), Some("1700000000"));
            assert_eq!(json_str_field(&rec, "phase").as_deref(), Some(p.name));
            assert_eq!(json_usize_field(&rec, "jobs"), Some(p.jobs));
            assert_eq!(json_usize_field(&rec, "cores"), Some(4));
            assert_eq!(json_usize_field(&rec, "hosts"), p.hosts);
            assert_eq!(json_raw_field(&rec, p.metric).as_deref(), Some("5000"));

            let fast = rec.replace(": 5000}", ": 50000}");
            let failure = check(&p, &fast, 4).unwrap_or_else(|| panic!("{}: 10x must fire", p.name));
            assert!(
                failure.starts_with(&format!("{} phase ratchet: 5000 {}", p.name, p.metric)),
                "{failure}"
            );
            assert!(failure.contains("below 50% of the best matching record (50000;"));
            // The tolerance is exactly half: 5000 passes at a best of
            // 9999 and fails at 10001.
            assert!(check(&p, &rec.replace(": 5000}", ": 9999}"), 4).is_none());
            assert!(check(&p, &rec.replace(": 5000}", ": 10001}"), 4).is_some());
            // The real line was logged on a 1-core host at ~1000x this
            // run: it matches there, and only there.
            assert!(check(&p, real, 1).is_some(), "{}: real record must match", p.name);
            assert!(check(&p, real, 4).is_none(), "{}", p.name);
        }
    }

    /// The matching keys, each varied alone, plus the legacy and
    /// malformed records that must never arm the ratchet.
    #[test]
    fn only_matching_wellformed_records_arm_the_ratchet() {
        let parallel = Phase {
            name: "parallel",
            jobs: 4,
            hosts: None,
            metric: "events_per_sec",
            current: 3456.0,
            fields: Vec::new(),
        };
        let fleet = Phase {
            name: "fleet",
            jobs: 2,
            hosts: Some(120),
            ..parallel.clone()
        };
        // (phase, record, arms the ratchet on a 4-core host)
        let cases: [(&Phase, &str, bool); 21] = [
            (&parallel, r#"{"phase": "parallel", "jobs": 4, "cores": 4, "events_per_sec": 99999999}"#, true),
            // Other phase, jobs, or cores.
            (&parallel, r#"{"phase": "ticked", "jobs": 4, "cores": 4, "events_per_sec": 99999999}"#, false),
            (&parallel, r#"{"phase": "parallel", "jobs": 8, "cores": 4, "events_per_sec": 99999999}"#, false),
            (&parallel, r#"{"phase": "parallel", "jobs": 4, "cores": 64, "events_per_sec": 99999999}"#, false),
            // Legacy lines without `phase` or `cores`.
            (&parallel, r#"{"commit": "old0001", "jobs": 4, "events_per_sec": 99999999, "speedup": 1.9}"#, false),
            (&parallel, r#"{"phase": "parallel", "jobs": 4, "events_per_sec": 99999999}"#, false),
            // Malformed jobs, cores, or metric.
            (&parallel, r#"{"phase": "parallel", "jobs": "4", "cores": 4, "events_per_sec": 99999999}"#, false),
            (&parallel, r#"{"phase": "parallel", "jobs": four, "cores": 4, "events_per_sec": 99999999}"#, false),
            (&parallel, r#"{"phase": "parallel", "jobs": -4, "cores": 4, "events_per_sec": 99999999}"#, false),
            (&parallel, r#"{"phase": "parallel", "jobs": 4, "cores": "4", "events_per_sec": 99999999}"#, false),
            (&parallel, r#"{"phase": "parallel", "jobs": 4, "cores": 4, "events_per_sec": NaN}"#, false),
            (&parallel, r#"{"phase": "parallel", "jobs": 4, "cores": 4, "events_per_sec": inf}"#, false),
            (&parallel, r#"{"phase": "parallel", "jobs": 4, "cores": 4, "events_per_sec":"#, false),
            // A legacy record written with event elision on is a
            // baseline too: 3456 < 0.5 × 34560.
            (&parallel, r#"{"phase": "parallel", "tickless": true, "jobs": 4, "cores": 4, "events_per_sec": 34560}"#, true),
            // Phases without a fleet size ignore a record's `hosts`.
            (&parallel, r#"{"phase": "parallel", "jobs": 4, "cores": 4, "hosts": 7, "events_per_sec": 99999999}"#, true),
            // Fleet phases match on size; hostless legacy records are
            // stock-size campaigns and match.
            (&fleet, r#"{"phase": "fleet", "jobs": 2, "cores": 4, "hosts": 120, "events_per_sec": 99999999}"#, true),
            (&fleet, r#"{"phase": "fleet", "jobs": 2, "cores": 4, "hosts": 1000, "events_per_sec": 99999999}"#, false),
            (&fleet, r#"{"phase": "fleet", "jobs": 2, "cores": 4, "events_per_sec": 99999999}"#, true),
            (&fleet, r#"{"phase": "fleet-smoke", "jobs": 2, "cores": 4, "events_per_sec": 99999999}"#, false),
            (&fleet, r#"{"phase": "fleet", "jobs": 4, "cores": 4, "events_per_sec": 99999999}"#, false),
            (&fleet, r#"{"phase": "fleet", "tickless": true, "jobs": 2, "cores": 4, "events_per_sec": 12000}"#, true),
        ];
        for (p, record, arms) in cases {
            assert_eq!(check(p, record, 4).is_some(), arms, "{record}");
        }
        // Together, the well-formed matching records still arm it: no
        // malformed one (an `inf` above all) disarms the others.
        let history: String = cases.iter().map(|(_, r, _)| format!("{r}\n")).collect();
        assert!(check(&parallel, &history, 4).is_some());
        assert!(check(&parallel, &history, 1).is_none());
        let close = r#"{"phase": "parallel", "jobs": 4, "cores": 4, "events_per_sec": 4000}"#;
        assert!(check(&parallel, close, 4).is_none());
    }

    #[test]
    fn json_fields_are_anchored_and_strict() {
        // A value containing a key-shaped string must not alias the key.
        let line = "{\"commit\": \"x \\\"jobs\\\": 99\", \"jobs\": 4, \"phase\": \"parallel\"}";
        assert_eq!(json_usize_field(line, "jobs"), Some(4));
        assert_eq!(json_str_field(line, "phase").as_deref(), Some("parallel"));
        // Substring keys don't alias (`jobs` vs a hypothetical `xjobs`).
        assert_eq!(json_usize_field("{\"xjobs\": 7}", "jobs"), None);
        // Strictness.
        assert_eq!(json_usize_field("{\"jobs\": \"4\"}", "jobs"), None);
        assert_eq!(json_usize_field("{\"jobs\": 4.0}", "jobs"), None);
        assert_eq!(json_usize_field("{\"jobs\": }", "jobs"), None);
    }

    /// A scratch trend-log path, unique per test and process.
    fn scratch_log(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir()
            .join(format!("irs-bench-history-{}-{name}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A sanitized or parity run — `perf` included — neither creates,
    /// appends to, nor ratchets against the trend log; its floors still
    /// gate.
    #[test]
    fn incomparable_runs_neither_log_nor_ratchet() {
        let (p, _) = round_trip_cases().swap_remove(0);
        let path = scratch_log("incomparable");
        let floors = vec!["floor".to_string()];
        let phases = std::slice::from_ref(&p);
        assert_eq!(log_and_gate(&path, false, phases, floors.clone()), floors);
        assert!(!path.exists(), "an incomparable run created the trend log");

        let fast = p.record("old", 1, host_cores()).replace(": 5000}", ": 50000}");
        std::fs::write(&path, &fast).unwrap();
        assert!(log_and_gate(&path, false, phases, Vec::new()).is_empty());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), fast, "log was appended");
        std::fs::remove_file(&path).unwrap();
    }

    /// A comparable run ratchets against the log as it stood before its
    /// own records were appended: the first run passes, a later
    /// 10×-slower run fails.
    #[test]
    fn comparable_runs_log_then_ratchet_against_earlier_records() {
        let (p, _) = round_trip_cases().swap_remove(0);
        let path = scratch_log("comparable");
        let fast = Phase {
            current: 50_000.0,
            fields: vec![(p.metric, "50000".to_string())],
            ..p.clone()
        };
        assert!(log_and_gate(&path, true, &[fast], Vec::new()).is_empty());
        let failures = log_and_gate(&path, true, &[p], vec!["floor".to_string()]);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert_eq!(failures[0], "floor");
        assert!(failures[1].starts_with("ticked phase ratchet"), "{failures:?}");
        let log = std::fs::read_to_string(&path).unwrap();
        assert_eq!(log.lines().count(), 2, "{log}");
        std::fs::remove_file(&path).unwrap();
    }
}
