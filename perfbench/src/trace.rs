//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only while tracing is switched on (the `--trace 1`
//! run); the end-to-end run never records, so its cost is one relaxed
//! load per call site. Each span names its layer (the crate it calls
//! into), its start and end on one process-wide monotonic clock, and the
//! span that caused it, passed explicitly so that runs fanned out onto
//! pool workers still point at the fan-out that issued them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static CLOCK: OnceLock<Instant> = OnceLock::new();

/// Id of "no parent": a top-level span.
pub const ROOT: u64 = 0;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never [`ROOT`]).
    pub id: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: u64,
    /// Layer the call goes into (crate short name, or `bench`).
    pub layer: &'static str,
    /// The public call or phase.
    pub name: &'static str,
    /// Start, ns since the process clock's origin.
    pub start_ns: u64,
    /// End, ns since the process clock's origin.
    pub end_ns: u64,
}

/// Nanoseconds since the process clock's origin.
pub fn now_ns() -> u64 {
    CLOCK.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switches recording on or off.
pub fn set_enabled(on: bool) {
    CLOCK.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f` inside a span; `f` receives the span's id to hand to the spans
/// it causes. With tracing off, `f` runs directly and receives [`ROOT`].
pub fn span<T>(
    layer: &'static str,
    name: &'static str,
    parent: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f(ROOT);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let out = f(id);
    let end_ns = now_ns();
    SPANS
        .lock()
        .expect("span store poisoned by a panicking recorder")
        .push(Span {
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
        });
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span store poisoned by a panicking recorder"),
    )
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per layer, ns: each span's duration minus the part of its
/// interval that its children cover.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| union_len(c.clone(), s.start_ns, s.end_ns));
        *out.entry(s.layer).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Time covered by top-level spans, ns.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    let top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == ROOT)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    union_len(top, 0, u64::MAX)
}

/// Spans as a Chrome trace-event JSON array (complete events, µs).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}{sep}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
        )
        .expect("writing to a String cannot fail");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            sp(1, ROOT, "pool", 0, 100),
            sp(2, 1, "core", 10, 60),
            sp(3, 1, "core", 40, 90),
        ];
        let st = self_ns_by_layer(&spans);
        assert_eq!(st["pool"], 20);
        assert_eq!(st["core"], 100);
        assert_eq!(top_level_ns(&spans), 100);
    }
}
