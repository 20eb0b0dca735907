//! In-memory span recording for the traced run.
//!
//! Every timed call into a crate is a span: name, start, end, parent
//! span and op id. Each thread records into its own [`Recorder`] (no
//! locks on the hot path); totals per span name are folded online, and
//! the first [`SPAN_FILE_CAP`] spans per thread are kept verbatim for
//! the span file written at exit. A span's *self* time is its duration
//! minus the union of its children's intervals, so nested and
//! overlapping children are never double-subtracted.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans kept verbatim per thread for the span file.
pub const SPAN_FILE_CAP: usize = 200_000;

/// No parent (a root span).
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span, timestamps in ns since the process epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent in the same thread's span list, or
    /// [`NO_PARENT`].
    pub parent: u32,
    pub op: u64,
}

/// Calls, total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl Total {
    pub fn merge(&mut self, o: &Total) {
        self.calls += o.calls;
        self.busy_ns += o.busy_ns;
        self.self_ns += o.self_ns;
    }
}

/// Nanoseconds since the process-wide epoch (first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Running union length of intervals fed in ascending start order —
/// the sweep behind both [`union_len`] and the online self-time fold.
#[derive(Debug, Clone, Copy, Default)]
struct Sweep {
    covered: u64,
    until: u64,
}

impl Sweep {
    fn add(&mut self, start: u64, end: u64) {
        let from = start.max(self.until);
        self.covered += end.saturating_sub(from);
        self.until = self.until.max(end);
    }
}

#[cfg(test)]
/// Total length covered by `intervals` (`(start, end)`, any order,
/// overlaps counted once).
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let mut sweep = Sweep::default();
    for (s, e) in v {
        sweep.add(s, e);
    }
    sweep.covered
}

#[cfg(test)]
/// Self time of a span: its duration minus the union of its children's
/// intervals, each clipped to the span.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (s, e) = span;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(cs, ce)| (cs.clamp(s, e), ce.clamp(s, e)))
        .collect();
    (e - s) - union_len(&clipped)
}

#[cfg(test)]
/// Self time of every span in a recorded list, by index (the offline
/// form of what [`Recorder`] folds online).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, c)| self_time((s.start_ns, s.end_ns), c))
        .collect()
}

struct Open {
    /// Index into [`Recorder::totals`].
    total: usize,
    start: u64,
    slot: u32,
    children: Sweep,
}

/// One thread's recorder. Totals sit in a short list searched by name
/// pointer (span names are string literals), so closing a span costs no
/// map lookup.
#[derive(Default)]
pub struct Recorder {
    stack: Vec<Open>,
    totals: Vec<(&'static str, Total)>,
    spans: Vec<Span>,
}

/// What a thread recorded: per-name totals and the kept spans.
#[derive(Debug, Default)]
pub struct Recorded {
    pub totals: BTreeMap<&'static str, Total>,
    pub spans: Vec<Span>,
}

impl Recorded {
    pub fn merge(&mut self, other: Recorded) {
        for (k, v) in other.totals {
            self.totals.entry(k).or_default().merge(&v);
        }
        // Parent indices are per thread; shift them into this list.
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Adds externally timed spans (e.g. the daemon's trace ring or an
    /// atomic-counted wrapper) as root spans.
    pub fn add_root(&mut self, name: &'static str, start_ns: u64, end_ns: u64, op: u64) {
        let t = self.totals.entry(name).or_default();
        t.calls += 1;
        t.busy_ns += end_ns - start_ns;
        t.self_ns += end_ns - start_ns;
        if self.spans.len() < SPAN_FILE_CAP {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: NO_PARENT,
                op,
            });
        }
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

impl Recorder {
    fn total_index(&mut self, name: &'static str) -> usize {
        let found = self
            .totals
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name) || *n == name);
        found.unwrap_or_else(|| {
            self.totals.push((name, Total::default()));
            self.totals.len() - 1
        })
    }

    fn open(&mut self, name: &'static str, op: u64) {
        let total = self.total_index(name);
        let start = now_ns();
        let slot = if self.spans.len() < SPAN_FILE_CAP {
            let parent = self.stack.last().map_or(NO_PARENT, |o| o.slot);
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent,
                op,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open {
            total,
            start,
            slot,
            children: Sweep::default(),
        });
    }

    fn close(&mut self) {
        let end = now_ns();
        let o = self.stack.pop().expect("span closed without open");
        let dur = end - o.start;
        let t = &mut self.totals[o.total].1;
        t.calls += 1;
        t.busy_ns += dur;
        t.self_ns += dur - o.children.covered.min(dur);
        if o.slot != NO_PARENT {
            self.spans[o.slot as usize].end_ns = end;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children.add(o.start, end);
        }
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// `true` when the calling thread records spans.
#[inline]
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Runs `f` inside a span named `name` for operation `op` (a plain call
/// when the thread's recorder is off).
#[inline]
pub fn span<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    REC.with(|r| r.borrow_mut().open(name, op));
    let out = f();
    REC.with(|r| r.borrow_mut().close());
    out
}

/// Takes everything the calling thread recorded, leaving it empty and
/// disabled.
pub fn take() -> Recorded {
    set_enabled(false);
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "take() with open spans");
        let mut totals = BTreeMap::new();
        for (name, t) in r.totals.drain(..) {
            totals.entry(name).or_insert_with(Total::default).merge(&t);
        }
        Recorded {
            totals,
            spans: std::mem::take(&mut r.spans),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (20, 30)]), 20);
        assert_eq!(union_len(&[(20, 30), (0, 10), (5, 25)]), 30);
        // Nested inside another child.
        assert_eq!(union_len(&[(0, 100), (10, 20), (30, 40)]), 100);
        assert_eq!(union_len(&[(5, 5), (7, 9)]), 2);
    }

    #[test]
    fn self_time_subtracts_children_clipped_to_the_span() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
        // Overlapping children: the overlap is subtracted once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested inside a sibling's interval adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children spilling past the span are clipped to it.
        assert_eq!(self_time((10, 50), &[(0, 20), (40, 70)]), 20);
        assert_eq!(self_time((10, 50), &[(0, 80)]), 0);
    }

    #[test]
    fn offline_self_times_follow_parent_links() {
        let s = |name, start_ns, end_ns, parent, op| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        };
        let spans = [
            s("bench.round", 0, 100, NO_PARENT, 0),
            s("render.tick", 10, 60, 0, 0),
            s("core.tag", 20, 30, 1, 0),
            s("core.tag", 40, 55, 1, 0),
            s("server.apply", 70, 90, 0, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 10, 15, 20]);
        // Self times of a tree partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn online_fold_matches_offline_arithmetic() {
        set_enabled(true);
        span("bench.round", 1, || {
            span("render.tick", 1, || {
                span("core.tag", 1, || std::hint::black_box(0));
                span("core.tag", 1, || std::hint::black_box(0));
            });
            span("server.apply", 1, || std::hint::black_box(0));
        });
        let rec = take();
        assert!(!enabled());
        assert_eq!(rec.spans.len(), 5);
        assert_eq!(rec.total("core.tag").calls, 2);
        let offline = self_times(&rec.spans);
        for name in ["bench.round", "render.tick", "core.tag", "server.apply"] {
            let want: u64 = rec
                .spans
                .iter()
                .zip(&offline)
                .filter(|(s, _)| s.name == name)
                .map(|(_, t)| *t)
                .sum();
            assert_eq!(rec.total(name).self_ns, want, "{name}");
        }
        let root = rec.spans[0];
        assert_eq!(
            rec.totals.values().map(|t| t.self_ns).sum::<u64>(),
            root.end_ns - root.start_ns
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        set_enabled(false);
        assert_eq!(span("render.tick", 0, || 7), 7);
        let rec = take();
        assert!(rec.spans.is_empty() && rec.totals.is_empty());
    }

    #[test]
    fn merge_shifts_parent_links() {
        let mut a = Recorded::default();
        a.add_root("x", 0, 5, 0);
        let mut b = Recorded::default();
        b.spans.push(Span {
            name: "p",
            start_ns: 0,
            end_ns: 9,
            parent: NO_PARENT,
            op: 1,
        });
        b.spans.push(Span {
            name: "c",
            start_ns: 1,
            end_ns: 2,
            parent: 0,
            op: 1,
        });
        a.merge(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[1].parent, NO_PARENT);
    }
}
