//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions (no tracing is added inside the program):
//! name, start, end, the span that caused it, and an operation id shared
//! by every span of one operation (one set-up, one sample, one job). They
//! stay in memory and are written out as JSON lines when the run ends; a
//! span's self time is its duration minus the part of it its children
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mpix_json::Value;

use crate::POISONED;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub op: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
}

/// Collects spans when enabled; every method is a no-op otherwise, so the
/// untraced runs pay nothing for it.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserve a span id, so children can name their parent before the
    /// parent's own interval is known.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record the interval `[start, end]` under a reserved `id`.
    pub fn push(
        &self,
        id: u64,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.lock().expect(POISONED).push(Span {
            id,
            op,
            parent,
            name,
            start: at(start),
            end: at(end),
        });
    }

    /// Reserve an id and record in one call (for leaf spans).
    pub fn leaf(
        &self,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.id();
        self.push(id, op, parent, name, start, end);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect(POISONED))
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// Total self time per span name, in name order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// Write one JSON object per span (with its self time) to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let v = Value::Obj(vec![
            ("id".into(), s.id.into()),
            ("op".into(), s.op.into()),
            ("parent".into(), s.parent.map_or(Value::Null, Value::from)),
            ("name".into(), s.name.into()),
            ("start_s".into(), s.start.into()),
            ("end_s".into(), s.end.into()),
            ("self_s".into(), own.into()),
        ]);
        writeln!(f, "{}", v.compact())?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            op: 1,
            parent,
            name: "s",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0, 10]; children [1, 4] and [3, 6] overlap (two rank
        // threads), so they cover [1, 6] = 5 s, and [9, 12] is clipped.
        let spans = vec![
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 3.0, 6.0),
            span(4, Some(1), 9.0, 12.0),
        ];
        let own = self_times(&spans);
        assert!((own[0] - 4.0).abs() < 1e-12, "{own:?}");
        assert!((own[1] - 3.0).abs() < 1e-12);
    }
}
