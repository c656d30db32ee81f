//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the per-layer self time derived from them.
//!
//! A span has a name (the layer and call, e.g. `des.study`), a start
//! and end relative to the run's start, the span that caused it, and a
//! group id shared by every span of one pass or one job. Spans stay in
//! memory and are written out once, when the run ends.

use std::sync::Mutex;
use std::time::Instant;

use ahs_obs::Json;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `core.build`.
    pub name: &'static str,
    /// Seconds since the run started.
    pub start: f64,
    /// Seconds since the run started.
    pub end: f64,
    /// The span this call ran under.
    pub parent: Option<SpanId>,
    /// Pass id or job id shared by one pass or one job.
    pub group: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder. Disabled, it records nothing and only runs the
/// timed closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span now; close it with [`Tracer::close`]. Returns
    /// `None` when tracing is off.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, group: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.origin.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("span list is never poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            group,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.origin.elapsed().as_secs_f64();
            self.spans.lock().expect("span list is never poisoned")[id].end = end;
        }
    }

    /// Runs `f` inside a span and returns its result with the span id.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(name, parent, group);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list is never poisoned")
            .clone()
    }
}

/// Each span's duration minus the part of its interval covered by its
/// children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Summed self time of every span named `name` within `group`
/// (`None`: every group).
pub fn self_time_of(spans: &[Span], name: &str, group: Option<u64>) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name && group.is_none_or(|g| s.group == g))
        .map(|(_, t)| t)
        .sum()
}

/// Summed duration of every span named `name` within `group`
/// (`None`: every group).
pub fn total_time_of(spans: &[Span], name: &str, group: Option<u64>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && group.is_none_or(|g| s.group == g))
        .map(Span::duration)
        .sum()
}

/// The spans as a JSON array, with each span's self time.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .zip(self_times(spans))
            .enumerate()
            .map(|(id, (s, own))| {
                Json::obj(vec![
                    ("id", id.into()),
                    ("name", s.name.into()),
                    ("start_s", s.start.into()),
                    ("end_s", s.end.into()),
                    ("self_s", own.into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("group", s.group.into()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 8.0, 9.0, Some(0)),
            span("leaf", 1.5, 2.0, Some(1)),
        ];
        let own = self_times(&spans);
        // Children of root cover [1, 6] and [8, 9]: 6 of 10 seconds.
        assert!((own[0] - 4.0).abs() < 1e-12);
        assert!((own[1] - 2.5).abs() < 1e-12);
        assert!((own[2] - 3.0).abs() < 1e-12);
        assert!((self_time_of(&spans, "root", None) - 4.0).abs() < 1e-12);
        assert!((total_time_of(&spans, "a", Some(0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::new(true);
        t.span("outer", None, 3, |outer| {
            t.span("inner", outer, 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
