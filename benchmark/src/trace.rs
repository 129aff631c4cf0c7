//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. Written out once, when the run ends.

use crate::json::Json;
use std::time::Instant;

/// Index of the `tune`/`iteration` a span belongs to; `NONE` above them.
pub const NONE: u32 = u32::MAX;

/// One span: a named interval caused by `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// Id of the span that caused this one; [`NONE`] for the root.
    pub parent: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub tune: u32,
    pub iteration: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder. Ids are indices into the span list.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::with_capacity(spans) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`, returning its id.
    pub fn open(&mut self, name: &'static str, parent: u32, tune: u32, iteration: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns, tune, iteration });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        tune: u32,
        iteration: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, tune, iteration);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations (seconds) of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children counted once).
pub fn self_secs(spans: &[Span], id: u32) -> f64 {
    let me = spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = me.start_ns;
    for (a, b) in kids {
        let a = a.max(frontier);
        if b > a {
            covered += b - a;
            frontier = b;
        }
    }
    (me.end_ns - me.start_ns - covered) as f64 / 1e9
}

/// The spans as a JSON array, one object each.
pub fn to_json(spans: &[Span]) -> Json {
    let opt = |v: u32| if v == NONE { Json::Null } else { Json::Int(i64::from(v)) };
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("id", Json::Int(i64::from(s.id))),
                    ("parent", opt(s.parent)),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    ("tune", opt(s.tune)),
                    ("iteration", opt(s.iteration)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", id, parent, start_ns, end_ns, tune: NONE, iteration: NONE }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, NONE, 0, 100),
            span(1, 0, 10, 40),
            // Overlaps span 1 on [30, 40): counted once.
            span(2, 0, 30, 60),
            // A grandchild never counts against the root.
            span(3, 1, 15, 20),
            // Sticks out past the parent: clipped at 100.
            span(4, 0, 90, 120),
        ];
        // Covered: [10, 60) + [90, 100) = 60 of 100 ns.
        assert!((self_secs(&spans, 0) - 40e-9).abs() < 1e-15);
        assert!((self_secs(&spans, 1) - 25e-9).abs() < 1e-15);
        assert!((self_secs(&spans, 3) - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut r = Recorder::with_capacity(4);
        let root = r.open("run", NONE, NONE, NONE);
        let v = r.within("child", root, 0, 3, || 7);
        r.close(root);
        assert_eq!(v, 7);
        let s = r.spans();
        assert_eq!((s[1].parent, s[1].tune, s[1].iteration), (root, 0, 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(durations(s, "child").len(), 1);
    }
}
