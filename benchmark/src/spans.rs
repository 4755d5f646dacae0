//! The benchmark's own span recorder.
//!
//! Spans are recorded around every call the benchmark makes into a layer
//! (construction, `System::run`, `Engine::run_grid`, each driver loop),
//! kept in memory, and written out when the traced run ends. A span's
//! self time is its duration minus the durations of its direct children,
//! so self times over a subtree sum exactly to the subtree root's
//! duration. Spans *inside* the program come from `dbp_obs::Prof`; this
//! recorder only sees the program from outside.

use std::time::Instant;

use dbp_obs::Json;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// `<layer>.<what>`, e.g. `sim.run`; the prefix names the layer.
    pub name: &'static str,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    pub parent: Option<usize>,
}

/// Handle returned by [`Spans::open`]; pass it back to [`Spans::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// In-memory span log of one traced run. Single-threaded by design: the
/// benchmark drives every layer from its main thread.
#[derive(Debug)]
pub struct Spans {
    workload: &'static str,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Self {
        Spans { workload, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let now = self.now_ns();
        self.open_at(name, now)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.close_at(id, now);
    }

    fn open_at(&mut self, name: &'static str, start_ns: u64) -> SpanId {
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: None,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    fn close_at(&mut self, id: SpanId, end_ns: u64) {
        assert_eq!(self.stack.pop(), Some(id.0), "spans must close in LIFO order");
        let s = &mut self.spans[id.0];
        assert!(end_ns >= s.start_ns, "span `{}` ends before it starts", s.name);
        s.end_ns = Some(end_ns);
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of a closed span.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id.0];
        s.end_ns.expect("span still open") - s.start_ns
    }

    /// Duration minus the durations of the span's direct children.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id.0))
            .map(|(i, _)| self.duration_ns(SpanId(i)))
            .sum();
        self.duration_ns(id).checked_sub(children).expect("children outlast their parent")
    }

    /// The span log as JSON: one object per span with its name, layer,
    /// start, end, self time, parent index and the workload id.
    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().enumerate().map(|(i, s)| {
            Json::obj([
                ("id", Json::uint(i as u64)),
                ("name", Json::str(s.name)),
                ("layer", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("workload", Json::str(self.workload)),
                ("start_ns", Json::uint(s.start_ns)),
                ("end_ns", Json::uint(s.end_ns.expect("span still open"))),
                ("self_ns", Json::uint(self.self_ns(SpanId(i)))),
                ("parent", s.parent.map_or(Json::Null, |p| Json::uint(p as u64))),
            ])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root [0, 100): a [10, 40) with child a1 [15, 25); b [50, 90).
    fn tree() -> (Spans, [SpanId; 4]) {
        let mut s = Spans::new("test");
        let root = s.open_at("pass", 0);
        let a = s.open_at("sim.run", 10);
        let a1 = s.open_at("memctrl.tick", 15);
        s.close_at(a1, 25);
        s.close_at(a, 40);
        let b = s.open_at("dram.issue", 50);
        s.close_at(b, 90);
        s.close_at(root, 100);
        (s, [root, a, a1, b])
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let (s, [root, a, a1, b]) = tree();
        assert_eq!(s.self_ns(root), 100 - 30 - 40);
        assert_eq!(s.self_ns(a), 30 - 10);
        assert_eq!(s.self_ns(a1), 10);
        assert_eq!(s.self_ns(b), 40);
    }

    #[test]
    fn self_times_sum_exactly_to_the_root() {
        let (s, ids) = tree();
        let total: u64 = ids.iter().map(|&id| s.self_ns(id)).sum();
        assert_eq!(total, s.duration_ns(ids[0]));
    }

    #[test]
    fn json_carries_parent_layer_and_workload() {
        let (s, _) = tree();
        let doc = s.to_json();
        let spans = doc.as_arr().unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].get("layer").unwrap().as_str(), Some("memctrl"));
        assert_eq!(spans[2].get("parent").unwrap().as_num(), Some(1.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[3].get("workload").unwrap().as_str(), Some("test"));
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_close_panics() {
        let mut s = Spans::new("test");
        let a = s.open("a.x");
        let _b = s.open("b.y");
        s.close(a);
    }
}
