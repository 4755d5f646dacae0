//! Host-side self-profiling: wall-clock span trees and work counters.
//!
//! The simulator can explain every *simulated* cycle (the latency
//! anatomy), but the event-driven core (DESIGN.md "Event-driven time
//! skipping") needs to know where the *host's* nanoseconds go and how
//! much of the tick loop is wasted polling. This module provides both
//! instruments with the same discipline the anatomy uses:
//!
//! * **Spans** — hierarchical wall-clock regions over a monotonic clock
//!   ([`std::time::Instant`]), opened with [`crate::seam::span`] and
//!   aggregated per *path* (parent chain + name) into
//!   count / total_ns / self_ns / max_ns. The exact-sum invariant holds
//!   by construction and is re-asserted on every snapshot and parse:
//!   for every node, `self_ns + Σ children.total_ns == total_ns`
//!   (`u64` equality, checked with `assert!` in all build profiles).
//! * **Counters** — named monotonic `u64` totals (requests enqueued,
//!   commands issued, ticks polled-but-idle). The profiler keeps no
//!   counter cells of its own: each layer counts its work in plain
//!   integers, and the owner of a run hands the totals over once, as a
//!   [`Profile`] holding only counters, through [`Prof::merge`]. Merging
//!   sums counters by name, so runs on many threads add up.
//!
//! [`Prof`] is a cheap-clone handle to one merged profile, `Send + Sync`
//! so the bench `Engine` can profile jobs on pool worker threads.
//!
//! Threading model: one tree per outermost scope, and no flush contract.
//! A profiler keeps no per-thread state; each outermost
//! [`crate::seam::observe`] scope of a profiler on a thread records into
//! a `SpanTree` of its own and folds it in through [`Prof::merge`] when
//! it ends (see [`crate::seam`]). Once a scope has ended, on any thread,
//! [`Prof::snapshot`] sees its spans.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::fxhash::FxHashMap;
use crate::json::{json_record, Json, JsonValue};
use crate::table::{fmt_ns, Table};

/// Sentinel parent index for root spans inside a [`SpanTree`].
const ROOT: usize = usize::MAX;

/// One aggregated node of a span tree.
struct NodeAgg {
    name: &'static str,
    parent: usize,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    max_ns: u64,
}

/// An open span on the tree's stack.
struct Frame {
    node: usize,
    start: Instant,
    /// Total nanoseconds of already-closed direct children.
    child_ns: u64,
}

/// One scope's span aggregation: a flat arena of path-keyed nodes plus
/// the stack of currently open spans.
#[derive(Default)]
pub(crate) struct SpanTree {
    nodes: Vec<NodeAgg>,
    index: FxHashMap<(usize, &'static str), usize>,
    stack: Vec<Frame>,
}

impl SpanTree {
    /// An empty tree; `const` so the seam's thread-local needs no lazy init.
    pub(crate) const fn new() -> Self {
        SpanTree {
            nodes: Vec::new(),
            index: FxHashMap::with_hasher(std::hash::BuildHasherDefault::new()),
            stack: Vec::new(),
        }
    }

    /// Open `name` under the innermost open span and return its depth on
    /// the stack, which closes it.
    pub(crate) fn open(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().map_or(ROOT, |f| f.node);
        let node = match self.index.get(&(parent, name)) {
            Some(&i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(NodeAgg {
                    name,
                    parent,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                    max_ns: 0,
                });
                self.index.insert((parent, name), i);
                i
            }
        };
        // Start the clock last so arena bookkeeping is charged to the
        // parent's self time, not to this span.
        self.stack.push(Frame { node, start: Instant::now(), child_ns: 0 });
        self.stack.len() - 1
    }

    /// Close the span opened at `depth`, which must be the innermost.
    /// While a panic unwinds, frames left open above it (their guards
    /// never dropped) are discarded instead, and nothing here may panic
    /// again: a caught panic leaves the stack as its scope found it.
    pub(crate) fn close(&mut self, depth: usize) {
        let end = Instant::now();
        if std::thread::panicking() {
            if self.stack.len() <= depth {
                return;
            }
            self.stack.truncate(depth + 1);
        }
        assert!(self.stack.len() == depth + 1, "span guards must drop in LIFO order");
        let frame = self.stack.pop().expect("depth is in range");
        let elapsed = u64::try_from(end.duration_since(frame.start).as_nanos()).unwrap_or(u64::MAX);
        // Children ran strictly inside [start, end] of this span on this
        // thread, so their elapsed sum cannot exceed ours: self time is
        // exact by construction.
        let self_ns = elapsed
            .checked_sub(frame.child_ns)
            .expect("monotonic clock: children cannot outlast their parent span");
        let n = &mut self.nodes[frame.node];
        n.count += 1;
        n.total_ns += elapsed;
        n.self_ns += self_ns;
        n.max_ns = n.max_ns.max(elapsed);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    }

    /// The aggregated tree as a nested [`Profile`] (children sorted by
    /// name for deterministic output).
    pub(crate) fn into_profile(self) -> Profile {
        assert!(self.stack.is_empty(), "cannot fold a span tree with an open span");
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.parent == ROOT {
                roots.push(i);
            } else {
                kids[n.parent].push(i);
            }
        }
        fn build(nodes: &[NodeAgg], kids: &[Vec<usize>], i: usize) -> ProfSpan {
            let mut children: Vec<ProfSpan> =
                kids[i].iter().map(|&c| build(nodes, kids, c)).collect();
            children.sort_by(|a, b| a.name.cmp(&b.name));
            let n = &nodes[i];
            ProfSpan {
                name: n.name.to_string(),
                count: n.count,
                total_ns: n.total_ns,
                self_ns: n.self_ns,
                max_ns: n.max_ns,
                children,
            }
        }
        let mut spans: Vec<ProfSpan> =
            roots.iter().map(|&r| build(&self.nodes, &kids, r)).collect();
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        Profile { spans, counters: Vec::new() }
    }
}

/// Cheap-clone handle to the self-profiler: one merged [`Profile`] that
/// span trees and counter sets fold into. Disabled (the default) it
/// records nothing.
#[derive(Clone, Default)]
pub struct Prof {
    merged: Option<Arc<Mutex<Profile>>>,
}

impl std::fmt::Debug for Prof {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prof").field("enabled", &self.is_enabled()).finish()
    }
}

impl Prof {
    /// A no-op handle.
    pub const fn disabled() -> Self {
        Prof { merged: None }
    }

    /// A live profiler. Clones share the same profile.
    pub fn enabled() -> Self {
        Prof { merged: Some(Arc::default()) }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.merged.is_some()
    }

    /// Whether `self` and `other` are handles to the same profile (two
    /// disabled handles are).
    pub(crate) fn same(&self, other: &Prof) -> bool {
        self.merged.as_ref().map(Arc::as_ptr) == other.merged.as_ref().map(Arc::as_ptr)
    }

    /// Fold `p` into the shared profile ([`Profile::merge`]: spans sum by
    /// path, counters by name). How a run publishes its work counters and
    /// a scope its span tree.
    pub fn merge(&self, p: &Profile) {
        if let Some(merged) = &self.merged {
            merged.lock().expect("prof merge lock").merge(p);
        }
    }

    /// A copy of the merged profile: every counter set merged so far and
    /// the span tree of every [`crate::seam::observe`] scope of this
    /// profiler that has ended. Asserts the exact-sum invariant.
    pub fn snapshot(&self) -> Profile {
        let Some(merged) = &self.merged else { return Profile::default() };
        let p = merged.lock().expect("prof merge lock").clone();
        p.assert_exact_sum();
        p
    }
}

json_record! {
    /// One aggregated span path in a [`Profile`]: occurrence count, total
    /// wall time, self time (total minus direct children), and the single
    /// longest occurrence.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ProfSpan {
        /// Span name (the leaf segment; the path is the ancestor chain).
        pub name: String,
        /// How many times this path was entered.
        pub count: u64,
        /// Wall-clock nanoseconds spent inside, children included.
        pub total_ns: u64,
        /// Nanoseconds not accounted to any child: `total_ns - Σ children.total_ns`.
        pub self_ns: u64,
        /// The longest single occurrence, nanoseconds.
        pub max_ns: u64,
        /// Child spans, sorted by name.
        pub children: Vec<ProfSpan>,
    }
}

/// A merged self-profile: root spans (sorted by name) plus the work
/// counters (sorted by name). Obtained from [`Prof::snapshot`] or parsed
/// back from a `profile_document` with [`Profile::from_json`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Root spans, sorted by name.
    pub spans: Vec<ProfSpan>,
    /// `(name, value)` work counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

fn merge_spans(into: &mut Vec<ProfSpan>, from: &[ProfSpan]) {
    for s in from {
        if let Some(t) = into.iter_mut().find(|t| t.name == s.name) {
            t.count += s.count;
            t.total_ns += s.total_ns;
            t.self_ns += s.self_ns;
            t.max_ns = t.max_ns.max(s.max_ns);
            merge_spans(&mut t.children, &s.children);
        } else {
            into.push(s.clone());
        }
    }
    into.sort_by(|a, b| a.name.cmp(&b.name));
}

fn check_span_sum(s: &ProfSpan, path: &str) -> Result<(), String> {
    let kids: u64 = s.children.iter().map(|c| c.total_ns).sum();
    if s.self_ns + kids != s.total_ns {
        return Err(format!(
            "span {path:?}: self {} + children {} != total {}",
            s.self_ns, kids, s.total_ns
        ));
    }
    for c in &s.children {
        check_span_sum(c, &format!("{path};{}", c.name))?;
    }
    Ok(())
}

impl Profile {
    /// Whether the profile holds no spans and no counters.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Total wall time across all root spans, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.total_ns).sum()
    }

    /// Fold `other` into `self`: matching paths sum their aggregates
    /// (max takes the max), counters sum by name. Keeps sort order.
    pub fn merge(&mut self, other: &Profile) {
        merge_spans(&mut self.spans, &other.spans);
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, cur)) => *cur += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Verify `self_ns + Σ children.total_ns == total_ns` (u64 equality)
    /// on every span.
    ///
    /// # Errors
    ///
    /// Returns the first violating path.
    pub fn checked_exact_sum(&self) -> Result<(), String> {
        for s in &self.spans {
            check_span_sum(s, &s.name)?;
        }
        Ok(())
    }

    /// Assert the exact-sum invariant — a plain `assert!`, active in
    /// every build profile, matching the latency-anatomy discipline.
    pub fn assert_exact_sum(&self) {
        if let Err(e) = self.checked_exact_sum() {
            panic!("profile exact-sum violated: {e}");
        }
    }

    /// Flamegraph-ready folded stacks: one `path;to;leaf self_ns` line
    /// per span, depth-first, children in name order.
    pub fn folded(&self) -> String {
        fn walk(s: &ProfSpan, prefix: &str, out: &mut String) {
            let path =
                if prefix.is_empty() { s.name.clone() } else { format!("{prefix};{}", s.name) };
            out.push_str(&path);
            out.push(' ');
            out.push_str(&s.self_ns.to_string());
            out.push('\n');
            for c in &s.children {
                walk(c, &path, out);
            }
        }
        let mut out = String::new();
        for s in &self.spans {
            walk(s, "", &mut out);
        }
        out
    }

    /// The body's two keys, which [`crate::export::profile_document`]
    /// lays out at its top level.
    pub(crate) fn json_pairs(&self) -> [(&'static str, Json); 2] {
        let counters = self.counters.iter().map(|(n, v)| (n.clone(), Json::uint(*v)));
        [("spans", self.spans.to_json()), ("counters", Json::Obj(counters.collect()))]
    }

    /// The span/counter body as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(self.json_pairs())
    }

    /// Reconstruct a profile from a parsed `profile_document` (or any
    /// object carrying `spans` + `counters`). Validates the exact-sum
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns a message on missing/mistyped fields or an exact-sum
    /// violation.
    pub fn from_json(doc: &Json) -> Result<Profile, String> {
        let spans = doc.field("spans")?;
        let pairs: &[(String, Json)] = match doc.get("counters") {
            None => &[],
            Some(Json::Obj(pairs)) => pairs,
            Some(_) => return Err("`counters` must be an object".to_string()),
        };
        let mut counters: Vec<(String, u64)> = Vec::new();
        for (name, v) in pairs {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("counter {name:?} must be a non-negative integer"))?;
            counters.push((name.clone(), v));
        }
        let p = Profile { spans, counters };
        p.checked_exact_sum().map_err(|e| format!("exact-sum violated: {e}"))?;
        Ok(p)
    }
}

/// Render the span tree as an aligned table: indented span names, count,
/// total / self / max wall time, and share of the grand total.
pub fn span_table(p: &Profile) -> Table {
    let mut t = Table::new(["span", "count", "total", "self", "max", "% total"]);
    t.align_left(0);
    let grand = p.total_ns().max(1);
    fn walk(t: &mut Table, s: &ProfSpan, depth: usize, grand: u64) {
        t.row([
            format!("{}{}", "  ".repeat(depth), s.name),
            s.count.to_string(),
            fmt_ns(u128::from(s.total_ns)),
            fmt_ns(u128::from(s.self_ns)),
            fmt_ns(u128::from(s.max_ns)),
            format!("{:.1}", 100.0 * s.total_ns as f64 / grand as f64),
        ]);
        for c in &s.children {
            walk(t, c, depth + 1, grand);
        }
    }
    for s in &p.spans {
        walk(&mut t, s, 0, grand);
    }
    t
}

/// Render the work counters as a two-column table.
pub fn counter_table(p: &Profile) -> Table {
    let mut t = Table::new(["counter", "value"]);
    t.align_left(0);
    for (name, v) in &p.counters {
        t.row([name.clone(), v.to_string()]);
    }
    t
}

/// The `n` span paths with the largest self time, flattened
/// (`a;b;leaf`), hottest first.
pub fn top_self_table(p: &Profile, n: usize) -> Table {
    fn flatten(s: &ProfSpan, prefix: &str, out: &mut Vec<(String, u64, u64)>) {
        let path = if prefix.is_empty() { s.name.clone() } else { format!("{prefix};{}", s.name) };
        out.push((path.clone(), s.self_ns, s.count));
        for c in &s.children {
            flatten(c, &path, out);
        }
    }
    let mut flat: Vec<(String, u64, u64)> = Vec::new();
    for s in &p.spans {
        flatten(s, "", &mut flat);
    }
    flat.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let grand = p.total_ns().max(1);
    let mut t = Table::new(["path", "self", "count", "% total"]);
    t.align_left(0);
    for (path, self_ns, count) in flat.into_iter().take(n) {
        t.row([
            path,
            fmt_ns(u128::from(self_ns)),
            count.to_string(),
            format!("{:.1}", 100.0 * self_ns as f64 / grand as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::seam::span;

    /// Run `f` with `p` installed (spans record into it).
    fn within(p: &Prof, f: impl FnOnce()) {
        crate::seam::observe(&Recorder::disabled(), p, f);
    }

    fn counters(pairs: &[(&str, u64)]) -> Profile {
        let counters = pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        Profile { spans: Vec::new(), counters }
    }

    fn spin() -> u64 {
        let mut acc = 0u64;
        for i in 0..500u64 {
            acc = acc.wrapping_add(std::hint::black_box(i * i));
        }
        acc
    }

    #[test]
    fn disabled_prof_is_inert() {
        let p = Prof::disabled();
        assert!(!p.is_enabled());
        within(&p, || {
            let _outer = span("a");
            let _inner = span("b");
        });
        p.merge(&counters(&[("x", 5)]));
        let snap = p.snapshot();
        assert!(snap.is_empty());
        assert_eq!(format!("{p:?}"), "Prof { enabled: false }");
    }

    #[test]
    fn exact_sum_holds_for_nested_spans() {
        let p = Prof::enabled();
        within(&p, || {
            for _ in 0..3 {
                let _outer = span("outer");
                {
                    let _a = span("a");
                    std::hint::black_box(spin());
                }
                {
                    let _b = span("b");
                    let _ba = span("a"); // same leaf name, different path
                    std::hint::black_box(spin());
                }
            }
        });
        let snap = p.snapshot(); // asserts exact sum internally
        assert_eq!(snap.spans.len(), 1);
        let outer = &snap.spans[0];
        assert_eq!((outer.name.as_str(), outer.count), ("outer", 3));
        assert_eq!(outer.children.len(), 2);
        let (a, b) = (&outer.children[0], &outer.children[1]);
        assert_eq!((a.name.as_str(), a.count), ("a", 3));
        assert_eq!((b.name.as_str(), b.count), ("b", 3));
        assert_eq!(b.children.len(), 1, "a under b is its own path");
        // u64-exact: no residue, no slack.
        assert_eq!(outer.self_ns + a.total_ns + b.total_ns, outer.total_ns);
        assert_eq!(b.self_ns + b.children[0].total_ns, b.total_ns);
        assert!(outer.max_ns >= outer.total_ns / outer.count);
    }

    #[test]
    fn exact_sum_holds_across_worker_threads() {
        let p = Prof::enabled();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let p = p.clone();
                s.spawn(move || {
                    within(&p, || {
                        let _j = span("job");
                        let _w = span("work");
                        std::hint::black_box(spin());
                    });
                });
            }
        });
        let snap = p.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let job = &snap.spans[0];
        assert_eq!(job.count, 2, "both worker scopes folded their trees");
        assert_eq!(job.children[0].count, 2);
        assert_eq!(job.self_ns + job.children[0].total_ns, job.total_ns);
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let p = Prof::enabled();
        p.merge(&counters(&[("b_counter", 2)]));
        p.merge(&counters(&[("a_counter", 1), ("b_counter", 3)]));
        let snap = p.snapshot();
        assert_eq!(snap.counters, vec![("a_counter".to_string(), 1), ("b_counter".to_string(), 5)]);
    }

    #[test]
    #[should_panic(expected = "open span")]
    fn folding_a_scope_with_an_open_span_panics() {
        within(&Prof::enabled(), || std::mem::forget(span("open")));
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_guard_drop_panics() {
        within(&Prof::enabled(), || {
            let a = span("a");
            let _b = span("b");
            drop(a);
        });
    }

    #[test]
    fn merge_sums_matching_paths_and_unions_the_rest() {
        let mk = |n: &str, total: u64, self_ns: u64, kids: Vec<ProfSpan>| ProfSpan {
            name: n.to_string(),
            count: 1,
            total_ns: total,
            self_ns,
            max_ns: total,
            children: kids,
        };
        let mut x = Profile {
            spans: vec![mk("run", 10, 4, vec![mk("tick", 6, 6, vec![])])],
            counters: vec![("c".to_string(), 2)],
        };
        let y = Profile {
            spans: vec![
                mk("init", 3, 3, vec![]),
                mk("run", 20, 8, vec![mk("tick", 12, 12, vec![])]),
            ],
            counters: vec![("c".to_string(), 5), ("d".to_string(), 1)],
        };
        x.merge(&y);
        x.assert_exact_sum();
        assert_eq!(x.spans.len(), 2);
        assert_eq!(x.spans[0].name, "init", "sorted by name");
        let run = &x.spans[1];
        assert_eq!((run.count, run.total_ns, run.self_ns, run.max_ns), (2, 30, 12, 20));
        assert_eq!(run.children[0].total_ns, 18);
        assert_eq!(x.counters, vec![("c".to_string(), 7), ("d".to_string(), 1)]);
    }

    #[test]
    fn folded_stacks_emit_self_times_per_path() {
        let p = Prof::enabled();
        within(&p, || {
            let _a = span("root");
            let _b = span("leaf");
        });
        let folded = p.snapshot().folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("root "), "{folded}");
        assert!(lines[1].starts_with("root;leaf "), "{folded}");
    }

    #[test]
    fn repeated_profilers_on_one_thread_do_not_cross_talk() {
        for _ in 0..3 {
            let p = Prof::enabled();
            within(&p, || drop(span("once")));
            let snap = p.snapshot();
            assert_eq!(snap.spans.len(), 1);
            assert_eq!(snap.spans[0].count, 1, "no leakage from prior profilers");
        }
    }

    #[test]
    fn json_body_round_trips_and_rejects_broken_sums() {
        let p = Prof::enabled();
        within(&p, || {
            let _a = span("root");
            let _b = span("leaf");
        });
        p.merge(&counters(&[("widgets", 7)]));
        let snap = p.snapshot();
        let text = snap.to_json().to_json();
        let back = crate::json::parse(&text).expect("profile body must be valid JSON");
        let round = Profile::from_json(&back).expect("body must reconstruct");
        assert_eq!(round, snap);

        let bad = crate::json::parse(
            r#"{"spans":[{"name":"r","count":1,"total_ns":10,"self_ns":3,"max_ns":10,
                 "children":[{"name":"k","count":1,"total_ns":5,"self_ns":5,"max_ns":5,"children":[]}]}],
                "counters":{}}"#,
        )
        .unwrap();
        let err = Profile::from_json(&bad).unwrap_err();
        assert!(err.contains("exact-sum"), "{err}");
    }

    #[test]
    fn counters_of_the_wrong_type_are_refused_and_absent_ones_read_as_none() {
        let read = |counters: &str| {
            let doc = crate::json::parse(&format!(r#"{{"spans":[]{counters}}}"#)).unwrap();
            Profile::from_json(&doc)
        };
        for bad in [r#","counters":[]"#, r#","counters":5"#, r#","counters":null"#] {
            let err = read(bad).unwrap_err();
            assert!(err.contains("`counters`"), "{bad}: {err}");
        }
        assert_eq!(read(""), Ok(Profile::default()));
        let one = read(r#","counters":{"x":3}"#).unwrap();
        assert_eq!(one.counters, [("x".to_string(), 3)]);
    }

    #[test]
    fn tables_render_tree_counters_and_top_self() {
        let p = Prof::enabled();
        within(&p, || {
            let _a = span("root");
            let _b = span("leaf");
        });
        p.merge(&counters(&[("n_jobs", 3)]));
        let snap = p.snapshot();
        let tree = span_table(&snap).render();
        assert!(tree.contains("root"), "{tree}");
        assert!(tree.contains("  leaf"), "children indent: {tree}");
        let counters = counter_table(&snap).render();
        assert!(counters.contains("n_jobs"));
        let top = top_self_table(&snap, 1).render();
        assert_eq!(top.lines().count(), 3, "header + rule + 1 row: {top}");
        assert!(top.contains(';') || top.contains("root"), "{top}");
    }
}
