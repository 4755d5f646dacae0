//! Host-side self-profiling: wall-clock span trees and work counters.
//!
//! The simulator can explain every *simulated* cycle (the latency
//! anatomy), but the event-driven core (DESIGN.md "Event-driven time
//! skipping") needs to know where the *host's* nanoseconds go and how
//! much of the tick loop is wasted polling. This module provides both
//! instruments with the same discipline the anatomy uses:
//!
//! * **Spans** — hierarchical wall-clock regions over a monotonic clock
//!   ([`std::time::Instant`]). Each thread keeps its own span stack and
//!   aggregates per *path* (parent chain + name) into
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
//! The handle follows the [`crate::recorder::Recorder`] shape: [`Prof`]
//! is cheap to clone and a *disabled* handle reduces every call to a
//! single `Option` check, so instrumentation can stay in the hot path
//! permanently. Unlike `Recorder` it is `Send + Sync` (`Arc` inside):
//! the bench `Engine` profiles jobs running on pool worker threads.
//!
//! Threading model: span data lives in thread-local trees and is folded
//! into the shared profile by [`Prof::flush_thread`]. Worker threads
//! must flush explicitly before they finish (the bench engine does this
//! at the end of every job); thread-local destructors also flush as a
//! backstop, but scoped-thread teardown order makes that a best-effort
//! path, not the contract. [`Prof::snapshot`] flushes the calling
//! thread, so single-threaded users never think about it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use crate::json::{json_record, Json, JsonValue};
use crate::table::{fmt_ns, Table};

/// Sentinel parent index for root spans inside a [`SpanTree`].
const ROOT: usize = usize::MAX;

/// One aggregated node of a thread-local span tree.
#[derive(Debug)]
struct NodeAgg {
    name: &'static str,
    parent: usize,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    max_ns: u64,
}

/// An open span on the thread's stack.
#[derive(Debug)]
struct Frame {
    node: usize,
    start: Instant,
    /// Total nanoseconds of already-closed direct children.
    child_ns: u64,
}

/// Per-thread span aggregation: a flat arena of path-keyed nodes plus
/// the stack of currently open spans.
#[derive(Debug, Default)]
struct SpanTree {
    nodes: Vec<NodeAgg>,
    index: HashMap<(usize, &'static str), usize>,
    stack: Vec<Frame>,
}

impl SpanTree {
    fn open(&mut self, name: &'static str) -> usize {
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
        node
    }

    fn close(&mut self, node: usize) {
        let end = Instant::now();
        let frame = self.stack.pop().expect("span guard dropped with an empty stack");
        assert!(frame.node == node, "span guards must drop in LIFO order");
        let elapsed = u64::try_from(end.duration_since(frame.start).as_nanos()).unwrap_or(u64::MAX);
        // Children ran strictly inside [start, end] of this span on this
        // thread, so their elapsed sum cannot exceed ours: self time is
        // exact by construction.
        let self_ns = elapsed
            .checked_sub(frame.child_ns)
            .expect("monotonic clock: children cannot outlast their parent span");
        let n = &mut self.nodes[node];
        n.count += 1;
        n.total_ns += elapsed;
        n.self_ns += self_ns;
        n.max_ns = n.max_ns.max(elapsed);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    }

    /// Drain the aggregated tree into a nested [`Profile`] (children
    /// sorted by name for deterministic output), leaving it empty.
    fn take_profile(&mut self) -> Profile {
        assert!(self.stack.is_empty(), "cannot flush a span tree with an open span");
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
        self.nodes.clear();
        self.index.clear();
        Profile { spans, counters: Vec::new() }
    }
}

/// The trees this thread holds, one per live profiler it has recorded
/// into. Dropping the set (thread exit) flushes what it can.
#[derive(Default)]
struct ThreadTreeSet {
    entries: Vec<ThreadEntry>,
}

struct ThreadEntry {
    owner: Weak<Inner>,
    tree: SpanTree,
}

impl ThreadTreeSet {
    fn find(&mut self, inner: &Arc<Inner>) -> Option<&mut ThreadEntry> {
        let ptr = Arc::as_ptr(inner);
        // `strong_count > 0` guards against an old profiler's allocation
        // being reused for a new one (the dangling Weak keeps the stale
        // pointer but reports zero strong refs).
        self.entries
            .iter_mut()
            .find(|e| Weak::as_ptr(&e.owner) == ptr && e.owner.strong_count() > 0)
    }

    fn tree_for(&mut self, inner: &Arc<Inner>) -> &mut SpanTree {
        if self.find(inner).is_none() {
            self.entries.retain(|e| e.owner.strong_count() > 0);
            self.entries
                .push(ThreadEntry { owner: Arc::downgrade(inner), tree: SpanTree::default() });
        }
        &mut self.find(inner).expect("just inserted").tree
    }
}

impl Drop for ThreadTreeSet {
    fn drop(&mut self) {
        for e in &mut self.entries {
            if let Some(inner) = e.owner.upgrade() {
                if e.tree.stack.is_empty() && !e.tree.nodes.is_empty() {
                    inner.absorb(&e.tree.take_profile());
                }
            }
        }
    }
}

thread_local! {
    static TREES: RefCell<ThreadTreeSet> = RefCell::new(ThreadTreeSet::default());
}

/// Shared state behind an enabled [`Prof`]: the one profile that span
/// trees and counter sets both merge into.
#[derive(Default)]
struct Inner {
    merged: Mutex<Profile>,
}

impl Inner {
    fn absorb(&self, p: &Profile) {
        self.merged.lock().expect("prof merge lock").merge(p);
    }
}

/// Cheap-clone handle to the self-profiler. Disabled (the default) every
/// operation is a single branch; enabled, spans cost two `Instant::now`
/// calls plus a hash lookup.
#[derive(Clone, Default)]
pub struct Prof {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Prof {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prof").field("enabled", &self.is_enabled()).finish()
    }
}

impl Prof {
    /// A no-op handle: every call is one branch.
    pub fn disabled() -> Self {
        Prof { inner: None }
    }

    /// A live profiler. Clones share the same profile.
    pub fn enabled() -> Self {
        Prof { inner: Some(Arc::new(Inner::default())) }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span named `name` under the innermost open span on this
    /// thread. The span measures until the returned guard drops; guards
    /// must drop in LIFO order (scope them naturally).
    // `inline` so the disabled path collapses to a branch at call sites
    // in other crates (there is no LTO to do it for us).
    #[inline]
    #[must_use = "a span measures until its guard drops; binding to _ closes it immediately"]
    pub fn span(&self, name: &'static str) -> Span {
        let node = match &self.inner {
            None => 0,
            Some(inner) => TREES.with(|t| t.borrow_mut().tree_for(inner).open(name)),
        };
        Span { owner: self.inner.clone(), node, _not_send: PhantomData }
    }

    /// Fold `p` into the shared profile ([`Profile::merge`]: spans sum by
    /// path, counters by name). How a run publishes its work counters.
    pub fn merge(&self, p: &Profile) {
        if let Some(inner) = &self.inner {
            inner.absorb(p);
        }
    }

    /// Fold this thread's span tree into the shared profile. Call at the
    /// end of every pool job; a no-op when disabled or nothing recorded.
    ///
    /// # Panics
    ///
    /// Panics if called while a span is still open on this thread — that
    /// would orphan the open frame and break the exact-sum invariant.
    pub fn flush_thread(&self) {
        let Some(inner) = &self.inner else { return };
        TREES.with(|t| {
            let mut set = t.borrow_mut();
            if let Some(entry) = set.find(inner) {
                assert!(entry.tree.stack.is_empty(), "flush_thread/snapshot inside an open span");
                if !entry.tree.nodes.is_empty() {
                    inner.absorb(&entry.tree.take_profile());
                }
            }
        });
    }

    /// Flush this thread, then return a copy of the merged profile.
    /// Asserts the exact-sum invariant.
    ///
    /// Worker threads that recorded spans must have called
    /// [`Prof::flush_thread`] (or exited) first, or their data is not in
    /// this snapshot yet.
    pub fn snapshot(&self) -> Profile {
        let Some(inner) = &self.inner else { return Profile::default() };
        self.flush_thread();
        let p = inner.merged.lock().expect("prof merge lock").clone();
        p.assert_exact_sum();
        p
    }
}

/// RAII guard for one open span. `!Send`: a span belongs to the stack of
/// the thread that opened it.
#[must_use = "a span measures until its guard drops; binding to _ closes it immediately"]
pub struct Span {
    owner: Option<Arc<Inner>>,
    node: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        let Some(inner) = self.owner.take() else { return };
        // During a panic unwind the measurement is garbage and the span
        // stack may be inconsistent; recording would risk a second
        // panic inside a destructor (= abort). Abandon the profile.
        if std::thread::panicking() {
            return;
        }
        // try_with: if the thread is already tearing down its TLS the
        // tree is gone and there is nothing left to record into.
        let _ = TREES.try_with(|t| {
            let mut set = t.borrow_mut();
            if let Some(entry) = set.find(&inner) {
                entry.tree.close(self.node);
            }
        });
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

impl ProfSpan {
    /// Mean nanoseconds per occurrence (0 when never entered).
    pub fn avg_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
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
        let mut counters: Vec<(String, u64)> = Vec::new();
        if let Some(Json::Obj(pairs)) = doc.get("counters") {
            for (name, v) in pairs {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("counter {name:?} must be a non-negative integer"))?;
                counters.push((name.clone(), v));
            }
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
        {
            let _outer = p.span("a");
            let _inner = p.span("b");
        }
        p.merge(&counters(&[("x", 5)]));
        p.flush_thread();
        let snap = p.snapshot();
        assert!(snap.is_empty());
        assert_eq!(format!("{p:?}"), "Prof { enabled: false }");
    }

    #[test]
    fn exact_sum_holds_for_nested_spans() {
        let p = Prof::enabled();
        for _ in 0..3 {
            let _outer = p.span("outer");
            {
                let _a = p.span("a");
                std::hint::black_box(spin());
            }
            {
                let _b = p.span("b");
                let _ba = p.span("a"); // same leaf name, different path
                std::hint::black_box(spin());
            }
        }
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
        assert!(outer.max_ns >= outer.avg_ns());
    }

    #[test]
    fn exact_sum_holds_across_worker_threads() {
        let p = Prof::enabled();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let p = p.clone();
                s.spawn(move || {
                    {
                        let _j = p.span("job");
                        let _w = p.span("work");
                        std::hint::black_box(spin());
                    }
                    p.flush_thread();
                });
            }
        });
        let snap = p.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let job = &snap.spans[0];
        assert_eq!(job.count, 2, "both worker trees merged");
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
    fn flush_inside_open_span_panics() {
        let p = Prof::enabled();
        let _s = p.span("open");
        p.flush_thread();
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_guard_drop_panics() {
        let p = Prof::enabled();
        let a = p.span("a");
        let _b = p.span("b");
        drop(a);
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
        {
            let _a = p.span("root");
            let _b = p.span("leaf");
        }
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
            {
                let _s = p.span("once");
            }
            let snap = p.snapshot();
            assert_eq!(snap.spans.len(), 1);
            assert_eq!(snap.spans[0].count, 1, "no leakage from prior profilers");
        }
    }

    #[test]
    fn json_body_round_trips_and_rejects_broken_sums() {
        let p = Prof::enabled();
        {
            let _a = p.span("root");
            let _b = p.span("leaf");
        }
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
    fn tables_render_tree_counters_and_top_self() {
        let p = Prof::enabled();
        {
            let _a = p.span("root");
            let _b = p.span("leaf");
        }
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
