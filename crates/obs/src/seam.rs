//! The one observer seam. [`observe`] installs a recorder and profiler on
//! this thread for a closure and puts back the previous pair when it
//! returns or unwinds, so installs nest; components read the innermost
//! pair through [`emit`], [`recording`], [`span`] and [`profiling`]
//! instead of holding handles. With nothing installed each is the
//! disabled no-op.
//!
//! Spans: the seam holds the installed profiler's open
//! `SpanTree` ([`crate::prof`]), and [`span`] opens a node in it. A scope
//! whose profiler is already installed keeps the outer scope's tree, so
//! nested scopes of one profiler record full paths
//! (`bench/shared_run;sim/measure;…`). A scope that installs a different
//! profiler starts an empty tree, folds it into that profiler when it
//! ends ([`Prof::merge`]), discards it if it unwinds, and puts the outer
//! tree back either way. So each outermost scope of a profiler on a
//! thread publishes its own spans when it ends, on whatever thread it
//! ran: there is no per-thread registry and nothing to flush.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;

use crate::event::EventKind;
use crate::prof::{Prof, SpanTree};
use crate::recorder::Recorder;

thread_local! {
    static REC: RefCell<Recorder> = const { RefCell::new(Recorder::disabled()) };
    static PROF: RefCell<Prof> = const { RefCell::new(Prof::disabled()) };
    /// The installed profiler's open span tree.
    static TREE: RefCell<SpanTree> = const { RefCell::new(SpanTree::new()) };
    /// Whether each is live: one load for a hot-path check.
    static LIVE: Cell<(bool, bool)> = const { Cell::new((false, false)) };
}

/// Install `rec` and `prof` on this thread, returning the pair they replace.
fn install(rec: Recorder, prof: Prof) -> (Recorder, Prof) {
    LIVE.set((rec.is_enabled(), prof.is_enabled()));
    (REC.replace(rec), PROF.replace(prof))
}

/// What an [`observe`] scope replaced, put back when it ends or unwinds:
/// the outer pair, and the outer span tree if the scope has its own.
struct Outer(Recorder, Prof, Option<SpanTree>);

impl Drop for Outer {
    fn drop(&mut self) {
        install(std::mem::take(&mut self.0), std::mem::take(&mut self.1));
        if let Some(tree) = self.2.take() {
            TREE.set(tree);
        }
    }
}

/// Run `f` with `rec` and `prof` installed as this thread's observers.
pub fn observe<R>(rec: &Recorder, prof: &Prof, f: impl FnOnce() -> R) -> R {
    let own_tree = !PROF.with_borrow(|outer| outer.same(prof));
    let (outer_rec, outer_prof) = install(rec.clone(), prof.clone());
    let _outer = Outer(outer_rec, outer_prof, own_tree.then(|| TREE.take()));
    let out = f();
    if own_tree {
        prof.merge(&TREE.take().into_profile());
    }
    out
}

/// Record an event into the installed recorder, at its current cycle.
#[inline]
pub fn emit(kind: EventKind) {
    if recording() {
        REC.with_borrow(|rec| rec.emit(kind));
    }
}

/// Whether the installed recorder is live (guards costly events).
#[inline]
pub fn recording() -> bool {
    LIVE.get().0
}

/// Open a span named `name` in the installed profiler, under the
/// innermost open span; inert when [`profiling`] is false. The span
/// measures until the returned guard drops, and guards must drop in LIFO
/// order (scope them naturally).
#[inline]
#[must_use = "a span measures until its guard drops; binding to _ closes it immediately"]
pub fn span(name: &'static str) -> Span {
    Span { depth: profiling().then(|| open(name)), _not_send: PhantomData }
}

// The live halves of a span, out of line: a call site inlines only the
// `profiling` branch and the guard's `None` check.
#[inline(never)]
fn open(name: &'static str) -> usize {
    TREE.with_borrow_mut(|tree| tree.open(name))
}

#[inline(never)]
fn close(depth: usize) {
    TREE.with_borrow_mut(|tree| tree.close(depth));
}

/// Whether the installed profiler is live.
#[inline]
pub fn profiling() -> bool {
    LIVE.get().1
}

/// RAII guard for one open span. `!Send`: a span belongs to the tree of
/// the thread that opened it.
#[must_use = "a span measures until its guard drops; binding to _ closes it immediately"]
pub struct Span {
    /// The span's depth on the tree's stack; `None` when inert.
    depth: Option<usize>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(depth) = self.depth {
            close(depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderConfig;

    fn epochs(rec: &Recorder) -> Vec<u64> {
        let events = rec.snapshot().events;
        events
            .iter()
            .map(|e| match e.kind {
                EventKind::EpochStart { epoch } => epoch,
                _ => unreachable!(),
            })
            .collect()
    }

    fn paths(p: &crate::prof::ProfSpan, prefix: &str, out: &mut Vec<(String, u64)>) {
        let path = format!("{prefix}{}", p.name);
        out.push((path.clone(), p.count));
        for c in &p.children {
            paths(c, &format!("{path};"), out);
        }
    }

    /// Every span path of `prof`'s snapshot with its count.
    fn span_paths(prof: &Prof) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for s in &prof.snapshot().spans {
            paths(s, "", &mut out);
        }
        out
    }

    fn counted(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|&(p, n)| (p.to_string(), n)).collect()
    }

    #[test]
    fn nothing_installed_is_the_disabled_no_op() {
        let rec = Recorder::new(RecorderConfig::default());
        let prof = Prof::enabled();
        assert!(!recording() && !profiling());
        emit(EventKind::EpochStart { epoch: 0 });
        drop(span("loose"));
        assert!(epochs(&rec).is_empty());
        assert!(prof.snapshot().is_empty());
        // ...and once a scope has ended, nothing reaches its pair either.
        observe(&rec, &prof, || emit(EventKind::EpochStart { epoch: 1 }));
        emit(EventKind::EpochStart { epoch: 2 });
        assert!(!recording() && !profiling());
        assert_eq!(epochs(&rec), [1]);
    }

    #[test]
    fn nested_installs_route_to_the_inner_pair_and_restore_the_outer() {
        let (outer, inner) =
            (Recorder::new(RecorderConfig::default()), Recorder::new(RecorderConfig::default()));
        let (outer_prof, inner_prof) = (Prof::enabled(), Prof::enabled());
        observe(&outer, &outer_prof, || {
            assert!(recording() && profiling());
            emit(EventKind::EpochStart { epoch: 0 });
            observe(&inner, &inner_prof, || {
                emit(EventKind::EpochStart { epoch: 1 });
                drop(span("inner"));
            });
            // A disabled pair mutes the scope it covers.
            observe(&Recorder::disabled(), &Prof::disabled(), || {
                assert!(!recording() && !profiling());
                emit(EventKind::EpochStart { epoch: 9 });
            });
            emit(EventKind::EpochStart { epoch: 2 });
            drop(span("outer"));
        });
        assert_eq!(epochs(&outer), [0, 2]);
        assert_eq!(epochs(&inner), [1]);
        assert_eq!(span_paths(&outer_prof), counted(&[("outer", 1)]));
        assert_eq!(span_paths(&inner_prof), counted(&[("inner", 1)]));
    }

    #[test]
    fn a_panic_inside_the_scope_restores_the_outer_pair() {
        let (outer, inner) =
            (Recorder::new(RecorderConfig::default()), Recorder::new(RecorderConfig::default()));
        observe(&outer, &Prof::disabled(), || {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                observe(&inner, &Prof::enabled(), || panic!("inside the scope"));
            }));
            assert!(unwound.is_err());
            assert!(recording() && !profiling());
            emit(EventKind::EpochStart { epoch: 3 });
        });
        assert_eq!(epochs(&outer), [3]);
        assert!(epochs(&inner).is_empty());
        assert!(!recording());
    }

    #[test]
    fn a_scope_of_the_installed_profiler_keeps_its_tree() {
        let (p, q, quiet) = (Prof::enabled(), Prof::enabled(), Recorder::disabled());
        observe(&quiet, &p, || {
            let _run = span("run");
            observe(&quiet, &p, || drop(span("nested")));
            observe(&quiet, &q, || drop(span("other")));
            drop(span("after"));
        });
        assert_eq!(span_paths(&p), counted(&[("run", 1), ("run;after", 1), ("run;nested", 1)]));
        assert_eq!(span_paths(&q), counted(&[("other", 1)]));
    }

    /// A traced run that panics is caught and counted as failed; the
    /// profile of the runs that completed must stay readable.
    #[test]
    fn a_caught_panic_leaves_the_profile_readable() {
        let (prof, quiet) = (Prof::enabled(), Recorder::disabled());
        observe(&quiet, &prof, || drop(span("done")));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            observe(&quiet, &prof, || {
                let _open = span("open");
                panic!("inside an open span");
            });
        }));
        assert!(unwound.is_err());
        // The unwound scope's tree is discarded; the completed one stays.
        assert_eq!(span_paths(&prof), counted(&[("done", 1)]));
    }

    #[test]
    fn a_panic_caught_inside_a_scope_of_the_same_profiler_keeps_later_spans_in_order() {
        let (prof, quiet) = (Prof::enabled(), Recorder::disabled());
        observe(&quiet, &prof, || {
            let _outer = span("outer");
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                observe(&quiet, &prof, || {
                    let _inner = span("inner");
                    let _deeper = span("deeper");
                    panic!("two spans deep");
                });
            }));
            assert!(unwound.is_err());
            // Opens under `outer`, not under a frame the unwind left open,
            // and `outer` still closes last.
            drop(span("later"));
        });
        assert_eq!(
            span_paths(&prof),
            counted(&[
                ("outer", 1),
                ("outer;inner", 1),
                ("outer;inner;deeper", 1),
                ("outer;later", 1)
            ])
        );
    }
}
