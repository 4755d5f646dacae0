//! The one observer seam. [`observe`] installs a recorder and profiler on
//! this thread for a closure and puts back the previous pair when it
//! returns or unwinds, so installs nest; components read the innermost
//! pair through [`emit`], [`recording`], [`span`] and [`profiling`]
//! instead of holding handles. With nothing installed each is the
//! disabled no-op. Per thread, like [`crate::prof`]'s span trees.

use std::cell::{Cell, RefCell};

use crate::event::EventKind;
use crate::prof::{Prof, Span};
use crate::recorder::Recorder;

thread_local! {
    static REC: RefCell<Recorder> = const { RefCell::new(Recorder::disabled()) };
    static PROF: RefCell<Prof> = const { RefCell::new(Prof::disabled()) };
    /// Whether each is live: one load for a hot-path check.
    static LIVE: Cell<(bool, bool)> = const { Cell::new((false, false)) };
}

/// Install `rec` and `prof` on this thread, returning the pair they replace.
fn install(rec: Recorder, prof: Prof) -> (Recorder, Prof) {
    LIVE.set((rec.is_enabled(), prof.is_enabled()));
    (REC.replace(rec), PROF.replace(prof))
}

/// Puts the outer pair back when an [`observe`] scope ends or unwinds.
struct Restore(Recorder, Prof);

impl Drop for Restore {
    fn drop(&mut self) {
        install(std::mem::take(&mut self.0), std::mem::take(&mut self.1));
    }
}

/// Run `f` with `rec` and `prof` installed as this thread's observers.
pub fn observe<R>(rec: &Recorder, prof: &Prof, f: impl FnOnce() -> R) -> R {
    let (outer_rec, outer_prof) = install(rec.clone(), prof.clone());
    let _restore = Restore(outer_rec, outer_prof);
    f()
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

/// Open a span of the installed profiler (see [`Prof::span`]).
#[inline]
#[must_use = "a span measures until its guard drops; binding to _ closes it immediately"]
pub fn span(name: &'static str) -> Span {
    PROF.with_borrow(|prof| prof.span(name))
}

/// Whether the installed profiler is live.
#[inline]
pub fn profiling() -> bool {
    LIVE.get().1
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

    fn span_count(prof: &Prof, name: &str) -> u64 {
        prof.snapshot().spans.iter().filter(|s| s.name == name).map(|s| s.count).sum()
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
        assert_eq!((span_count(&outer_prof, "outer"), span_count(&outer_prof, "inner")), (1, 0));
        assert_eq!((span_count(&inner_prof, "inner"), span_count(&inner_prof, "outer")), (1, 0));
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
}
