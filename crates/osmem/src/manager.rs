//! The memory-manager facade: translation, partition updates, migration.

use dbp_dram::{AddressMapper, DramConfig};
use dbp_obs::{EventKind, MigrationCause};

use crate::allocator::FrameAllocator;
use crate::page_table::PageTable;
use crate::{ColorSet, Frame, ThreadId, Vpn};

/// When pages that violate a new partition get moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationMode {
    /// All violating resident pages move at [`MemoryManager::set_partition`]
    /// time.
    Eager,
    /// Violating pages move on the thread's next access to them. This is
    /// the default: it spreads migration traffic over the epoch, matching
    /// how MCP-style repartitioning is deployed.
    #[default]
    Lazy,
}

/// A page copy the simulator must charge to the DRAM model
/// (`page_bytes / line_bytes` reads of the old frame plus as many writes
/// of the new frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationJob {
    pub thread: ThreadId,
    pub vpn: Vpn,
    pub old_frame: Frame,
    pub new_frame: Frame,
}

/// Result of a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical byte address.
    pub pa: u64,
    /// Whether this access demand-allocated the page (first touch).
    pub allocated: bool,
    /// A lazy migration triggered by this access, if any.
    pub migration: Option<MigrationJob>,
}

/// Allocation and migration counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Demand allocations.
    pub allocations: u64,
    /// Allocations that fell outside the thread's partition because it was
    /// exhausted.
    pub fallback_allocations: u64,
    /// Pages migrated to honour a partition change.
    pub migrated_pages: u64,
    /// Migrations skipped because the target partition had no free frame.
    pub failed_migrations: u64,
    /// Migrations deferred because the per-epoch budget was exhausted
    /// (the page keeps its old frame until a later epoch).
    pub deferred_migrations: u64,
}

/// Per-thread page tables over a shared color-aware frame allocator.
/// Every fallback allocation, page move, failed move and deferral is
/// emitted to the installed recorder ([`dbp_obs::emit`]).
#[derive(Debug, Clone)]
pub struct MemoryManager {
    mapper: AddressMapper,
    allocator: FrameAllocator,
    tables: Vec<PageTable>,
    partitions: Vec<ColorSet>,
    mode: MigrationMode,
    page_bits: u32,
    stats: OsStats,
    /// Remaining migrations until the next [`MemoryManager::refill_migration_budget`].
    /// `None` = unlimited.
    migration_budget: Option<u64>,
}

impl MemoryManager {
    /// Build a manager for `threads` threads, each initially allowed every
    /// color (unpartitioned).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or has more colors than a [`ColorSet`]
    /// can name.
    pub fn new(cfg: &DramConfig, threads: usize, mode: MigrationMode) -> Self {
        let mapper = AddressMapper::new(cfg);
        let allocator = FrameAllocator::new(cfg);
        let all = ColorSet::all(allocator.num_colors());
        MemoryManager {
            page_bits: mapper.page_bits(),
            mapper,
            allocator,
            tables: (0..threads).map(|_| PageTable::new()).collect(),
            partitions: vec![all; threads],
            mode,
            stats: OsStats::default(),
            migration_budget: None,
        }
    }

    /// Limit migrations until the next refill. A real migration daemon is
    /// throttled; an unbounded lazy migration of a large footprint would
    /// flood the memory system for entire epochs.
    pub fn refill_migration_budget(&mut self, pages: Option<u64>) {
        self.migration_budget = pages;
    }

    /// Consume one unit of migration budget; `false` means the migration
    /// must be deferred.
    fn take_budget(&mut self, thread: ThreadId) -> bool {
        match &mut self.migration_budget {
            None => true,
            Some(0) => {
                self.stats.deferred_migrations += 1;
                dbp_obs::emit(EventKind::MigrationDeferred { thread });
                false
            }
            Some(b) => {
                *b -= 1;
                true
            }
        }
    }

    /// The address mapper (layout) in force.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Number of page colors.
    pub fn num_colors(&self) -> u32 {
        self.allocator.num_colors()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// Resident pages of `thread`.
    pub fn resident_pages(&self, thread: ThreadId) -> usize {
        self.tables[thread].resident_pages()
    }

    fn alloc_for(&mut self, thread: ThreadId, vpn: Vpn) -> Frame {
        if let Some(f) = self.allocator.alloc(&self.partitions[thread]) {
            self.stats.allocations += 1;
            return f;
        }
        // Partition exhausted: a real OS spills rather than OOM-killing.
        self.stats.allocations += 1;
        self.stats.fallback_allocations += 1;
        dbp_obs::emit(EventKind::FallbackAlloc { thread, vpn });
        self.allocator
            .alloc(&ColorSet::all(self.allocator.num_colors()))
            .expect("physical memory exhausted")
    }

    /// Translate `vaddr` for `thread`, demand-allocating on first touch
    /// and performing a lazy migration if the page violates the thread's
    /// current partition.
    pub fn translate(&mut self, thread: ThreadId, vaddr: u64) -> Translation {
        // The pure-lookup case is `peek`, by construction.
        if let Some(pa) = self.peek(thread, vaddr) {
            return Translation { pa, allocated: false, migration: None };
        }
        let vpn = vaddr >> self.page_bits;
        let offset = vaddr & ((1 << self.page_bits) - 1);
        if let Some(frame) = self.tables[thread].translate(vpn) {
            // Resident, yet `peek` refused: a lazy migration is due.
            let migration = if self.take_budget(thread) {
                self.relocate(thread, vpn, frame, self.partitions[thread], MigrationCause::Lazy)
            } else {
                None
            };
            let frame = migration.map_or(frame, |job| job.new_frame);
            return Translation {
                pa: (frame << self.page_bits) | offset,
                allocated: false,
                migration,
            };
        }
        let frame = self.alloc_for(thread, vpn);
        self.tables[thread].map(vpn, frame);
        Translation { pa: (frame << self.page_bits) | offset, allocated: true, migration: None }
    }

    /// Side-effect-free translation, and [`MemoryManager::translate`]'s own
    /// fast path: `Some(pa)` exactly when translating is a pure lookup —
    /// the page is resident and would not trigger a lazy migration (nor
    /// any migration bookkeeping such as budget deferral). `None` means
    /// translating now mutates state, so a time-skipping caller must not
    /// assume the access repeats identically.
    #[inline]
    pub fn peek(&self, thread: ThreadId, vaddr: u64) -> Option<u64> {
        let vpn = vaddr >> self.page_bits;
        let offset = vaddr & ((1 << self.page_bits) - 1);
        let frame = self.tables[thread].translate(vpn)?;
        let violates = !self.partitions[thread].contains(self.allocator.color_of(frame));
        if violates && self.mode == MigrationMode::Lazy {
            return None;
        }
        Some((frame << self.page_bits) | offset)
    }

    /// Apply a new partition to `thread`.
    ///
    /// In [`MigrationMode::Eager`] every violating resident page is moved
    /// now and returned as a [`MigrationJob`]; in lazy mode the returned
    /// vector is empty and pages move on next touch.
    ///
    /// # Panics
    ///
    /// Panics if `colors` is empty.
    pub fn set_partition(&mut self, thread: ThreadId, colors: ColorSet) -> Vec<MigrationJob> {
        assert!(!colors.is_empty(), "a thread partition must contain at least one color");
        self.partitions[thread] = colors;
        if self.mode != MigrationMode::Eager {
            return Vec::new();
        }
        self.conform_thread(thread, MigrationCause::Eager)
    }

    /// Spread `thread`'s resident pages evenly across the colors of its
    /// partition, moving at most the remaining migration budget.
    ///
    /// Needed when a partition *grows*: pages allocated under the old,
    /// smaller partition are legal under the new one but concentrated on
    /// few banks, so the thread cannot reach the bank-level parallelism
    /// its new allocation permits — the exact resource DBP grants it.
    /// Colors are only drained while they exceed the per-color average by
    /// a slack of 25 % + 4 pages, so a balanced thread is never churned.
    pub fn rebalance_thread(&mut self, thread: ThreadId) -> Vec<MigrationJob> {
        let part = self.partitions[thread];
        let colors: Vec<_> = part.iter().collect();
        if colors.len() < 2 {
            return Vec::new();
        }
        let mut buckets: Vec<Vec<(Vpn, Frame)>> = vec![Vec::new(); colors.len()];
        let mut outside = 0usize;
        for (vpn, frame) in self.tables[thread].iter() {
            match colors.iter().position(|&c| c == self.allocator.color_of(frame)) {
                Some(k) => buckets[k].push((vpn, frame)),
                None => outside += 1,
            }
        }
        for b in &mut buckets {
            b.sort_unstable(); // deterministic despite hash-order iteration
        }
        let resident: usize = buckets.iter().map(Vec::len).sum::<usize>() + outside;
        let target = resident / colors.len();
        let slack = target / 4 + 4;
        let mut jobs = Vec::new();
        for k in 0..colors.len() {
            while buckets[k].len() > target + slack {
                if !self.take_budget(thread) {
                    return jobs;
                }
                // Receive into the least-loaded color with a free frame.
                let Some(dest) = (0..colors.len())
                    .filter(|&d| d != k && self.allocator.free_in_color(colors[d]) > 0)
                    .min_by_key(|&d| buckets[d].len())
                else {
                    return jobs;
                };
                if buckets[dest].len() + 1 >= buckets[k].len() {
                    break; // no strict improvement left
                }
                let (vpn, old_frame) = buckets[k].pop().expect("bucket over target");
                let into = ColorSet::from_iter([colors[dest]]);
                let job = self
                    .relocate(thread, vpn, old_frame, into, MigrationCause::Rebalance)
                    .expect("checked free frame");
                buckets[dest].push((vpn, job.new_frame));
                jobs.push(job);
            }
        }
        jobs
    }

    /// Instantly remap every violating page of every thread into its
    /// partition, ignoring cost and budget.
    ///
    /// Used at the end of a simulation's warmup phase: measurement starts
    /// from the steady state the OS would have reached, instead of
    /// charging the transition to whichever epoch it straddles.
    ///
    /// Returns the number of pages moved.
    pub fn conform_all(&mut self) -> u64 {
        let saved_budget = self.migration_budget.take();
        let mut moved = 0;
        for thread in 0..self.tables.len() {
            moved += self.conform_thread(thread, MigrationCause::Conform).len() as u64;
            moved += self.rebalance_thread(thread).len() as u64;
        }
        self.migration_budget = saved_budget;
        moved
    }

    /// Count of `thread`'s resident pages whose frame color falls
    /// outside `colors` — the migration backlog an arbitrary
    /// (hypothetical) partition would create. Read-only: the decision
    /// audit layer uses it to cost shadow-policy plans without touching
    /// placement state.
    pub fn pages_outside(&self, thread: ThreadId, colors: &ColorSet) -> usize {
        self.outside(thread, *colors).count()
    }

    /// The one out-of-partition scan: `thread`'s resident pages whose
    /// frame color falls outside `colors`, in page-table (hash) order.
    fn outside(
        &self,
        thread: ThreadId,
        colors: ColorSet,
    ) -> impl Iterator<Item = (Vpn, Frame)> + '_ {
        self.tables[thread]
            .iter()
            .filter(move |&(_, f)| !colors.contains(self.allocator.color_of(f)))
    }

    /// Move `thread`'s pages that lie outside its partition back in, in
    /// page order, until the migration budget runs out.
    fn conform_thread(&mut self, thread: ThreadId, cause: MigrationCause) -> Vec<MigrationJob> {
        let colors = self.partitions[thread];
        let mut outside: Vec<(Vpn, Frame)> = self.outside(thread, colors).collect();
        outside.sort_unstable(); // page tables hash-iterate nondeterministically
        let mut jobs = Vec::with_capacity(outside.len());
        for (vpn, old_frame) in outside {
            if !self.take_budget(thread) {
                break;
            }
            jobs.extend(self.relocate(thread, vpn, old_frame, colors, cause));
        }
        jobs
    }

    /// The one page move: remap `thread`'s page `vpn` from `old_frame` to
    /// a free frame of `colors`, free the old frame, count and emit the
    /// move, and return the copy the simulator must charge. With no free
    /// frame in `colors` the page stays put, and the failure is counted
    /// and emitted instead.
    fn relocate(
        &mut self,
        thread: ThreadId,
        vpn: Vpn,
        old_frame: Frame,
        colors: ColorSet,
        cause: MigrationCause,
    ) -> Option<MigrationJob> {
        let Some(new_frame) = self.allocator.alloc(&colors) else {
            self.stats.failed_migrations += 1;
            dbp_obs::emit(EventKind::MigrationFailed { thread });
            return None;
        };
        self.allocator.free(old_frame);
        self.tables[thread].map(vpn, new_frame);
        self.stats.migrated_pages += 1;
        dbp_obs::emit(EventKind::PageMigration { thread, vpn, old_frame, new_frame, cause });
        Some(MigrationJob { thread, vpn, old_frame, new_frame })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig { rows_per_bank: 64, ..DramConfig::default() }
    }

    #[test]
    fn first_touch_allocates_in_partition() {
        let mut mm = MemoryManager::new(&cfg(), 2, MigrationMode::Lazy);
        mm.set_partition(0, ColorSet::from_iter([1u32]));
        let t = mm.translate(0, 0x1234_5678);
        assert!(t.allocated);
        let frame = t.pa >> 12;
        assert_eq!(mm.mapper().frame_color(frame), 1);
        // Offset preserved.
        assert_eq!(t.pa & 0xfff, 0x678);
    }

    #[test]
    fn repeat_touch_reuses_frame() {
        let mut mm = MemoryManager::new(&cfg(), 1, MigrationMode::Lazy);
        let a = mm.translate(0, 0x1000);
        let b = mm.translate(0, 0x1040);
        assert!(!b.allocated);
        assert_eq!(a.pa >> 12, b.pa >> 12);
    }

    #[test]
    fn threads_have_separate_address_spaces() {
        let mut mm = MemoryManager::new(&cfg(), 2, MigrationMode::Lazy);
        let a = mm.translate(0, 0x1000);
        let b = mm.translate(1, 0x1000);
        assert_ne!(a.pa >> 12, b.pa >> 12);
    }

    #[test]
    fn eager_repartition_moves_pages() {
        let mut mm = MemoryManager::new(&cfg(), 1, MigrationMode::Eager);
        mm.set_partition(0, ColorSet::from_iter([0u32]));
        for p in 0..8u64 {
            mm.translate(0, p << 12);
        }
        let jobs = mm.set_partition(0, ColorSet::from_iter([5u32]));
        assert_eq!(jobs.len(), 8);
        for j in &jobs {
            assert_eq!(mm.mapper().frame_color(j.new_frame), 5);
        }
        assert_eq!(mm.pages_outside(0, &mm.partitions[0]), 0);
        assert_eq!(mm.stats().migrated_pages, 8);
    }

    #[test]
    fn lazy_repartition_moves_on_touch() {
        let mut mm = MemoryManager::new(&cfg(), 1, MigrationMode::Lazy);
        mm.set_partition(0, ColorSet::from_iter([0u32]));
        mm.translate(0, 0x1000);
        let jobs = mm.set_partition(0, ColorSet::from_iter([3u32]));
        assert!(jobs.is_empty());
        assert_eq!(mm.pages_outside(0, &mm.partitions[0]), 1);
        let t = mm.translate(0, 0x1000);
        let job = t.migration.expect("touch must migrate");
        assert_eq!(mm.mapper().frame_color(job.new_frame), 3);
        assert_eq!(mm.pages_outside(0, &mm.partitions[0]), 0);
        // Subsequent touches are clean.
        assert!(mm.translate(0, 0x1000).migration.is_none());
    }

    #[test]
    fn peek_is_pure_and_is_translates_fast_path() {
        let mut mm = MemoryManager::new(&cfg(), 1, MigrationMode::Lazy);
        mm.set_partition(0, ColorSet::from_iter([0u32]));
        // Not resident: peek refuses (translate would demand-allocate).
        assert_eq!(mm.peek(0, 0x1000), None);
        let t = mm.translate(0, 0x1000);
        let stats = *mm.stats();
        // Resident and legal: peek agrees with translate, mutating nothing.
        assert_eq!(mm.peek(0, 0x1040), Some((t.pa & !0xfff) | 0x40));
        assert_eq!(*mm.stats(), stats);
        // Violating under lazy mode: translate would migrate, so peek refuses.
        mm.set_partition(0, ColorSet::from_iter([3u32]));
        assert_eq!(mm.peek(0, 0x1000), None);
        assert_eq!(*mm.stats(), stats);
    }

    #[test]
    fn exhausted_partition_falls_back() {
        let mut mm = MemoryManager::new(&cfg(), 1, MigrationMode::Lazy);
        mm.set_partition(0, ColorSet::from_iter([0u32]));
        // 64 rows x 2 pages per row = 128 frames per color.
        for p in 0..200u64 {
            mm.translate(0, p << 12);
        }
        assert!(mm.stats().fallback_allocations > 0);
        assert_eq!(mm.resident_pages(0), 200);
    }

    #[test]
    fn budget_defers_lazy_migrations() {
        let mut mm = MemoryManager::new(&cfg(), 1, MigrationMode::Lazy);
        mm.set_partition(0, ColorSet::from_iter([0u32]));
        for p in 0..10u64 {
            mm.translate(0, p << 12);
        }
        mm.set_partition(0, ColorSet::from_iter([3u32]));
        mm.refill_migration_budget(Some(4));
        for p in 0..10u64 {
            mm.translate(0, p << 12);
        }
        assert_eq!(mm.stats().migrated_pages, 4);
        assert_eq!(mm.stats().deferred_migrations, 6);
        assert_eq!(mm.pages_outside(0, &mm.partitions[0]), 6);
        // Refill lets the rest move.
        mm.refill_migration_budget(Some(100));
        for p in 0..10u64 {
            mm.translate(0, p << 12);
        }
        assert_eq!(mm.pages_outside(0, &mm.partitions[0]), 0);
    }

    #[test]
    fn conform_all_moves_everything_instantly() {
        let mut mm = MemoryManager::new(&cfg(), 2, MigrationMode::Lazy);
        mm.set_partition(0, ColorSet::from_iter([0u32]));
        mm.set_partition(1, ColorSet::from_iter([1u32]));
        for p in 0..5u64 {
            mm.translate(0, p << 12);
            mm.translate(1, p << 12);
        }
        mm.set_partition(0, ColorSet::from_iter([2u32]));
        mm.set_partition(1, ColorSet::from_iter([3u32]));
        mm.refill_migration_budget(Some(0)); // conform ignores the budget
        let moved = mm.conform_all();
        assert_eq!(moved, 10);
        assert_eq!(mm.pages_outside(0, &mm.partitions[0]), 0);
        assert_eq!(mm.pages_outside(1, &mm.partitions[1]), 0);
    }

    /// Every page event the manager emits is one its `OsStats` counts, on
    /// every path: lazy, eager, rebalance and conform moves, a failed
    /// move, a deferral and a fallback allocation.
    #[test]
    fn page_events_match_os_stats() {
        use dbp_obs::{EventKind as E, MigrationCause as C};
        let rec = dbp_obs::Recorder::new(dbp_obs::RecorderConfig::default());
        let stats = dbp_obs::observe(&rec, &dbp_obs::Prof::disabled(), || {
            let one = |c: u32| ColorSet::from_iter([c]);
            let mut mm = MemoryManager::new(&cfg(), 2, MigrationMode::Lazy);
            // Thread 1 outgrows color 1 (128 frames): two fallbacks, color 1 full.
            mm.set_partition(1, one(1));
            for p in 0..130u64 {
                mm.translate(1, p << 12);
            }
            mm.set_partition(0, one(0));
            for p in 0..24u64 {
                mm.translate(0, p << 12);
            }
            // A failed move into the full color, a deferral, then lazy moves.
            mm.set_partition(0, one(1));
            mm.translate(0, 0);
            mm.set_partition(0, one(2));
            mm.refill_migration_budget(Some(0));
            mm.translate(0, 1 << 12);
            mm.refill_migration_budget(None);
            for p in 0..24u64 {
                mm.translate(0, p << 12);
            }
            // All 24 pages sit on color 2: growing to {2, 3} spreads them.
            mm.set_partition(0, ColorSet::from_iter([2u32, 3]));
            assert!(!mm.rebalance_thread(0).is_empty());
            // Conform moves thread 0 to color 4 and fails thread 1's fallbacks.
            mm.set_partition(0, one(4));
            mm.conform_all();
            let mut eager = MemoryManager::new(&cfg(), 1, MigrationMode::Eager);
            eager.set_partition(0, one(0));
            for p in 0..4u64 {
                eager.translate(0, p << 12);
            }
            assert_eq!(eager.set_partition(0, one(5)).len(), 4);
            [*mm.stats(), *eager.stats()]
        });

        let t = rec.snapshot();
        assert_eq!(t.dropped_events, 0);
        let events = |f: fn(&E) -> bool| t.events.iter().filter(|e| f(&e.kind)).count() as u64;
        let counted = |f: fn(&OsStats) -> u64| stats.iter().map(f).sum::<u64>();
        for (kind, emitted, counter) in [
            (
                "migration",
                events(|k| matches!(k, E::PageMigration { .. })),
                counted(|s| s.migrated_pages),
            ),
            (
                "failed",
                events(|k| matches!(k, E::MigrationFailed { .. })),
                counted(|s| s.failed_migrations),
            ),
            (
                "deferred",
                events(|k| matches!(k, E::MigrationDeferred { .. })),
                counted(|s| s.deferred_migrations),
            ),
            (
                "fallback",
                events(|k| matches!(k, E::FallbackAlloc { .. })),
                counted(|s| s.fallback_allocations),
            ),
        ] {
            assert!(counter > 0, "{kind}: path not exercised");
            assert_eq!(emitted, counter, "{kind}: events vs OsStats");
        }
        for cause in [C::Lazy, C::Eager, C::Rebalance, C::Conform] {
            let moved = t
                .events
                .iter()
                .any(|e| matches!(e.kind, E::PageMigration { cause: c, .. } if c == cause));
            assert!(moved, "no {cause:?} move");
        }
    }

    #[test]
    #[should_panic(expected = "at least one color")]
    fn empty_partition_panics() {
        let mut mm = MemoryManager::new(&cfg(), 1, MigrationMode::Lazy);
        mm.set_partition(0, ColorSet::empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use dbp_util::prop::{check, one_of, range, vec_of, BoxedGen, Config, Gen};
    use dbp_util::{prop_assert, prop_assert_eq};

    fn small_cfg() -> DramConfig {
        DramConfig { rows_per_bank: 64, ..DramConfig::default() }
    }

    /// No two (thread, page) mappings ever share a frame, across any
    /// interleaving of touches and repartitions.
    #[test]
    fn frames_are_never_aliased() {
        let script_gen = vec_of(
            one_of::<(usize, u64, bool)>(vec![
                (range(0usize..3), range(0u64..64)).map(|(t, v)| (t, v, false)).boxed()
                    as BoxedGen<(usize, u64, bool)>,
                (range(0usize..3), range(0u32..16)).map(|(t, c)| (t, u64::from(c), true)).boxed(),
            ]),
            1..80,
        );
        check(Config::cases(32), &script_gen, |script| {
            let mut mm = MemoryManager::new(&small_cfg(), 3, MigrationMode::Lazy);
            for (thread, arg, is_repartition) in script {
                if is_repartition {
                    let mut colors = ColorSet::from_iter([arg as u32]);
                    colors.insert((arg as u32 + 7) % 32);
                    mm.set_partition(thread, colors);
                } else {
                    mm.translate(thread, arg << 12);
                }
            }
            mm.conform_all();
            // Re-translate every resident page (stable now: partitions are
            // conformed) and assert every frame is globally unique.
            let mut seen = std::collections::HashSet::new();
            for t in 0..3 {
                for p in 0..64u64 {
                    let before = mm.resident_pages(t);
                    let tr = mm.translate(t, p << 12);
                    if tr.allocated {
                        // This page was not resident; undo bookkeeping is
                        // unnecessary, the fresh frame just joins the set.
                        prop_assert_eq!(mm.resident_pages(t), before + 1);
                    }
                    let frame = tr.pa >> 12;
                    prop_assert!(seen.insert((frame, ())), "frame {} aliased", frame);
                }
            }
            prop_assert_eq!(mm.stats().failed_migrations, 0);
            Ok(())
        });
    }

    /// Repartition + conform always reaches zero violations.
    #[test]
    fn conform_reaches_fixpoint() {
        let g = (vec_of((range(0usize..2), range(0u64..48)), 1..60), range(0u32..32));
        check(Config::cases(32), &g, |(touches, target_color)| {
            let mut mm = MemoryManager::new(&small_cfg(), 2, MigrationMode::Lazy);
            for (t, p) in touches {
                mm.translate(t, p << 12);
            }
            mm.set_partition(0, ColorSet::from_iter([target_color]));
            mm.set_partition(1, ColorSet::from_iter([(target_color + 1) % 32]));
            mm.refill_migration_budget(Some(3)); // budget must not block conform
            mm.conform_all();
            prop_assert_eq!(mm.pages_outside(0, &mm.partitions[0]), 0);
            prop_assert_eq!(mm.pages_outside(1, &mm.partitions[1]), 0);
            Ok(())
        });
    }
}
