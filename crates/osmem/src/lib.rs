//! OS physical-memory substrate: page-coloring allocation and migration.
//!
//! Bank partitioning is an OS/architecture co-design: the memory
//! controller never moves data between banks; instead the OS restricts
//! which physical frames a thread may receive, and the frame number
//! determines the (channel, rank, bank) — the frame's **color** — under
//! the page-coloring address layout (see `dbp_dram::MappingScheme`).
//!
//! This crate provides:
//!
//! - [`ColorSet`] — a set of colors a thread may allocate from.
//! - [`FrameAllocator`] — per-color free lists over the physical frames.
//! - [`PageTable`] — per-thread virtual-to-physical page maps.
//! - [`MemoryManager`] — the facade the simulator uses: translation with
//!   allocate-on-first-touch, partition updates, and **page migration**
//!   (eager at repartition time, or lazy on next touch) with the copied
//!   pages reported so the simulator can charge their DRAM traffic.
//!
//! # Example
//!
//! ```
//! use dbp_dram::DramConfig;
//! use dbp_osmem::{ColorSet, MemoryManager, MigrationMode};
//!
//! let cfg = DramConfig::default();
//! let mut mm = MemoryManager::new(&cfg, 2, MigrationMode::Lazy);
//! // Thread 0 confined to colors {0,1}; thread 1 gets the rest.
//! let n = mm.num_colors();
//! mm.set_partition(0, ColorSet::from_iter([0, 1]));
//! mm.set_partition(1, ColorSet::range(2, n));
//! let t = mm.translate(0, 0xdead_b000);
//! assert!(mm.mapper().frame_color(t.pa >> 12) < 2);
//! ```

pub mod allocator;
pub mod color_set;
pub mod manager;
pub mod page_table;

pub use allocator::FrameAllocator;
pub use color_set::ColorSet;
pub use manager::{MemoryManager, MigrationJob, MigrationMode, OsStats, Translation};
pub use page_table::PageTable;

/// Physical frame number.
pub type Frame = u64;
/// Virtual page number.
pub type Vpn = u64;
/// Thread (core) identifier.
pub type ThreadId = usize;
