//! Benchmark harness for the DBP reproduction.
//!
//! Every table and figure of the (reconstructed) evaluation is an entry
//! of the [`experiments::all`] registry; the experiment logic lives here
//! so the integration tests can smoke-run scaled-down versions of each.
//! The `bench_all` binary is the one front door: it runs the whole
//! registry — or just the experiments named on its command line — in one
//! process, which lets the [`engine`]'s run memo be shared across
//! experiments.
//!
//! `bench_all --quick` runs every experiment at a reduced instruction
//! target (useful for CI and smoke tests); the shapes survive, the noise
//! grows. Set `DBP_JOBS=n` to pin the worker count (`DBP_JOBS=1` forces
//! the serial reference path).
//!
//! ```no_run
//! // Regenerate Figure 4 (weighted speedup, DBP vs equal vs shared):
//! let eng = dbp_bench::engine::Engine::from_env();
//! let cfg = dbp_bench::harness::config_for(false);
//! println!("{}", dbp_bench::experiments::fig4_ws_dbp(&eng, &cfg));
//! ```

pub mod engine;
pub mod experiments;
pub mod harness;
pub mod pool;
