//! Dev tool: trace plan evolution for one mix/policy — every epoch's
//! profiles and plan are pretty-printed to stderr as they happen.
use dbp_core::policy::PolicyKind;
use dbp_obs::{Prof, Recorder, RecorderConfig};
use dbp_sim::{runner, SimConfig};
use dbp_workloads::mixes_4core;

fn main() {
    let cfg = SimConfig { policy: PolicyKind::Dbp(Default::default()), ..Default::default() };
    let idx: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let mix = &mixes_4core()[idx];
    let rec = Recorder::new(RecorderConfig { stderr_echo: true, ..Default::default() });
    let run = runner::run_shared_instrumented(&cfg, mix, rec, Prof::disabled());
    eprintln!("mig during measurement: {}", run.migrated_pages);
}
