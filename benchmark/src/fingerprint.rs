//! `sim_fingerprint`: FNV-1a over the bits of every [`RunResult`] field.
//!
//! A change that claims "speed only" must leave every simulated statistic
//! identical; comparing two fingerprints shows that without diffing
//! tables. The structs are destructured without `..`, so a field added
//! to `RunResult` fails to compile here instead of silently escaping.

use dbp_sim::{DramActivity, RunResult, ThreadResult};

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold one run into the hash.
    pub fn run(&mut self, r: &RunResult) {
        let RunResult {
            threads,
            total_cycles,
            dram,
            reached_target,
            row_hit_rate,
            bus_utilisation,
            accesses_per_activate,
            bank_imbalance,
            migrated_pages,
            migration_requests,
            repartitions,
            fallback_allocations,
        } = r;
        self.u64(threads.len() as u64);
        for t in threads {
            let ThreadResult {
                ipc,
                cycles_to_target,
                reached_target,
                mpki,
                rbl,
                blp,
                avg_read_latency,
                reads,
            } = t;
            self.f64(*ipc);
            self.u64(*cycles_to_target);
            self.u64(u64::from(*reached_target));
            self.f64(*mpki);
            self.f64(*rbl);
            self.f64(*blp);
            self.f64(*avg_read_latency);
            self.u64(*reads);
        }
        self.u64(*total_cycles);
        let DramActivity { activates, reads, writes, refreshes, elapsed } = dram;
        for v in [activates, reads, writes, refreshes, elapsed] {
            self.u64(*v);
        }
        self.u64(u64::from(*reached_target));
        for v in [row_hit_rate, bus_utilisation, accesses_per_activate, bank_imbalance] {
            self.f64(*v);
        }
        for v in [migrated_pages, migration_requests, repartitions, fallback_allocations] {
            self.u64(*v);
        }
    }

    /// Fold a bare float (the alone-run IPCs of a grid) into the hash.
    pub fn float(&mut self, v: f64) {
        self.f64(v);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of_runs<'a>(runs: impl IntoIterator<Item = &'a RunResult>) -> u64 {
        let mut h = Fnv::default();
        for r in runs {
            h.run(r);
        }
        h.finish()
    }

    fn sample() -> RunResult {
        RunResult {
            threads: vec![ThreadResult {
                ipc: 1.25,
                cycles_to_target: 800,
                reached_target: true,
                mpki: 12.0,
                rbl: 0.5,
                blp: 2.0,
                avg_read_latency: 90.0,
                reads: 77,
            }],
            total_cycles: 1000,
            dram: DramActivity { activates: 1, reads: 2, writes: 3, refreshes: 4, elapsed: 5 },
            reached_target: true,
            row_hit_rate: 0.25,
            bus_utilisation: 0.125,
            accesses_per_activate: 3.0,
            bank_imbalance: 0.75,
            migrated_pages: 6,
            migration_requests: 7,
            repartitions: 8,
            fallback_allocations: 9,
        }
    }

    #[test]
    fn every_field_moves_the_fingerprint() {
        let base = of_runs([&sample()]);
        assert_eq!(base, of_runs([&sample()]), "deterministic");
        let edits: Vec<fn(&mut RunResult)> = vec![
            |r| r.threads[0].ipc += 1e-12,
            |r| r.threads[0].cycles_to_target += 1,
            |r| r.threads[0].reached_target = false,
            |r| r.threads[0].mpki += 1e-9,
            |r| r.threads[0].rbl += 1e-9,
            |r| r.threads[0].blp += 1e-9,
            |r| r.threads[0].avg_read_latency += 1e-9,
            |r| r.threads[0].reads += 1,
            |r| r.threads.push(r.threads[0]),
            |r| r.total_cycles += 1,
            |r| r.dram.activates += 1,
            |r| r.dram.reads += 1,
            |r| r.dram.writes += 1,
            |r| r.dram.refreshes += 1,
            |r| r.dram.elapsed += 1,
            |r| r.reached_target = false,
            |r| r.row_hit_rate += 1e-12,
            |r| r.bus_utilisation += 1e-12,
            |r| r.accesses_per_activate += 1e-12,
            |r| r.bank_imbalance += 1e-12,
            |r| r.migrated_pages += 1,
            |r| r.migration_requests += 1,
            |r| r.repartitions += 1,
            |r| r.fallback_allocations += 1,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut r = sample();
            edit(&mut r);
            assert_ne!(of_runs([&r]), base, "edit #{i} left the fingerprint unchanged");
        }
    }

    #[test]
    fn order_of_runs_matters() {
        let a = sample();
        let mut b = sample();
        b.total_cycles = 2000;
        assert_ne!(of_runs([&a, &b]), of_runs([&b, &a]));
    }
}
