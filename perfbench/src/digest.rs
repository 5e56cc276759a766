//! Exact digests of simulated outputs.
//!
//! Every repetition hashes what the program returned (cycle counts, DRAM
//! statistics, energy bits, quality scores, serving outcome counts); the
//! digest must repeat across repetitions, between the traced and the
//! untraced run, and — on [`crate::DEFAULT_SEED`] — match the value
//! pinned in `digests.txt`. A change that moves any simulated output
//! therefore fails the benchmark.

use enmc::arch::unit::UnitReport;
use enmc::arch::SystemEnergy;
use enmc::dram::DramStats;

/// FNV-1a over 64-bit words.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    pub fn dram(&mut self, s: &DramStats) -> &mut Self {
        for x in [
            s.reads,
            s.writes,
            s.activations,
            s.precharges,
            s.refreshes,
            s.row_hits,
            s.row_misses,
            s.row_conflicts,
            s.busy_cycles,
            s.idle_cycles,
            s.total_cycles,
        ] {
            self.u64(x);
        }
        for &x in &s.bank_group_accesses {
            self.u64(x);
        }
        self
    }

    pub fn unit(&mut self, r: &UnitReport) -> &mut Self {
        for x in [
            r.dram_cycles,
            r.screener_busy,
            r.executor_busy,
            r.sfu_cycles,
            r.screen_bytes,
            r.exact_bytes,
            r.spill_bytes,
            r.screen_done_cycle,
            r.exec_done_cycle,
            r.protocol_violations,
        ] {
            self.u64(x);
        }
        self.f64(r.ns).dram(&r.dram)
    }

    pub fn energy(&mut self, e: &SystemEnergy) -> &mut Self {
        self.f64(e.dram_static_nj)
            .f64(e.dram_access_nj)
            .f64(e.logic_nj)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The pinned digest of `workload` at the default seed, if any.
pub fn pinned(workload: &str) -> Option<u64> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let mut it = line.split_whitespace();
        if it.next()? != workload {
            return None;
        }
        u64::from_str_radix(it.next()?.trim_start_matches("0x"), 16).ok()
    })
}
