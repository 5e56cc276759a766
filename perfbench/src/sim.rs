//! `sim-stream` and `sim-gather`: cycle-level ENMC simulation.
//!
//! `sim-stream` is the `enmc simulate` path: the representative rank of
//! every shape, protocol checker on, one thread, 5% candidates at batch 1
//! — dominated by the INT4 screening stream. `sim-gather` is the
//! `enmc simulate --threads 2` path at 20% candidates and batch 4: every
//! rank's slice simulated on two workers, dominated by random FP32
//! candidate-row gathers.

use crate::digest::Digest;
use crate::trace::Tracer;
use crate::{alternate, measure, median, mix, time, Args, Checks, Metric, Timed};
use enmc::arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc::arch::unit::{RankJob, RankUnit, UnitReport};
use enmc::arch::SystemEnergy;
use enmc::dram::{AddressMapping, DramConfig, DramStats, DramSystem, MemRequest};
use enmc::model::workloads::WorkloadId;
use enmc::par::SimConfig;

/// One simulation workload.
pub struct SimWorkload {
    /// Shapes simulated in one repetition, in order.
    shapes: &'static [WorkloadId],
    /// Shapes of the set-up's checked warm-up pass (at batch 1).
    warmup: &'static [WorkloadId],
    /// Exact-candidate fraction of the categories.
    fraction: f64,
    batch: usize,
    /// `None`: representative rank (`run_checked`); `Some(n)`: every rank
    /// (`run_sharded` on `n` workers).
    workers: Option<usize>,
    /// Address pattern of the DRAM replay probe.
    pattern: Pattern,
}

#[derive(Clone, Copy)]
enum Pattern {
    /// Consecutive 64-byte bursts: the screening weight stream.
    Sequential,
    /// Whole classifier rows at random row indices: the candidate gather.
    RandomRows,
}

use WorkloadId::*;

pub const STREAM: SimWorkload = SimWorkload {
    shapes: &[LstmW33K, TransformerW268K, GnmtE32K, Xmlcnn670K, S1M, S10M],
    warmup: &[LstmW33K, TransformerW268K, GnmtE32K, Xmlcnn670K, S1M],
    fraction: 0.05,
    batch: 1,
    workers: None,
    pattern: Pattern::Sequential,
};

pub const GATHER: SimWorkload = SimWorkload {
    shapes: &[TransformerW268K],
    warmup: &[TransformerW268K],
    fraction: 0.20,
    batch: 4,
    workers: Some(2),
    pattern: Pattern::RandomRows,
};

/// Checker-on/checker-off pairs the traced run times.
const CHECKER_PAIRS: usize = 3;

/// Requests the DRAM replay probe issues.
const REPLAY_REQUESTS: usize = 200_000;

/// The seeded jobs: each shape's candidate count is the workload's
/// fraction of its categories plus a seed-drawn 0–15 extra rows.
fn make_jobs(
    wl: &SimWorkload,
    shapes: &[WorkloadId],
    batch: usize,
    seed: u64,
) -> Vec<ClassificationJob> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let w = id.workload();
            let base = (w.categories as f64 * wl.fraction).round() as usize;
            ClassificationJob {
                categories: w.categories,
                hidden: w.hidden,
                reduced: (w.hidden / 4).max(1),
                batch,
                candidates: base + (mix(seed, i as u64) % 16) as usize,
            }
        })
        .collect()
}

/// What one simulated job returned.
struct SimOut {
    report: UnitReport,
    energy: SystemEnergy,
    /// Per-rank DRAM statistics (one entry for the representative rank).
    shard_dram: Vec<DramStats>,
}

fn simulate(
    sys: &SystemModel,
    job: &ClassificationJob,
    check: bool,
    workers: Option<usize>,
) -> SimOut {
    let (result, shard_dram) = match workers {
        None => {
            let r = sys.run_checked(job, Scheme::Enmc, None, check);
            let dram = r
                .rank_report
                .as_ref()
                .map(|u| vec![u.dram])
                .unwrap_or_default();
            (r, dram)
        }
        Some(n) => {
            let mut cfg = SimConfig::with_threads(n);
            if check {
                cfg = cfg.with_protocol_check();
            }
            let run = sys.run_sharded(job, Scheme::Enmc, &cfg);
            (run.result, run.shard_dram)
        }
    };
    SimOut {
        report: result.rank_report.expect("ENMC runs are cycle-simulated"),
        energy: result.energy.expect("ENMC runs report energy"),
        shard_dram,
    }
}

/// Checks every job's output of one pass and digests them.
fn pass_digest(wl: &SimWorkload, ranks: usize, outs: &[SimOut], checks: &mut Checks) -> u64 {
    let shards = if wl.workers.is_some() { ranks } else { 1 };
    let mut d = Digest::new();
    for out in outs {
        checks.op(
            out.report.protocol_violations == 0
                && out.report.dram_cycles > 0
                && out.shard_dram.len() == shards,
            || {
                format!(
                    "simulation: {} protocol violation(s), {} cycle(s), {} shard(s)",
                    out.report.protocol_violations,
                    out.report.dram_cycles,
                    out.shard_dram.len()
                )
            },
        );
        d.unit(&out.report).energy(&out.energy);
        for s in &out.shard_dram {
            d.dram(s);
        }
    }
    d.finish()
}

/// Builds the system model and the seeded jobs, and first simulates the
/// warm-up shapes at batch 1 with the checker on, failing the run early
/// if one does not simulate clean. The warm-up runs the same simulator as
/// a repetition, so `setup_s` moves with the cycle engine as `run_s` does.
fn setup(
    wl: &SimWorkload,
    seed: u64,
    checks: &mut Checks,
) -> (SystemModel, Vec<ClassificationJob>) {
    let sys = SystemModel::table3();
    let warm: Vec<SimOut> = make_jobs(wl, wl.warmup, 1, seed)
        .iter()
        .map(|job| simulate(&sys, job, true, wl.workers))
        .collect();
    pass_digest(wl, sys.total_ranks, &warm, checks);
    (sys, make_jobs(wl, wl.shapes, wl.batch, seed))
}

fn simulated_mcycles(outs: &[SimOut]) -> f64 {
    outs.iter()
        .map(|o| o.shard_dram.iter().map(|s| s.total_cycles).sum::<u64>())
        .sum::<u64>() as f64
        / 1e6
}

pub fn untraced(wl: &SimWorkload, args: &Args, checks: &mut Checks) -> Timed {
    let ranks = SystemModel::table3().total_ranks;
    let (mut timed, kept) = measure(
        args,
        checks,
        |checks| setup(wl, args.seed, checks),
        |(sys, jobs)| {
            jobs.iter()
                .map(|j| simulate(sys, j, true, wl.workers))
                .collect::<Vec<_>>()
        },
        |outs, checks| {
            (
                pass_digest(wl, ranks, &outs, checks),
                simulated_mcycles(&outs),
            )
        },
    );
    let digests: Vec<u64> = kept.iter().map(|&(d, _)| d).collect();
    checks.digests(args, &digests, "simulation pass");
    timed.work_per_rep = kept[0].1;
    timed
}

fn commands(s: &DramStats) -> u64 {
    s.reads + s.writes + s.activations + s.precharges + s.refreshes
}

/// Drives the DRAM controller directly with the workload's address
/// pattern, keeping at most `inflight` requests outstanding as the rank
/// unit's fetchers do; returns host seconds and the resulting statistics.
fn replay(
    cfg: DramConfig,
    pattern: Pattern,
    row_bytes: u64,
    inflight: u64,
    seed: u64,
) -> (f64, DramStats) {
    let bursts_per_row = row_bytes.div_ceil(64);
    let rows = 4096u64;
    let addr = |i: u64| match pattern {
        Pattern::Sequential => i * 64,
        Pattern::RandomRows => {
            let row = mix(seed, i / bursts_per_row) % rows;
            row * row_bytes + (i % bursts_per_row) * 64
        }
    };
    let mut dram = DramSystem::with_mapping(cfg, AddressMapping::RoRaBaCoBg);
    let n = REPLAY_REQUESTS as u64;
    let (dt, ()) = time(|| {
        let (mut next, mut done) = (0u64, 0u64);
        while done < n {
            while next < n
                && next - done < inflight
                && dram.enqueue(MemRequest::read(addr(next))).is_some()
            {
                next += 1;
            }
            dram.tick();
            done += dram.drain_completions().len() as u64;
        }
    });
    (dt, dram.stats())
}

pub fn traced(
    wl: &SimWorkload,
    args: &Args,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let (sys, jobs) = tracer.span("setup", |_| setup(wl, args.seed, checks));
    let pass_digest =
        |outs: &[SimOut], checks: &mut Checks| pass_digest(wl, sys.total_ranks, outs, checks);
    let call = if wl.workers.is_some() {
        "arch.SystemModel::run_sharded"
    } else {
        "arch.SystemModel::run_checked"
    };
    let (plain, traced) = alternate(
        args.seconds,
        tracer,
        |t| {
            jobs.iter()
                .map(|j| t.span(call, |_| simulate(&sys, j, true, wl.workers)))
                .collect::<Vec<_>>()
        },
        |outs| outs,
    );
    let digests: Vec<u64> = plain
        .iter()
        .chain(&traced)
        .map(|(_, o)| pass_digest(o, checks))
        .collect();
    let reference = checks.digests(args, &digests, "simulation pass");
    let plain_s = median(&plain.iter().map(|(dt, _)| *dt).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|(dt, _)| *dt).collect::<Vec<_>>());
    let outs = &traced[0].1;

    let mut total = DramStats::default();
    for o in outs {
        for s in &o.shard_dram {
            total.merge_sequential(s);
        }
    }
    // Checker cost: the warm-up jobs with the checker on and off,
    // alternated so host drift hits both sides alike.
    let warm = make_jobs(wl, wl.warmup, 1, args.seed);
    let mut warm_reference = None;
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    tracer.span("probe.checker", |t| {
        for _ in 0..CHECKER_PAIRS {
            for (check, times) in [(true, &mut on_s), (false, &mut off_s)] {
                let (dt, outs) = time(|| {
                    warm.iter()
                        .map(|j| t.span(call, |_| simulate(&sys, j, check, wl.workers)))
                        .collect::<Vec<_>>()
                });
                times.push(dt);
                let d = pass_digest(&outs, checks);
                let r = *warm_reference.get_or_insert(d);
                checks.op(d == r, || {
                    format!("checker {check}: warm-up digest {d:#x} != {r:#x}")
                });
            }
        }
    });
    let checker_share = 1.0 - median(&off_s) / median(&on_s);

    // Outstanding requests as the rank unit's fetchers allow them: the
    // screen stream prefetches whole tiles, the gather four rows.
    let params = sys.enmc_unit_params();
    let row_bytes = jobs[0].hidden as u64 * 4;
    let inflight = match wl.pattern {
        Pattern::Sequential => {
            ((params.prefetch_depth + 1) * (params.buffer_bytes / 64).max(1)) as u64
        }
        Pattern::RandomRows => 4 * row_bytes.div_ceil(64),
    };
    let (replay_s, replay_stats) = tracer.span("dram.DramSystem::replay", |_| {
        replay(
            sys.memory().single_rank_config(),
            wl.pattern,
            row_bytes,
            inflight,
            args.seed,
        )
    });
    checks.op(replay_stats.reads == REPLAY_REQUESTS as u64, || {
        format!(
            "replay read {} of {REPLAY_REQUESTS} requests",
            replay_stats.reads
        )
    });
    let replay_ns_per_cmd = replay_s * 1e9 / commands(&replay_stats) as f64;

    let mut m = vec![
        Metric {
            name: "dram.cmds_per_cycle",
            value: commands(&total) as f64 / total.total_cycles as f64,
        },
        Metric {
            name: "dram.row_hit_rate",
            value: total.row_hit_rate(),
        },
        Metric {
            name: "dram.bus_util",
            value: total.busy_cycles as f64 / total.total_cycles as f64,
        },
        Metric {
            name: "dram.replay_ns_per_cmd",
            value: replay_ns_per_cmd,
        },
        Metric {
            name: "dram.checker_share",
            value: checker_share,
        },
        Metric {
            name: "dram.cycles",
            value: total.total_cycles as f64,
        },
        Metric {
            name: "dram.commands",
            value: commands(&total) as f64,
        },
        Metric {
            name: "dram.reads",
            value: total.reads as f64,
        },
        Metric {
            name: "dram.activations",
            value: total.activations as f64,
        },
        Metric {
            name: "dram.row_hits",
            value: total.row_hits as f64,
        },
        Metric {
            name: "trace.overhead",
            value: traced_s / plain_s - 1.0,
        },
    ];

    match wl.workers {
        None => {
            m.push(Metric {
                name: "arch.rank_sim_s",
                value: traced_s,
            });
            m.push(Metric {
                name: "arch.rank_ns_per_cmd",
                value: traced_s * 1e9 / commands(&total) as f64,
            });
        }
        Some(workers) => {
            // Sequential-equivalent cost: one worker, then each distinct
            // rank slice alone (ranks sharing a slice simulate it once).
            let (one_s, one) = tracer.span("probe.one_worker", |t| {
                time(|| {
                    jobs.iter()
                        .map(|j| t.span(call, |_| simulate(&sys, j, true, Some(1))))
                        .collect::<Vec<_>>()
                })
            });
            let one_digest = pass_digest(&one, checks);
            checks.op(one_digest == reference, || {
                format!("1 and {workers} workers disagree")
            });
            let mut unique: Vec<RankJob> = Vec::new();
            for j in &jobs {
                for rj in j.rank_jobs(sys.total_ranks) {
                    if !unique.contains(&rj) {
                        unique.push(rj);
                    }
                }
            }
            let unit = RankUnit::new(params);
            let mut slice_s = Vec::new();
            let mut slice_stats = DramStats::default();
            for rj in &unique {
                let (dt, r) = tracer.span("arch.RankUnit::simulate_checked", |_| {
                    time(|| unit.simulate_checked(rj, None, true))
                });
                checks.op(r.protocol_violations == 0, || {
                    "rank slice violated protocol".into()
                });
                slice_s.push(dt);
                slice_stats.merge_sequential(&r.dram);
            }
            let sum: f64 = slice_s.iter().sum();
            let max = slice_s.iter().copied().fold(0.0, f64::max);
            let shards: usize = jobs
                .iter()
                .map(|j| j.rank_jobs(sys.total_ranks).len())
                .sum();
            m.push(Metric {
                name: "arch.rank_sim_s",
                value: sum,
            });
            m.push(Metric {
                name: "arch.rank_ns_per_cmd",
                value: sum * 1e9 / commands(&slice_stats) as f64,
            });
            m.push(Metric {
                name: "par.speedup",
                value: one_s / traced_s,
            });
            m.push(Metric {
                name: "par.shards",
                value: shards as f64,
            });
            m.push(Metric {
                name: "par.unique_slices",
                value: unique.len() as f64,
            });
            m.push(Metric {
                name: "par.straggler_share",
                value: max / sum,
            });
        }
    }
    m
}
