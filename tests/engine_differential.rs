//! Engine differential: the windowed FR-FCFS controller against the
//! reference scheduler it replaced.
//!
//! The fast controller keeps per-entry hazard counters and skips the
//! scheduling pass inside quiet windows; the reference
//! (`DramSystem::with_mapping_reference`) rescans the queue for
//! same-address hazards and runs a full pass on every tick. Both are
//! driven with identical traffic — every memory preset × every fuzz
//! pattern × several seeds, the multi-channel host configuration, the
//! closed-page policy, the compiler-lowered programs, and each planted
//! timing bug — with the command log, tracing and the protocol checker on,
//! and must agree bit for bit on the command log, statistics, completion
//! stream, protocol violations and trace events.

use enmc::compiler::{
    estimate_candidate_program, lower_full_classification, lower_screening, MemoryLayout,
    TaskDescriptor,
};
use enmc::dram::fuzz::{FuzzRequest, InjectedBug, PatternKind};
use enmc::dram::{
    AddressMapping, Completion, DramConfig, DramStats, DramSystem, MemRequest, PagePolicy,
    ProtocolViolation, TimedCommand, Timing,
};
use enmc::isa::{Instruction, Program};
use enmc::mem::MemTech;
use enmc::obs::trace::TraceEvent;

const SEEDS: [u64; 3] = [1, 7, 2029];
const LEN: usize = 160;

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    completions: Vec<(u64, Completion)>,
    cycle: u64,
    stats: DramStats,
    channel_stats: Vec<DramStats>,
    log: Vec<Vec<TimedCommand>>,
    violations: Vec<ProtocolViolation>,
    violation_count: u64,
    trace: Vec<TraceEvent>,
}

/// Runs `reqs` (sorted by arrival) through `sys` until it is idle, with
/// the command log, tracing and a checker against `reference` timing on.
fn drive(mut sys: DramSystem, reqs: &[FuzzRequest], reference: Timing) -> Observed {
    sys.enable_command_log();
    sys.enable_trace(1 << 20);
    sys.enable_protocol_check_against(reference);
    let limit = reqs.last().map_or(0, |r| r.at) + 4000 * reqs.len() as u64 + 100_000;
    let mut completions = Vec::new();
    let mut next = 0;
    while next < reqs.len() || !sys.is_idle() {
        while next < reqs.len() && reqs[next].at <= sys.cycle() {
            let r = reqs[next];
            let req = if r.write {
                MemRequest::write(r.addr)
            } else {
                MemRequest::read(r.addr)
            };
            if sys.enqueue(req).is_none() {
                break; // queue full: tick and retry
            }
            next += 1;
        }
        sys.tick();
        let now = sys.cycle();
        completions.extend(sys.drain_completions().map(|c| (now, c)));
        assert!(sys.cycle() < limit, "controller stalled");
    }
    // Idle ticks past the drain: counters, idle cycles and refreshes must
    // keep agreeing while nothing is queued.
    for _ in 0..3000 {
        sys.tick();
    }
    Observed {
        completions,
        cycle: sys.cycle(),
        stats: sys.stats(),
        channel_stats: sys.channel_stats(),
        log: sys.take_command_log(),
        violations: sys.take_protocol_violations(),
        violation_count: sys.protocol_violation_count(),
        trace: sys.take_trace(),
    }
}

/// Diffs the fast and reference engines on `reqs` under `cfg` (which may
/// carry a planted bug) checked against `reference` timing.
fn assert_engines_agree(
    what: &str,
    cfg: DramConfig,
    mapping: AddressMapping,
    reqs: &[FuzzRequest],
    reference: Timing,
) -> Observed {
    let fast = drive(DramSystem::with_mapping(cfg, mapping), reqs, reference);
    let slow = drive(
        DramSystem::with_mapping_reference(cfg, mapping),
        reqs,
        reference,
    );
    assert_eq!(
        fast.completions.len(),
        reqs.len(),
        "{what}: not every request completed"
    );
    // Field by field first, so a failure names what diverged.
    assert_eq!(fast.log, slow.log, "{what}: command logs differ");
    assert_eq!(
        fast.completions, slow.completions,
        "{what}: completion streams differ"
    );
    assert_eq!(fast.stats, slow.stats, "{what}: statistics differ");
    assert_eq!(
        fast.violations, slow.violations,
        "{what}: protocol violations differ"
    );
    assert_eq!(fast.trace, slow.trace, "{what}: trace events differ");
    assert_eq!(fast, slow, "{what}: engines differ");
    fast
}

fn presets() -> impl Iterator<Item = (String, DramConfig)> {
    MemTech::ALL
        .into_iter()
        .map(|t| (t.name().to_string(), t.preset().single_rank_config()))
}

#[test]
fn fast_engine_matches_reference_on_every_preset_and_pattern() {
    for (name, cfg) in presets() {
        for pattern in PatternKind::ALL {
            for seed in SEEDS {
                let reqs = pattern.generate(seed, LEN, &cfg, AddressMapping::RoRaBaCoBg);
                let what = format!("{name} {} seed {seed}", pattern.name());
                let run =
                    assert_engines_agree(&what, cfg, AddressMapping::RoRaBaCoBg, &reqs, cfg.timing);
                assert_eq!(
                    run.violation_count, 0,
                    "{what}: nominal timing must conform"
                );
            }
        }
    }
}

#[test]
fn fast_engine_matches_reference_under_every_injected_bug() {
    for (name, cfg) in presets() {
        for bug in InjectedBug::ALL {
            let buggy = DramConfig {
                timing: bug.apply(cfg.timing),
                ..cfg
            };
            for pattern in PatternKind::ALL {
                let seed = SEEDS[0];
                let reqs = pattern.generate(seed, LEN, &cfg, AddressMapping::RoRaBaCoBg);
                let what = format!("{name} {} {} seed {seed}", bug.name(), pattern.name());
                assert_engines_agree(&what, buggy, AddressMapping::RoRaBaCoBg, &reqs, cfg.timing);
            }
        }
    }
}

#[test]
fn fast_engine_matches_reference_on_multichannel_and_closed_page() {
    let host = DramConfig::enmc_table3();
    let mut closed = DramConfig::enmc_single_rank();
    closed.page_policy = PagePolicy::Closed;
    for (name, cfg, mapping) in [
        ("table3 8ch", host, AddressMapping::RoBaRaCoCh),
        ("closed page", closed, AddressMapping::RoRaBaCoBg),
    ] {
        for pattern in PatternKind::ALL {
            for seed in SEEDS {
                let reqs = pattern.generate(seed, LEN, &cfg, mapping);
                let what = format!("{name} {} seed {seed}", pattern.name());
                assert_engines_agree(&what, cfg, mapping, &reqs, cfg.timing);
            }
        }
    }
}

/// The burst stream a compiled program puts on the bus: every `LDR` reads
/// and every `STR` writes one buffer fill, presented two instructions
/// per cycle.
fn program_traffic(program: &Program, buffer_bytes: usize) -> Vec<FuzzRequest> {
    let mut out = Vec::new();
    for (i, inst) in program.iter().enumerate() {
        let (addr, write) = match *inst {
            Instruction::Ldr { addr, .. } => (addr, false),
            Instruction::Str { addr, .. } => (addr, true),
            _ => continue,
        };
        for b in 0..(buffer_bytes / 64) as u64 {
            out.push(FuzzRequest {
                at: i as u64 / 2,
                addr: addr + b * 64,
                write,
            });
        }
    }
    out
}

#[test]
fn fast_engine_matches_reference_on_compiled_programs() {
    let task = TaskDescriptor::paper_default(2048, 256, 2);
    let layout = MemoryLayout::for_task(&task);
    // The runtime gather: one candidate program per scattered candidate.
    let mut gather = Program::new();
    for k in 0..48 {
        let one = estimate_candidate_program(&task, &layout, 256, k * 37 % task.categories);
        for inst in one.expect("compiles").iter() {
            gather.push(*inst);
        }
    }
    let programs = [
        (
            "screening",
            lower_screening(&task, &layout, 256).expect("compiles"),
        ),
        ("candidates", gather),
        (
            "full fp32",
            lower_full_classification(&task, &layout, 256, 1024).expect("compiles"),
        ),
    ];
    let cfg = DramConfig::enmc_single_rank();
    for (name, program) in &programs {
        let mut reqs = program_traffic(program, 256);
        reqs.truncate(4000);
        assert!(
            reqs.len() > 100,
            "{name}: program produced too little traffic"
        );
        assert_engines_agree(name, cfg, AddressMapping::RoRaBaCoBg, &reqs, cfg.timing);
    }
}
