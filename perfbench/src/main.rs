//! Host-performance benchmark of the ENMC reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-stream|sim-gather|quality-eval|serve-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates the workload's inputs; the program only receives
//! them. An untraced run (`--trace 0`) sets the workload up several
//! times, then repeats its fixed unit of work for `--seconds` and prints
//! the end-to-end metrics. A traced run (`--trace 1`) also repeats the
//! work with spans around every call into a layer's public functions and
//! prints the per-layer metrics. Either way every output is checked, and
//! the last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod digest;
mod quality;
mod serving;
mod sim;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// The seed whose output digests are pinned in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Fewest repetitions a timed phase makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Every per-layer metric a traced run prints, with its unit. A layer the
/// workload never calls reads 0 (no calls, no time).
const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.matvec_f32.gops", "GOP/s"),
    ("tensor.matvec_f32.gbs", "GB/s"),
    ("tensor.matvec_int4.gops", "GOP/s"),
    ("tensor.matvec_int4.gbs", "GB/s"),
    ("tensor.cpu_roofline_gbs", "GB/s"),
    ("tensor.topk.calls_per_s", "1/s"),
    ("model.synth_s", "s"),
    ("screen.distill_s", "s"),
    ("screen.classify_p50_us", "us"),
    ("screen.classify_tail_us", "us"),
    ("screen.classify_tail_pct", "%"),
    ("screen.classify_samples", "count"),
    ("screen.screen_share", "share"),
    ("quality.queries", "count"),
    ("dram.cmds_per_cycle", "1/cycle"),
    ("dram.row_hit_rate", "share"),
    ("dram.bus_util", "share"),
    ("dram.replay_ns_per_cmd", "ns"),
    ("dram.checker_share", "share"),
    ("dram.cycles", "count"),
    ("dram.commands", "count"),
    ("dram.reads", "count"),
    ("dram.activations", "count"),
    ("dram.row_hits", "count"),
    ("arch.rank_sim_s", "s"),
    ("arch.rank_ns_per_cmd", "ns"),
    ("par.speedup", "x"),
    ("par.shards", "count"),
    ("par.unique_slices", "count"),
    ("par.straggler_share", "share"),
    ("surrogate.fit_s", "s"),
    ("surrogate.fit_anchors", "count"),
    ("surrogate.predict_per_s", "1/s"),
    ("surrogate.predicted", "count"),
    ("surrogate.audited", "count"),
    ("surrogate.max_rel_err", "share"),
    ("serve.loop_s", "s"),
    ("serve.requests_per_s", "1/s"),
    ("serve.requests", "count"),
    ("serve.batches", "count"),
    ("fleet.loop_s", "s"),
    ("fleet.requests_per_s", "1/s"),
    ("fleet.requests", "count"),
    ("fleet.batches", "count"),
    ("fleet.network_share", "share"),
    ("trace.overhead", "share"),
    ("trace.spans", "count"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed, counted against each other.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one checked operation; `ok == false` is a failure, named on
    /// standard error.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Checks every repetition's digest against the first one's and, on
    /// the default seed, against the pinned value; returns the first.
    pub fn digests(&mut self, args: &Args, digests: &[u64], what: &str) -> u64 {
        let reference = digests[0];
        let pinned = digest::pinned(&args.workload);
        for &got in digests {
            self.op(got == reference, || {
                format!("{what}: digest {got:#018x} != {reference:#018x}")
            });
            if args.seed == DEFAULT_SEED {
                self.op(pinned == Some(got), || {
                    format!("{what}: digest {got:#018x} != pinned {pinned:#018x?}")
                });
            }
        }
        reference
    }
}

/// One metric as printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// What an untraced run measured.
pub struct Timed {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each repetition of the timed unit of work.
    pub rep_s: Vec<f64>,
    /// Work units in one repetition (simulated Mcycles, queries or
    /// requests).
    pub work_per_rep: f64,
    /// Peak live heap over the first set-up and one repetition, in MiB.
    pub peak_heap_mib: f64,
}

/// The untraced protocol every workload shares: set up, run one untimed
/// repetition (which also warms caches) with the heap counted, then
/// repeat for `--seconds` a cycle of one timed repetition on that state
/// followed by one timed set-up, which is thrown away. Set-ups and
/// repetitions thus sample the same stretch of host time, so drift hits
/// `setup_s` and `run_s` alike. Every repetition's output goes through
/// `keep` once its clock stops; returns the timings with everything
/// `keep` returned, the untimed repetition's first.
pub fn measure<S, T, U>(
    args: &Args,
    checks: &mut Checks,
    mut setup: impl FnMut(&mut Checks) -> S,
    mut rep: impl FnMut(&mut S) -> T,
    mut keep: impl FnMut(T, &mut Checks) -> U,
) -> (Timed, Vec<U>) {
    let (dt, mut state) = time(|| setup(checks));
    let mut setup_s = vec![dt];
    let first = rep(&mut state);
    let peak_heap_mib = stop_heap_count();
    let mut kept = vec![keep(first, checks)];
    let reps = repeat(
        args.seconds,
        |_| rep(&mut state),
        |v| {
            let kept = keep(v, checks);
            let (dt, fresh) = time(|| setup(checks));
            drop(fresh);
            setup_s.push(dt);
            kept
        },
    );
    let rep_s = reps.iter().map(|(dt, _)| *dt).collect();
    kept.extend(reps.into_iter().map(|(_, u)| u));
    let timed = Timed {
        setup_s,
        rep_s,
        work_per_rep: 0.0,
        peak_heap_mib,
    };
    (timed, kept)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Repetitions: host seconds of each, with what was kept of its output.
pub type Reps<U> = Vec<(f64, U)>;

/// Runs `rep` back to back until another repetition would overrun
/// `seconds` (at least [`MIN_REPS`] times). Each output goes through
/// `keep` after its repetition's clock stops, so checking and digesting
/// are not timed and large outputs need not be held; returns each
/// repetition's host seconds with what `keep` returned.
pub fn repeat<T, U>(
    seconds: f64,
    mut rep: impl FnMut(u32) -> T,
    mut keep: impl FnMut(T) -> U,
) -> Reps<U> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        let v = rep(out.len() as u32);
        let dt = t.elapsed().as_secs_f64();
        out.push((dt, keep(v)));
        let cycle = t.elapsed().as_secs_f64();
        if out.len() >= MIN_REPS && start.elapsed().as_secs_f64() + cycle > seconds {
            return out;
        }
    }
}

/// The timed phase of a traced run: repetitions alternate untraced
/// (even) and traced (odd, inside a `rep` span tagged with the
/// repetition as run id) for `seconds`, so host drift hits both halves
/// alike. Returns the untraced and the traced repetitions.
pub fn alternate<T, U>(
    seconds: f64,
    tracer: &mut trace::Tracer,
    mut rep: impl FnMut(&mut trace::Tracer) -> T,
    keep: impl FnMut(T) -> U,
) -> (Reps<U>, Reps<U>) {
    let mut off = trace::Tracer::new(false);
    let reps = repeat(
        seconds,
        |i| {
            if i % 2 == 0 {
                return rep(&mut off);
            }
            tracer.set_run(i);
            let out = tracer.span("rep", &mut rep);
            tracer.set_run(0);
            out
        },
        keep,
    );
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for (i, r) in reps.into_iter().enumerate() {
        if i % 2 == 0 {
            plain.push(r);
        } else {
            traced.push(r);
        }
    }
    (plain, traced)
}

/// Seconds a closure takes, with its output.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

/// SplitMix64: the benchmark's input generator.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The system allocator, counting live heap bytes and their peak until
/// [`stop_heap_count`], so that `peak_heap_mib` is exact rather than
/// page-granular like resident memory. Afterwards each call pays one
/// relaxed load.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(true);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    fn grew(by: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
    }

    fn shrank(by: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(by, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::shrank(layout.size());
            Self::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Stops heap counting and returns the peak live heap so far, in MiB.
fn stop_heap_count() -> f64 {
    COUNTING.store(false, Ordering::Relaxed);
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

fn run(args: &Args, checks: &mut Checks) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let known = ["sim-stream", "sim-gather", "quality-eval", "serve-fleet"];
    if !known.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}'; try: {}",
            args.workload,
            known.join(" ")
        ));
    }
    if !args.trace {
        let timed = match args.workload.as_str() {
            "sim-stream" => sim::untraced(&sim::STREAM, args, checks),
            "sim-gather" => sim::untraced(&sim::GATHER, args, checks),
            "quality-eval" => quality::untraced(args, checks),
            _ => serving::untraced(args, checks),
        };
        let run_s = median(&timed.rep_s);
        eprintln!(
            "{}: setup {:?} s, reps {:?} s",
            args.workload, timed.setup_s, timed.rep_s
        );
        return Ok(vec![
            ("setup_s", median(&timed.setup_s), "s"),
            ("run_s", run_s, "s"),
            ("work_per_s", timed.work_per_rep / run_s, "1/s"),
            ("peak_heap_mib", timed.peak_heap_mib, "MiB"),
        ]);
    }
    let mut tracer = trace::Tracer::new(true);
    let measured = match args.workload.as_str() {
        "sim-stream" => sim::traced(&sim::STREAM, args, checks, &mut tracer),
        "sim-gather" => sim::traced(&sim::GATHER, args, checks, &mut tracer),
        "quality-eval" => quality::traced(args, checks, &mut tracer),
        _ => serving::traced(args, checks, &mut tracer),
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    tracer
        .write_json(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    for (name, t) in tracer.totals() {
        eprintln!(
            "  {name:<44} {:>8} call(s) {:>12.6} s total {:>12.6} s self",
            t.calls,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for m in &measured {
        checks.op(PER_LAYER.iter().any(|(n, _)| *n == m.name), || {
            format!("metric {} is not in the per-layer list", m.name)
        });
    }
    for &(name, unit) in PER_LAYER {
        let value = match name {
            "trace.spans" => tracer.len() as f64,
            _ => measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value),
        };
        out.push((name, value, unit));
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: enmc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = match run(&args, &mut checks) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        checks.op(value.is_finite(), || {
            format!("metric {name} is not finite ({value})")
        });
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}
