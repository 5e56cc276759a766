//! `quality-eval`: algorithm-level quality evaluation, no DRAM simulation.
//!
//! Set-up synthesizes and distills the four Table 2 evaluation pipelines
//! at their evaluation shapes; one repetition is
//! `Pipeline::evaluate_quality_with` in sequential mode over a fixed
//! query count on each. All host time goes to `enmc-tensor` kernels and
//! `enmc-screen`.

use crate::digest::Digest;
use crate::trace::Tracer;
use crate::{alternate, measure, median, mix, Args, Checks, Metric, Timed};
use enmc::model::quality::QualityReport;
use enmc::par::SimConfig;
use enmc::pipeline::{Pipeline, PipelineConfig};
use enmc::tensor::{top_k_indices, QuantVector};

/// Evaluation shapes `(categories, hidden, exact-candidate fraction)` of
/// LSTM-W33K, Transformer-W268K, GNMT-E32K and XMLCNN-670K: the Table 2
/// shapes capped to 4000–6000 × 192–256, with the candidate fractions
/// the paper's Fig. 11 speedups imply.
const SHAPES: [(usize, usize, f64); 4] = [
    (4000, 256, 0.144),
    (5500, 224, 0.128),
    (4500, 240, 0.054),
    (6000, 192, 0.020),
];

/// Queries each pipeline evaluates per repetition.
const QUERIES: usize = 320;

/// Queries each pipeline runs through the probes of a traced run: 1280
/// in all, so the classify tail is read at p99.
const PROBE_QUERIES: usize = 320;

fn configs(seed: u64) -> Vec<PipelineConfig> {
    SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(l, d, f))| PipelineConfig {
            categories: l,
            hidden: d,
            candidates: (l as f64 * f).round() as usize,
            seed: mix(seed, 100 + i as u64),
            ..Default::default()
        })
        .collect()
}

fn build_all(seed: u64, t: &mut Tracer) -> Vec<Pipeline> {
    configs(seed)
        .iter()
        .map(|c| {
            t.span("pipeline.Pipeline::build", |_| {
                Pipeline::build(c).expect("evaluation shapes are valid")
            })
        })
        .collect()
}

fn check_report(r: &QualityReport, d: &mut Digest, checks: &mut Checks) {
    checks.op(
        r.queries == QUERIES
            && (0.0..=1.0).contains(&r.top1_agreement)
            && (0.0..=1.0).contains(&r.precision_at_k)
            && r.perplexity_full.is_finite()
            && r.perplexity_approx.is_finite()
            && r.perplexity_full > 0.0,
        || format!("quality report out of range: {r:?}"),
    );
    d.u64(r.queries as u64)
        .u64(r.k as u64)
        .f64(r.top1_agreement)
        .f64(r.precision_at_k)
        .f64(r.perplexity_full)
        .f64(r.perplexity_approx);
}

fn rep_digest(reports: &[QualityReport], checks: &mut Checks) -> u64 {
    let mut d = Digest::new();
    for r in reports {
        check_report(r, &mut d, checks);
    }
    d.finish()
}

fn evaluate(pipelines: &mut [Pipeline], t: &mut Tracer) -> Vec<QualityReport> {
    pipelines
        .iter_mut()
        .map(|p| {
            t.span("pipeline.Pipeline::evaluate_quality_with", |_| {
                p.evaluate_quality_with(QUERIES, &SimConfig::sequential())
            })
        })
        .collect()
}

/// Host seconds of the named build phase, summed over the pipelines.
fn build_phase_s(pipelines: &[Pipeline], phase: &str) -> f64 {
    pipelines
        .iter()
        .flat_map(|p| p.build_phases())
        .filter(|s| s.name == phase)
        .map(|s| s.wall_ns / 1e9)
        .sum()
}

pub fn untraced(args: &Args, checks: &mut Checks) -> Timed {
    let (mut timed, kept) = measure(
        args,
        checks,
        |_| build_all(args.seed, &mut Tracer::new(false)),
        |pipelines| evaluate(pipelines, &mut Tracer::new(false)),
        |reports, checks| rep_digest(&reports, checks),
    );
    checks.digests(args, &kept, "quality pass");
    timed.work_per_rep = (QUERIES * SHAPES.len()) as f64;
    timed
}

/// The highest of the usual percentiles with at least ten samples beyond
/// it, and its nearest-rank value.
fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let pct = [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, nearest_rank(sorted, pct))
}

fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn traced(args: &Args, checks: &mut Checks, tracer: &mut Tracer) -> Vec<Metric> {
    let mut pipelines = tracer.span("setup", |t| build_all(args.seed, t));
    let (plain, traced) = alternate(args.seconds, tracer, |t| evaluate(&mut pipelines, t), |r| r);
    let digests: Vec<u64> = plain
        .iter()
        .chain(&traced)
        .map(|(_, r)| rep_digest(r, checks))
        .collect();
    checks.digests(args, &digests, "quality pass");
    let plain_s = median(&plain.iter().map(|(dt, _)| *dt).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|(dt, _)| *dt).collect::<Vec<_>>());

    // Probes on each pipeline's own classifier, with fresh seeded
    // queries: every layer call of one query runs in the same loop, so
    // the screen and classify times share cache state and queries.
    let (mut f32_ops, mut f32_bytes, mut i4_ops, mut i4_bytes) = (0.0, 0.0, 0.0, 0.0);
    tracer.span("probe.kernels", |t| {
        for (i, p) in pipelines.iter().enumerate() {
            let (synth, classifier) = (p.synth(), p.classifier());
            let cfg = p.config();
            let (l, d) = (cfg.categories, cfg.hidden);
            let screener = classifier.screener();
            let k = screener.reduced_dim();
            let qm = screener.quant_weights().expect("frozen INT4 screener");
            let policy = classifier.policy();
            for q in &synth.sample_queries_seeded(PROBE_QUERIES, mix(args.seed, 500 + i as u64)) {
                let h = &q.hidden;
                std::hint::black_box(t.span("screen.ApproxClassifier::classify_ref_with", |_| {
                    classifier.classify_ref_with(h, policy)
                }));
                std::hint::black_box(t.span("tensor.Matrix::matvec_bias", |_| {
                    synth.weights().matvec_bias(h, synth.bias())
                }));
                f32_ops += 2.0 * (l * d) as f64;
                f32_bytes += (4 * (l * d + l + d + l)) as f64;
                let approx = t.span("screen.Screener::screen_ref", |_| screener.screen_ref(h));
                let qh =
                    QuantVector::quantize(&screener.projection().project(h), screener.precision())
                        .expect("nonempty activation");
                std::hint::black_box(
                    t.span("tensor.QuantMatrix::matvec_quant", |_| qm.matvec_quant(&qh)),
                );
                i4_ops += 2.0 * (l * k) as f64;
                i4_bytes += (qm.nbytes() + k + 4 * l) as f64;
                std::hint::black_box(t.span("tensor.top_k_indices", |_| {
                    top_k_indices(approx.as_slice(), cfg.candidates)
                }));
            }
        }
    });
    let totals = tracer.totals();
    let secs = |name: &str| totals.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e9);
    let calls = |name: &str| totals.get(name).map_or(0, |s| s.calls) as f64;
    let mut classify = tracer.durations_ns("screen.ApproxClassifier::classify_ref_with");
    classify.sort_by(f64::total_cmp);
    let (tail_pct, tail_ns) = tail(&classify);
    let screen_mean = secs("screen.Screener::screen_ref") / calls("screen.Screener::screen_ref");
    let classify_mean = classify.iter().sum::<f64>() / 1e9 / classify.len() as f64;
    let roofline = enmc::arch::CpuModel::xeon_8280().cost_model().bandwidth / 1e9;
    vec![
        Metric {
            name: "tensor.matvec_f32.gops",
            value: f32_ops / secs("tensor.Matrix::matvec_bias") / 1e9,
        },
        Metric {
            name: "tensor.matvec_f32.gbs",
            value: f32_bytes / secs("tensor.Matrix::matvec_bias") / 1e9,
        },
        Metric {
            name: "tensor.matvec_int4.gops",
            value: i4_ops / secs("tensor.QuantMatrix::matvec_quant") / 1e9,
        },
        Metric {
            name: "tensor.matvec_int4.gbs",
            value: i4_bytes / secs("tensor.QuantMatrix::matvec_quant") / 1e9,
        },
        Metric {
            name: "tensor.cpu_roofline_gbs",
            value: roofline,
        },
        Metric {
            name: "tensor.topk.calls_per_s",
            value: calls("tensor.top_k_indices") / secs("tensor.top_k_indices"),
        },
        Metric {
            name: "model.synth_s",
            value: build_phase_s(&pipelines, "synthesize"),
        },
        Metric {
            name: "screen.distill_s",
            value: build_phase_s(&pipelines, "distill"),
        },
        Metric {
            name: "screen.classify_p50_us",
            value: nearest_rank(&classify, 50.0) / 1e3,
        },
        Metric {
            name: "screen.classify_tail_us",
            value: tail_ns / 1e3,
        },
        Metric {
            name: "screen.classify_tail_pct",
            value: tail_pct,
        },
        Metric {
            name: "screen.classify_samples",
            value: classify.len() as f64,
        },
        Metric {
            name: "screen.screen_share",
            value: screen_mean / classify_mean,
        },
        Metric {
            name: "quality.queries",
            value: (QUERIES * SHAPES.len()) as f64,
        },
        Metric {
            name: "trace.overhead",
            value: traced_s / plain_s - 1.0,
        },
    ]
}
