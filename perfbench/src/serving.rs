//! `serve-fleet`: the serving and fleet event loops on the surrogate cost
//! backend.
//!
//! Set-up fits the surrogate (cycle-accurate anchor simulations, with a
//! seeded fraction of calibration points audited cycle-accurately) and
//! calibrates the service tables of `serve-sim` and of a 4-tenant, 8-node
//! `fleet-sim`. One repetition runs both event loops over the seeded
//! arrivals; calibration there is pure surrogate arithmetic.

use crate::digest::Digest;
use crate::trace::Tracer;
use crate::{alternate, measure, median, mix, time, Args, Checks, Metric, Timed};
use enmc::arch::system::{ClassificationJob, SystemModel};
use enmc::fleet::{simulate_fleet, FleetConfig, FleetOutcome, PlacementPolicy, TenantConfig};
use enmc::model::workloads::WorkloadId;
use enmc::obs::MetricsRegistry;
use enmc::par::SimConfig;
use enmc::serve::tier::default_tiers;
use enmc::serve::{simulate_with_cost, ArrivalProcess, ServeConfig, ServeOutcome};
use enmc::surrogate::fit::ShapeFit;
use enmc::surrogate::{AuditStats, CostBackend, CostModel};

/// Requests `serve-sim` serves per repetition.
const SERVE_REQUESTS: usize = 1_000_000;
/// Fleet tenants, nodes, and requests per tenant per repetition.
const TENANTS: usize = 4;
const NODES: usize = 8;
const TENANT_REQUESTS: usize = 250_000;
/// Fraction of calibration points the set-up audits cycle-accurately.
const AUDIT_RATE: f64 = 0.1;
/// Offered load, requests per kilocycle (`serve-sim`/`fleet-sim` default).
const RATE: f64 = 0.5;
/// Surrogate predictions the traced run times.
const PREDICTIONS: usize = 20_000;

/// The served shape: GNMT-E32K at 1% exact candidates.
fn job() -> ClassificationJob {
    let w = WorkloadId::GnmtE32K.workload();
    ClassificationJob {
        categories: w.categories,
        hidden: w.hidden,
        reduced: (w.hidden / 4).max(1),
        batch: 1,
        candidates: (w.categories as f64 * 0.01).round() as usize,
    }
}

fn sim_config() -> SimConfig {
    SimConfig::with_threads(2).with_protocol_check()
}

fn serve_config(job: &ClassificationJob, requests: usize, seed: u64) -> ServeConfig {
    ServeConfig {
        arrival: ArrivalProcess::Poisson { rate: RATE },
        requests,
        slo_cycles: 100_000,
        batch_max: 4,
        linger_cycles: 2_000,
        lanes: 2,
        tiers: default_tiers(job),
        degrade_queue_depth: 12,
        upgrade_queue_depth: 3,
        shed_queue_depth: 48,
        seed: mix(seed, 200),
        offload: None,
    }
}

/// `fleet-sim` defaults at 4 tenants: tenant `i` has an `(i+1)×` looser
/// deadline and an earlier shed threshold; the offered rate splits evenly.
fn fleet_config(job: &ClassificationJob, requests: usize, seed: u64) -> FleetConfig {
    let tenants = (0..TENANTS)
        .map(|i| {
            let mut t = TenantConfig::new(
                &format!("t{i}"),
                ArrivalProcess::Poisson {
                    rate: RATE / TENANTS as f64,
                },
                requests,
                100_000 * (i as u64 + 1),
                default_tiers(job),
                mix(seed, 300 + i as u64),
            );
            t.shed_queue_depth = (48usize >> i).max(4);
            t
        })
        .collect();
    FleetConfig {
        nodes: NODES,
        shards: NODES,
        placement: PlacementPolicy::PopularityAware,
        tenants,
        seed: mix(seed, 400),
        ..Default::default()
    }
}

struct State {
    sys: SystemModel,
    job: ClassificationJob,
    serve: ServeConfig,
    fleet: FleetConfig,
    /// Fitted coefficients, answering without audits.
    cost: CostModel,
    audit: AuditStats,
}

/// Fits and calibrates through one-request warm-up runs of both
/// simulators, auditing at [`AUDIT_RATE`]; returns the state the timed
/// loops run on.
fn setup(seed: u64, t: &mut Tracer, checks: &mut Checks) -> State {
    let sys = SystemModel::table3();
    let job = job();
    let mut fitted = CostModel::new(
        CostBackend::Surrogate {
            audit_rate: AUDIT_RATE,
        },
        seed,
    );
    let mut registry = MetricsRegistry::new();
    let serve_warm = t.span("serve.simulate_with_cost", |_| {
        simulate_with_cost(
            &sys,
            &job,
            &serve_config(&job, 1, seed),
            &sim_config(),
            &mut registry,
            None,
            &mut fitted,
        )
    });
    checks.op(
        serve_warm
            .as_ref()
            .is_ok_and(|o| o.protocol_violations == 0),
        || format!("serve calibration: {serve_warm:?}"),
    );
    let fleet_warm = t.span("fleet.simulate_fleet", |_| {
        simulate_fleet(
            &sys,
            &job,
            &fleet_config(&job, 1, seed),
            &sim_config(),
            &mut registry,
            &mut fitted,
        )
    });
    checks.op(
        fleet_warm
            .as_ref()
            .is_ok_and(|o| o.protocol_violations == 0),
        || format!("fleet calibration: {fleet_warm:?}"),
    );
    let audit = fitted.stats();
    let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, seed);
    let loaded = cost.load_coeffs(&fitted.coeffs_to_json());
    checks.op(loaded.is_ok(), || {
        format!("coefficients do not round-trip: {loaded:?}")
    });
    State {
        serve: serve_config(&job, SERVE_REQUESTS, seed),
        fleet: fleet_config(&job, TENANT_REQUESTS, seed),
        sys,
        job,
        cost,
        audit,
    }
}

/// Both event loops, with their outcomes.
fn run_loops(s: &mut State, t: &mut Tracer) -> (Option<ServeOutcome>, Option<FleetOutcome>) {
    let mut registry = MetricsRegistry::new();
    let serve = t.span("serve.simulate_with_cost", |_| {
        simulate_with_cost(
            &s.sys,
            &s.job,
            &s.serve,
            &sim_config(),
            &mut registry,
            None,
            &mut s.cost,
        )
    });
    let fleet = t.span("fleet.simulate_fleet", |_| {
        simulate_fleet(
            &s.sys,
            &s.job,
            &s.fleet,
            &sim_config(),
            &mut registry,
            &mut s.cost,
        )
    });
    (serve.ok(), fleet.ok())
}

/// What one repetition's outcomes reduce to once its clock stops.
struct Summary {
    digest: u64,
    serve_batches: usize,
    fleet_batches: usize,
    network_share: f64,
}

/// Checks request conservation — every generated request is shed or
/// admitted, and every admitted one completes — and digests the outcome
/// counts.
fn summarize(out: &(Option<ServeOutcome>, Option<FleetOutcome>), checks: &mut Checks) -> Summary {
    let mut d = Digest::new();
    let (serve, fleet) = out;
    checks.op(serve.is_some(), || "serve-sim failed".into());
    if let Some(o) = serve {
        checks.op(
            o.generated == SERVE_REQUESTS as u64
                && o.admitted + o.shed == o.generated
                && o.completed == o.admitted
                && o.protocol_violations == 0,
            || {
                format!(
                    "serve conservation: {} generated, {} admitted, {} completed, {} shed",
                    o.generated, o.admitted, o.completed, o.shed
                )
            },
        );
        for x in [
            o.generated,
            o.admitted,
            o.completed,
            o.shed,
            o.slo_met,
            o.degrade_transitions,
            o.makespan_cycles,
        ] {
            d.u64(x);
        }
        d.u64(o.batches.len() as u64)
            .u64(o.max_queue_depth as u64)
            .f64(o.latency.p99());
        for x in o.per_tier_completed.iter().chain(&o.per_tier_batches) {
            d.u64(*x);
        }
    }
    checks.op(fleet.is_some(), || "fleet-sim failed".into());
    if let Some(o) = fleet {
        for t in &o.tenants {
            checks.op(
                t.generated == TENANT_REQUESTS as u64
                    && t.admitted + t.shed == t.generated
                    && t.completed == t.admitted,
                || {
                    format!(
                        "tenant {} conservation: {} generated, {} admitted, {} completed, {} shed",
                        t.name, t.generated, t.admitted, t.completed, t.shed
                    )
                },
            );
            for x in [
                t.generated,
                t.admitted,
                t.completed,
                t.shed,
                t.slo_met,
                t.degrade_transitions,
            ] {
                d.u64(x);
            }
            d.f64(t.latency.p99());
        }
        d.u64(o.batches.len() as u64)
            .u64(o.makespan_cycles)
            .u64(o.network_cycles)
            .u64(o.latency_cycles)
            .u64(o.hot_shard_replicas);
    }
    Summary {
        digest: d.finish(),
        serve_batches: serve.as_ref().map_or(0, |o| o.batches.len()),
        fleet_batches: fleet.as_ref().map_or(0, |o| o.batches.len()),
        network_share: fleet.as_ref().map_or(0.0, FleetOutcome::network_share),
    }
}

fn requests_per_rep() -> f64 {
    (SERVE_REQUESTS + TENANTS * TENANT_REQUESTS) as f64
}

pub fn untraced(args: &Args, checks: &mut Checks) -> Timed {
    let mut off = Tracer::new(false);
    let (mut timed, kept) = measure(
        args,
        checks,
        |checks| setup(args.seed, &mut Tracer::new(false), checks),
        |s| run_loops(s, &mut off),
        |out, checks| summarize(&out, checks),
    );
    let digests: Vec<u64> = kept.iter().map(|s| s.digest).collect();
    checks.digests(args, &digests, "serve/fleet pass");
    timed.work_per_rep = requests_per_rep();
    timed
}

pub fn traced(args: &Args, checks: &mut Checks, tracer: &mut Tracer) -> Vec<Metric> {
    let mut s = tracer.span("setup", |t| setup(args.seed, t, checks));
    let (plain, traced) = alternate(
        args.seconds,
        tracer,
        |t| run_loops(&mut s, t),
        |out| summarize(&out, checks),
    );
    let digests: Vec<u64> = plain.iter().chain(&traced).map(|(_, s)| s.digest).collect();
    checks.digests(args, &digests, "serve/fleet pass");
    let plain_s = median(&plain.iter().map(|(dt, _)| *dt).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|(dt, _)| *dt).collect::<Vec<_>>());
    let per_rep = |name: &str| {
        let mut v = tracer.durations_ns(name);
        // The first span of each name is the set-up's warm-up call.
        v.remove(0);
        median(&v) / 1e9
    };
    let serve_s = per_rep("serve.simulate_with_cost");
    let fleet_s = per_rep("fleet.simulate_fleet");
    let summary = &traced[0].1;

    // The fit and the prediction path, timed on the served shape's
    // representative rank slice.
    let params = s.sys.enmc_unit_params();
    let rank_job = s.job.rank_slice(s.sys.total_ranks);
    let cand = rank_job.candidates_per_item[0];
    let fit = tracer.span("surrogate.ShapeFit::fit", |_| {
        ShapeFit::fit(
            &params,
            rank_job.categories,
            rank_job.hidden,
            rank_job.reduced,
            8,
            cand,
            args.seed,
        )
    });
    let fit_s = tracer.durations_ns("surrogate.ShapeFit::fit")[0] / 1e9;
    let (predict_s, ()) = tracer.span("surrogate.ShapeFit::predict", |_| {
        time(|| {
            for i in 0..PREDICTIONS {
                let mut j = rank_job.clone();
                j.batch = 1 + i % 8;
                j.candidates_per_item = vec![1 + i % cand.max(1); j.batch];
                std::hint::black_box(fit.predict(&j));
            }
        })
    });
    vec![
        Metric {
            name: "surrogate.fit_s",
            value: fit_s,
        },
        Metric {
            name: "surrogate.fit_anchors",
            value: s.audit.fit_anchors as f64,
        },
        Metric {
            name: "surrogate.predict_per_s",
            value: PREDICTIONS as f64 / predict_s,
        },
        Metric {
            name: "surrogate.predicted",
            value: s.audit.predicted as f64,
        },
        Metric {
            name: "surrogate.audited",
            value: s.audit.audited as f64,
        },
        Metric {
            name: "surrogate.max_rel_err",
            value: s.audit.max_rel_err,
        },
        Metric {
            name: "serve.loop_s",
            value: serve_s,
        },
        Metric {
            name: "serve.requests_per_s",
            value: SERVE_REQUESTS as f64 / serve_s,
        },
        Metric {
            name: "serve.requests",
            value: SERVE_REQUESTS as f64,
        },
        Metric {
            name: "serve.batches",
            value: summary.serve_batches as f64,
        },
        Metric {
            name: "fleet.loop_s",
            value: fleet_s,
        },
        Metric {
            name: "fleet.requests_per_s",
            value: (TENANTS * TENANT_REQUESTS) as f64 / fleet_s,
        },
        Metric {
            name: "fleet.requests",
            value: (TENANTS * TENANT_REQUESTS) as f64,
        },
        Metric {
            name: "fleet.batches",
            value: summary.fleet_batches as f64,
        },
        Metric {
            name: "fleet.network_share",
            value: summary.network_share,
        },
        Metric {
            name: "trace.overhead",
            value: traced_s / plain_s - 1.0,
        },
    ]
}
