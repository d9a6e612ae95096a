//! The three workloads.  Each is a batch, closed pass over a fixed input
//! size; `main` repeats passes while the run's time allows and reports
//! medians.
//!
//! A pass records its set-up time and per-layer values into [`Samples`]
//! and returns the simulated session-seconds it completed.  Every call into
//! the library is wrapped in a span named after the layer it enters.

use crate::check::{self, node_invariants, Ops};
use crate::report::{Samples, STORM_POLICIES};
use crate::trace::Tracer;
use signaling::experiment::{ExperimentOptions, ExperimentOutput, RetryKind};
use signaling::node_restart_storm as storm;
use signaling::{
    ExecutionPolicy, NodeConfig, NodeOutageExperiment, NodeRestartStormExperiment, NodeSim,
    ProtocolSpec, QueueKind, RecoveryMetrics, SingleHopParams,
};

/// Fixed settings of one run.
pub struct Ctx {
    pub seed: u64,
    /// Threads the quick suite fans out across (`nproc`).
    pub threads: usize,
}

/// A workload: its name and one pass.
pub struct Workload {
    pub name: &'static str,
    /// Threads the pass uses (for `fanout.cpu_util`).
    pub threads: fn(&Ctx) -> usize,
    pub pass: fn(&Ctx, &mut Tracer, &mut Ops, &mut Samples) -> f64,
    /// Input size, for the provenance record.
    pub sessions: &'static str,
    pub horizon_s: &'static str,
    pub queue_kind: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "quick-suite",
        threads: |ctx| ctx.threads,
        pass: quick_suite,
        sessions: "node-outage 4096, node-restart-storm 1024 (quick options)",
        horizon_s: "node-outage 180, node-restart-storm 240",
        queue_kind: "heap (experiment defaults)",
    },
    Workload {
        name: "node-250k",
        threads: |_| 1,
        pass: node_250k,
        sessions: "250000",
        horizon_s: "80",
        queue_kind: "calendar",
    },
    Workload {
        name: "storm-reliable",
        threads: |_| 1,
        pass: storm_reliable,
        sessions: "32768 x 3 retry policies",
        horizon_s: "240",
        queue_kind: "calendar",
    },
];

/// Times the quick suite's set-up is repeated per pass; its median is
/// `setup_s` (one set-up takes tens of microseconds).
const SETUP_REPS: usize = 101;

/// `node-250k`: sessions, virtual horizon and mean session lifetime.
const NODE_SESSIONS: usize = 250_000;
const NODE_HORIZON: f64 = 80.0;
const NODE_LIFETIME: f64 = 600.0;

/// `storm-reliable`: sessions per retry policy and the spec it runs.
const STORM_SESSIONS: usize = 32_768;
const STORM_SPEC: &str = "spec:rtrrn";

/// The quick options the suite and its check run with.
fn quick_options(ctx: &Ctx) -> ExperimentOptions {
    let mut options =
        ExperimentOptions::quick().with_execution(ExecutionPolicy::threads(ctx.threads));
    options.seed = ctx.seed;
    options
}

/// Session-seconds the suite's node fault simulations cover: `node-outage`
/// and `node-restart-storm` over the coherent spectrum, and the
/// `check-specs` domination re-run of `node-outage`.  (The other node
/// experiments are well under 1% of the suite.)
fn quick_session_secs(options: &ExperimentOptions) -> f64 {
    let size = |c: NodeConfig| c.sessions as f64 * c.horizon;
    let spectrum = sigbench::coherent_spectrum();
    let outage: f64 = spectrum
        .iter()
        .map(|&spec| size(NodeOutageExperiment::config(spec, options)))
        .sum();
    let restart: f64 = spectrum
        .iter()
        .flat_map(|&spec| RetryKind::ALL.map(|k| (spec, k)))
        .map(|(spec, k)| size(NodeRestartStormExperiment::config(spec, k, options)))
        .sum();
    let domination: f64 = sigfsm::coherent_specs()
        .into_iter()
        .map(|spec| size(NodeOutageExperiment::config(spec, options)))
        .sum();
    outage + restart + domination
}

/// Per-layer bucket of one experiment's solve time.
fn solve_bucket(name: &str, tags: &[String]) -> String {
    if name.starts_with("node-") {
        format!("exp.{}.solve_s", name.replace('-', "_"))
    } else if tags.iter().any(|t| t == "simulation") {
        "exp.sim_sweep.solve_s".to_string()
    } else {
        "exp.analytic.solve_s".to_string()
    }
}

/// `quick-suite`: all registered experiments at quick options, then the
/// `check-specs` gate (structural model check + latency domination).
fn quick_suite(ctx: &Ctx, tr: &mut Tracer, ops: &mut Ops, s: &mut Samples) -> f64 {
    let setup = tr.begin("setup");
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (b, secs) = tr.time("registry.build", || {
            let registry = sigbench::extended_registry();
            let protocols = sigbench::protocol_registry();
            let options = quick_options(ctx);
            let session_secs = quick_session_secs(&options);
            (registry, protocols, options, session_secs)
        });
        reps.push(secs);
        built = Some(b);
    }
    tr.end(setup);
    let setup_s = crate::report::median(&reps);
    s.push("setup_s", setup_s);
    s.push("registry.build_s", setup_s);
    let Some((registry, _protocols, options, session_secs)) = built else {
        unreachable!("SETUP_REPS is positive")
    };

    let golden = (ctx.seed == check::DEFAULT_SEED).then(check::fig11a_golden);
    let mut solve = std::collections::BTreeMap::<String, f64>::new();
    let mut report_s = 0.0;
    for exp in registry.iter() {
        let op = format!("exp.{}", exp.name());
        let (out, secs) = tr.time(&format!("{op}.solve"), || {
            ops.guard(&op, || exp.run(&options))
        });
        *solve
            .entry(solve_bucket(exp.name(), &exp.tags()))
            .or_default() += secs;
        let Some(out) = out else { continue };
        let ((text, json), secs) = tr.time("report.render", || {
            let json = match (&out, exp.name()) {
                (ExperimentOutput::Figure(fig), "fig11a") => {
                    Some(signaling::render_json(fig) + "\n")
                }
                _ => None,
            };
            (out.to_text(), json)
        });
        report_s += secs;
        let mut problems: Vec<String> = ops.digest_problem(&op, &text).into_iter().collect();
        if let (Some(json), Some(golden)) = (json, &golden) {
            match golden {
                Ok(g) if *g == json => {}
                Ok(_) => problems.push("fig11a JSON differs from the committed golden".into()),
                Err(e) => problems.push(e.clone()),
            }
        }
        ops.record(&op, &problems);
    }
    for name in [
        "exp.node_outage.solve_s",
        "exp.node_restart_storm.solve_s",
        "exp.node_scale.solve_s",
        "exp.node_storm.solve_s",
        "exp.analytic.solve_s",
        "exp.sim_sweep.solve_s",
    ] {
        s.push(name, solve.get(name).copied().unwrap_or(0.0));
    }

    let (structural, secs) = tr.time("check.structural", || {
        ops.guard("check.structural", sigfsm::check_all)
    });
    s.push("check.structural_s", secs);
    if let Some(report) = structural {
        let (_, secs) = tr.time("report.render", || report.render());
        report_s += secs;
        for c in &report.checks {
            let op = format!("check.structural.{}", c.code);
            let mut problems: Vec<String> = c.violations.iter().map(|v| format!("{v:?}")).collect();
            problems.extend(ops.digest_problem(&op, &format!("{c:?}")));
            ops.record(&op, &problems);
        }
    }

    let (domination, secs) = tr.time("check.domination", || {
        ops.guard("check.domination", || {
            signaling::node_outage::check_latency_domination(&options)
        })
    });
    s.push("check.domination_s", secs);
    if let Some(report) = domination {
        let (_, secs) = tr.time("report.render", || report.render());
        report_s += secs;
        for row in &report.rows {
            let op = format!("check.domination.{}", row.code);
            let mut problems = Vec::new();
            if !row.dominated() {
                problems.push(format!(
                    "measured {} s exceeds the bound {} s",
                    row.measured_secs, row.bound_secs
                ));
            }
            problems.extend(ops.digest_problem(&op, &format!("{row:?}")));
            ops.record(&op, &problems);
        }
        for _ in 0..report.underivable {
            ops.record("check.domination", &["no derivable bound".to_string()]);
        }
    }
    s.push("report.render_s", report_s);
    session_secs
}

/// The `node-250k` configuration: pure soft state, Kazaa parameters with a
/// 600 s lifetime, calendar queue, no faults, unlimited capacity.
fn node_250k_config() -> NodeConfig {
    let params = SingleHopParams::kazaa_defaults().with_mean_lifetime(NODE_LIFETIME);
    NodeConfig::new(ProtocolSpec::SS, params, NODE_SESSIONS)
        .with_horizon(NODE_HORIZON)
        .with_queue_kind(QueueKind::Calendar)
}

/// `node-250k`: one population-scale `NodeSim` run to a fixed horizon.
fn node_250k(ctx: &Ctx, tr: &mut Tracer, ops: &mut Ops, s: &mut Samples) -> f64 {
    const OP: &str = "node-250k";
    let setup = tr.begin("setup");
    let cfg = node_250k_config();
    let (sim, new_s) = tr.time("node.new", || ops.guard(OP, || NodeSim::new(cfg, ctx.seed)));
    s.push("setup_s", tr.end(setup));
    s.push("node.new_s", new_s);
    let Some(mut sim) = sim else { return 0.0 };

    let (metrics, run_s) = tr.time("node.run", || ops.guard(OP, || sim.run()));
    let Some(m) = metrics else { return 0.0 };
    let events = m.events_processed as f64;
    tr.count("events", events);
    let (again, _) = tr.time("node.metrics", || sim.metrics());
    let phases = sim.phase_timings();
    let session_secs = cfg.sessions as f64 * cfg.horizon;
    s.push("node.run_s", run_s);
    s.push("node.events", events);
    s.push("node.events_per_s", events / run_s);
    s.push("node.events_per_session_s", events / session_secs);
    s.push("node.phase.fire_s", phases.fire);
    s.push("node.phase.metrics_s", phases.metrics);
    s.push("node.pending_events", sim.pending_events() as f64);
    s.push("node.bytes_per_session", sim.bytes_per_session());

    let mut problems = node_invariants(&m);
    if again != m {
        problems.push("NodeSim::metrics disagrees with the result of run".into());
    }
    problems.extend(ops.digest_problem(OP, &format!("{m:?}")));
    ops.record(OP, &problems);
    session_secs
}

/// The `storm-reliable` configuration for one retry policy: the
/// `node-restart-storm` experiment's storm, capacity and horizon for the
/// all-reliable spec, at [`STORM_SESSIONS`] on the calendar queue.
fn storm_config(retry: RetryKind) -> NodeConfig {
    let spec = sigbench::coherent_spectrum()
        .iter()
        .copied()
        .find(|s| s.label() == STORM_SPEC)
        .expect("the all-reliable spec is coherent");
    let mut cfg = NodeRestartStormExperiment::config(spec, retry, &ExperimentOptions::default());
    cfg.sessions = STORM_SESSIONS;
    cfg.capacity = NodeRestartStormExperiment::capacity(STORM_SESSIONS);
    cfg.queue_kind = QueueKind::Calendar;
    cfg
}

/// `storm-reliable`: the restart storm under a capacity limit, once per
/// retry policy.
fn storm_reliable(ctx: &Ctx, tr: &mut Tracer, ops: &mut Ops, s: &mut Samples) -> f64 {
    let setup = tr.begin("setup");
    let mut sims = Vec::new();
    for (retry, label) in RetryKind::ALL.into_iter().zip(STORM_POLICIES) {
        assert_eq!(retry.label(), label, "storm metric names follow RetryKind");
        let cfg = storm_config(retry);
        let op = format!("storm.{label}");
        let (sim, _) = tr.time("node.new", || {
            ops.guard(&op, || NodeSim::new(cfg, ctx.seed))
        });
        sims.push((op, cfg, sim));
    }
    s.push("setup_s", tr.end(setup));

    let mut session_secs = 0.0;
    for (op, cfg, sim) in sims {
        let Some(mut sim) = sim else { continue };
        let (metrics, run_s) = tr.time(&format!("{op}.run"), || ops.guard(&op, || sim.run()));
        let Some(m) = metrics else { continue };
        let events = m.events_processed as f64;
        tr.count("events", events);
        let (recovery, derive_s) = tr.time(&format!("{op}.derive"), || {
            let trace = sim.recovery_trace();
            let rm = RecoveryMetrics::derive(
                &trace,
                storm::STORM_START,
                NodeRestartStormExperiment::last_wipe(),
                storm::EPSILON,
            );
            (rm, NodeRestartStormExperiment::reinstall_secs(&trace))
        });
        let sends = m.messages.signaling_total() as f64;
        let drops = (m.drops_random + m.drops_injected + m.drops_overload) as f64;
        s.push(format!("{op}.run_s"), run_s);
        s.push(format!("{op}.events"), events);
        s.push(format!("{op}.events_per_s"), events / run_s);
        s.push(format!("{op}.bytes_per_session"), sim.bytes_per_session());
        s.push(format!("{op}.delivered_frac"), (sends - drops) / sends);
        s.push(
            format!("{op}.overload_frac"),
            m.drops_overload as f64 / sends,
        );
        s.push(format!("{op}.drops_random"), m.drops_random as f64);
        s.push(format!("{op}.drops_injected"), m.drops_injected as f64);
        s.push(format!("{op}.drops_overload"), m.drops_overload as f64);
        s.push(format!("{op}.crash_wipes"), m.crash_wipes as f64);
        s.push(format!("{op}.derive_s"), derive_s);

        let mut problems = node_invariants(&m);
        problems.extend(ops.digest_problem(&op, &format!("{m:?} {recovery:?}")));
        ops.record(&op, &problems);
        session_secs += cfg.sessions as f64 * cfg.horizon;
    }
    session_secs
}
