//! The `node-outage` experiment: the timeout-avalanche recovery transient.
//!
//! The paper's metrics are steady-state averages; operators fear the
//! transient.  When a node's uplink blacks out for longer than the state
//! timeout, every soft-state refresh stream is silenced at once and the
//! receiver false-removes its whole population of entries in a burst — the
//! timeout avalanche — then spends the first seconds after the outage
//! re-installing everything.  Hard state never false-removes on silence,
//! but every explicit removal that fell into the blackout leaves a stale
//! orphan that nothing repairs.
//!
//! This experiment injects one scheduled [`Outage`](sigproto::FaultEvent)
//! into a population-scale [`NodeSim`](sigproto::NodeSim) per protocol and
//! tabulates the [`RecoveryMetrics`] of the transient: the steady-state
//! false-removal rate, the avalanche peak, the spike amplification, the
//! time for the population stale fraction to reconverge to its pre-fault
//! baseline, and the signaling cost of the recovery burst.  Like every
//! simulation table it is bit-identical across execution policies and
//! queue kinds.
//!
//! The default protocol set is injected at construction (the `repro`
//! registry passes the full coherent-spec spectrum, so the avalanche is
//! charted for *every* mechanism composition), and `--protocols` overrides
//! it like everywhere else.

use crate::experiment::{ExperimentOptions, ExperimentOutput};
use crate::registry::Experiment;
use siganalytic::{ProtocolSpec, SingleHopParams};
use sigfsm::{repair_latency_bound, BoundParams};
use sigproto::{FaultSchedule, NodeCampaign, NodeConfig, RecoveryMetrics};
use simcore::{Assignment, ExecutionPolicy, ReplicationEngine};
use std::fmt::Write as _;

/// When the blackout starts (seconds of virtual time): late enough that the
/// population and its per-second baseline rates are in steady state.
pub const OUTAGE_START: f64 = 60.0;

/// Blackout duration `D` (seconds): twice the Kazaa state timeout, so every
/// soft-state timer expires inside the window.
pub const OUTAGE_SECS: f64 = 30.0;

/// Virtual-time horizon (seconds): a full minute of steady state, the
/// outage, and ninety seconds of recovery.
pub const HORIZON: f64 = 180.0;

/// Mean session lifetime (seconds), matching the other node experiments.
pub const MEAN_LIFETIME: f64 = 300.0;

/// Channel loss: raised above the Kazaa default so the *steady-state*
/// false-removal rate is nonzero at the full population and the spike
/// amplification is a finite ratio rather than a divide-by-zero.
pub const LOSS: f64 = 0.05;

/// Stale-fraction reconvergence tolerance (absolute).
pub const EPSILON: f64 = 0.02;

/// Sessions at the full (default) replication budget — the headline
/// population regime.
pub const SESSIONS_FULL: usize = 100_000;

/// Sessions under `--quick` (small budgets): keeps CI interactive.
pub const SESSIONS_QUICK: usize = 4096;

/// What [`NodeOutageExperiment::measure`] returns for one protocol.
type Measurement = (
    sigproto::NodeCampaignResult,
    sigproto::PhaseTimings,
    RecoveryMetrics,
);

/// The scheduled-outage recovery experiment (registered as `node-outage`).
pub struct NodeOutageExperiment {
    default_set: Vec<ProtocolSpec>,
}

impl NodeOutageExperiment {
    /// Creates the experiment with the default protocol set run when no
    /// `--protocols` override is given.
    pub fn new(default_set: Vec<ProtocolSpec>) -> Self {
        Self { default_set }
    }

    /// Per-session parameters: Kazaa defaults with the churn and loss
    /// overrides above.  The external false-signal process is disabled so
    /// the false-removal columns isolate the *timeout* avalanche — with it
    /// on, hard state's detector noise would blur the "HS never
    /// false-removes on silence" contrast the table exists to show.
    pub fn params() -> SingleHopParams {
        let mut p = SingleHopParams::kazaa_defaults().with_mean_lifetime(MEAN_LIFETIME);
        p.loss = LOSS;
        p.false_signal_rate = 0.0;
        p
    }

    /// Sessions for the given options: the headline population at the full
    /// replication budget, a CI-sized node under `--quick`.
    pub fn sessions(options: &ExperimentOptions) -> usize {
        if options.sim_replications >= 20 {
            SESSIONS_FULL
        } else {
            SESSIONS_QUICK
        }
    }

    /// The node configuration for one protocol under the canonical outage.
    pub fn config(protocol: ProtocolSpec, options: &ExperimentOptions) -> NodeConfig {
        let faults = FaultSchedule::outage(OUTAGE_START, OUTAGE_SECS)
            // sigtidy: allow(no-unwrap) — constant window, validity pinned by the tests below
            .expect("the canonical outage window is valid");
        let mut config = NodeConfig::new(protocol, Self::params(), Self::sessions(options))
            .with_horizon(HORIZON)
            .with_fault_schedule(faults)
            .with_retry_policy(options.retry_kind.policy());
        if let Some(model) = options.loss_kind.model_for(config.params.loss) {
            config = config.with_loss_model(model);
        }
        config
    }

    /// Runs the canonical outage for one protocol and derives its recovery
    /// metrics — the shared measurement path of the experiment table and the
    /// latency-domination cross-check.
    ///
    /// The campaign is a single replication and always runs serially: the
    /// table and the cross-check fan out across protocols instead, so a
    /// worker never spawns nested threads.
    pub fn measure(protocol: ProtocolSpec, options: &ExperimentOptions) -> Measurement {
        let campaign = NodeCampaign::new(Self::config(protocol, options), 1, options.seed)
            .execution(ExecutionPolicy::Serial);
        let (result, phases, _, trace) = campaign.run_traced();
        let metrics =
            RecoveryMetrics::derive(&trace, OUTAGE_START, OUTAGE_START + OUTAGE_SECS, EPSILON);
        (result, phases, metrics)
    }

    /// [`measure`](Self::measure) for every protocol, fanned out one job per
    /// protocol through the [`ReplicationEngine`] under `options.execution`
    /// and returned in `protocols` order — bit-identical under every policy.
    fn measure_all(protocols: &[ProtocolSpec], options: &ExperimentOptions) -> Vec<Measurement> {
        // Work stealing: per-spec costs are skewed (the reliable-refresh
        // specs retransmit millions of messages), and the dynamic
        // assignment is bit-identical to serial execution anyway.
        ReplicationEngine::new(options.execution)
            .with_assignment(Assignment::WorkStealing)
            .run(protocols.len(), &|i: u64| {
                Self::measure(protocols[i as usize], options)
            })
    }
}

/// One spec's row of the latency-domination cross-check: the measured
/// `node-outage` reconvergence time against the evaluated symbolic bound.
#[derive(Debug, Clone, PartialEq)]
pub struct DominationRow {
    /// The spec's five-character mechanism code.
    pub code: String,
    /// Measured reconvergence (seconds) from [`RecoveryMetrics::derive`].
    pub measured_secs: f64,
    /// The symbolic bound, rendered.
    pub bound_expr: String,
    /// The bound evaluated at the experiment's operating point (seconds).
    pub bound_secs: f64,
}

impl DominationRow {
    /// Whether the bound dominates the measurement (a non-finite
    /// measurement — an unconverged trace — can never be dominated).
    ///
    /// The measurement comes from whole recovery-trace bins, so its
    /// resolution is one bin: a sub-bin bound (e.g. the jittered retry
    /// worst case of a refresh-free spec) is compared rounded up to the
    /// bin it ends in — the tightest claim the trace can corroborate.
    pub fn dominated(&self) -> bool {
        let bin = sigproto::node::ENVELOPE_BIN_SECS;
        let bound_at_resolution = (self.bound_secs / bin).ceil() * bin;
        self.measured_secs.is_finite() && bound_at_resolution >= self.measured_secs
    }
}

/// The latency-domination cross-check over the whole coherent spec space:
/// the numeric half of the checker's latency property (see
/// [`check_latency_domination`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DominationReport {
    /// Sessions per spec the measurements ran at.
    pub sessions: usize,
    /// One row per coherent spec, in enumeration order.
    pub rows: Vec<DominationRow>,
    /// Coherent specs the symbolic pass failed to derive a bound for
    /// (always `0` when the checker's structural latency property holds).
    pub underivable: usize,
}

impl DominationReport {
    /// Whether every coherent spec got a bound and every bound dominates
    /// its measurement.
    pub fn passed(&self) -> bool {
        self.underivable == 0 && self.rows.iter().all(DominationRow::dominated)
    }

    /// Renders the cross-check table `repro check-specs` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "latency-domination: symbolic bound vs measured node-outage reconvergence \
             ({} specs, {} sessions, loss = {LOSS}, epsilon = {EPSILON})",
            self.rows.len(),
            self.sessions
        );
        let _ = writeln!(
            out,
            "  {:<6} {:<12} {:>10} {:>10}   bound",
            "", "spec", "measured s", "bound s"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  {:<6} spec:{:<7} {:>10.1} {:>10.2}   {}",
                if row.dominated() { "PASS" } else { "FAIL" },
                row.code,
                row.measured_secs,
                row.bound_secs,
                row.bound_expr,
            );
        }
        if self.underivable > 0 {
            let _ = writeln!(
                out,
                "  {} coherent spec(s) had no derivable bound",
                self.underivable
            );
        }
        let _ = writeln!(
            out,
            "latency-domination: {}",
            if self.passed() {
                "all bounds dominate".to_string()
            } else {
                format!(
                    "{} spec(s) exceed their bound",
                    self.rows.iter().filter(|r| !r.dominated()).count() + self.underivable
                )
            }
        );
        out
    }
}

/// The numeric half of the spec checker's latency property: for every
/// coherent spec, run the canonical `node-outage` campaign, measure the
/// stale-fraction reconvergence time, and verify the symbolic worst-case
/// bound from [`sigfsm::repair_latency_bound`] — evaluated at the
/// experiment's own operating point (Kazaa defaults with the [`LOSS`]
/// override, quantile [`EPSILON`]) — dominates it.  `repro check-specs`
/// runs this after the structural passes and fails on any violation.  The
/// measurements fan out across specs under `options.execution`; the report
/// is identical under every policy.
pub fn check_latency_domination(options: &ExperimentOptions) -> DominationReport {
    domination_report(&sigfsm::coherent_specs(), options)
}

/// [`check_latency_domination`] over an explicit spec list: the bounds are
/// derived serially, then the derivable specs' measurements fan out as one
/// engine job each.
fn domination_report(specs: &[ProtocolSpec], options: &ExperimentOptions) -> DominationReport {
    let (retry_factor, retry_cap) = options.retry_kind.policy().bound_terms();
    let p = BoundParams::from_single_hop(&NodeOutageExperiment::params(), EPSILON)
        .with_retry_terms(retry_factor, retry_cap);
    let mut derived = Vec::new();
    let mut bounds = Vec::new();
    let mut underivable = 0;
    for &spec in specs {
        // The specs are coherent (coherent_specs() pre-validates), so
        // derivation only fails if the structural latency property is itself
        // broken; count it instead of panicking so check-specs reports the
        // failure as a gate result.
        let Ok(bound) = repair_latency_bound(spec) else {
            underivable += 1;
            continue;
        };
        derived.push(spec);
        bounds.push(bound);
    }
    let measured = NodeOutageExperiment::measure_all(&derived, options);
    let rows = derived
        .iter()
        .zip(bounds)
        .zip(measured)
        .map(|((spec, bound), (_, _, metrics))| DominationRow {
            code: siganalytic::fsm::mechanism_code(spec),
            measured_secs: metrics.reconverge_secs,
            bound_expr: bound.reconverge.render(),
            bound_secs: bound.reconverge.eval(&p),
        })
        .collect();
    DominationReport {
        sessions: NodeOutageExperiment::sessions(options),
        rows,
        underivable,
    }
}

impl Experiment for NodeOutageExperiment {
    fn name(&self) -> &str {
        "node-outage"
    }

    fn description(&self) -> &str {
        "timeout-avalanche recovery: false-removal spike, stale-fraction \
         reconvergence time and recovery message cost after a scheduled \
         link outage, per mechanism composition"
    }

    fn tags(&self) -> Vec<String> {
        vec![
            "extra".into(),
            "simulation".into(),
            "node".into(),
            "fault".into(),
        ]
    }

    fn run(&self, options: &ExperimentOptions) -> ExperimentOutput {
        let protocols = options.protocol_set(&self.default_set);
        let sessions = Self::sessions(options);
        let outage_end = OUTAGE_START + OUTAGE_SECS;
        let mut text = String::new();
        let _ = writeln!(
            text,
            "node-outage: N = {sessions} sessions, horizon = {HORIZON} s, loss = {LOSS}, \
             blackout [{OUTAGE_START}, {outage_end}) s, epsilon = {EPSILON}"
        );
        let _ = writeln!(
            text,
            "{:<12} {:>12} {:>12} {:>9} {:>12} {:>13} {:>12}",
            "protocol",
            "base fr/s",
            "peak fr/s",
            "amplif",
            "reconverge s",
            "recovery msg",
            "drops inj"
        );
        let measured = Self::measure_all(&protocols, options);
        for (&protocol, (result, phases, m)) in protocols.iter().zip(measured) {
            let _ = writeln!(
                text,
                "{:<12} {:>12.4} {:>12.1} {:>8.1}x {:>12.1} {:>13.0} {:>12}",
                protocol.label(),
                m.baseline_false_removal_rate,
                m.peak_false_removal_rate,
                m.spike_amplification,
                m.reconverge_secs,
                m.recovery_messages,
                result.drops_injected,
            );
            if options.timing {
                eprintln!(
                    "timing: node-outage[{:<10}] schedule {:>7.3} s   fire {:>7.3} s   \
                     metrics {:>7.3} s   ({} events)",
                    protocol.label(),
                    phases.schedule,
                    phases.fire,
                    phases.metrics,
                    result.events_processed,
                );
            }
        }
        ExperimentOutput::Text(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siganalytic::Protocol;
    use simcore::QueueKind;

    fn tiny_options() -> ExperimentOptions {
        ExperimentOptions {
            sim_replications: 5,
            ..ExperimentOptions::quick()
        }
    }

    fn row<'a>(text: &'a str, label: &str) -> Vec<&'a str> {
        text.lines()
            .find(|l| l.starts_with(&format!("{label} ")))
            .unwrap_or_else(|| panic!("{label} missing:\n{text}"))
            .split_whitespace()
            .collect()
    }

    #[test]
    fn session_budget_tracks_the_replication_budget() {
        assert_eq!(
            NodeOutageExperiment::sessions(&ExperimentOptions::default()),
            SESSIONS_FULL
        );
        assert_eq!(
            NodeOutageExperiment::sessions(&ExperimentOptions::quick()),
            SESSIONS_QUICK
        );
    }

    #[test]
    fn soft_state_avalanches_and_hard_state_does_not() {
        let exp = NodeOutageExperiment::new(vec![Protocol::Ss.spec(), Protocol::Hs.spec()]);
        let text = exp.run(&tiny_options()).to_text();
        let ss = row(&text, "SS");
        let hs = row(&text, "HS");
        // Columns: protocol, base fr/s, peak fr/s, amplif, reconverge,
        // recovery msg, drops inj.
        let peak_ss: f64 = ss[2].parse().unwrap();
        let peak_hs: f64 = hs[2].parse().unwrap();
        assert!(
            peak_ss > 100.0,
            "SS avalanche peak {peak_ss} too small:\n{text}"
        );
        assert_eq!(peak_hs, 0.0, "HS must not false-remove on silence:\n{text}");
        let drops_ss: u64 = ss[6].parse().unwrap();
        let drops_hs: u64 = hs[6].parse().unwrap();
        assert!(drops_ss > 1000 && drops_hs > 100, "{text}");
    }

    #[test]
    fn table_is_bit_identical_across_policies_and_queue_kinds() {
        // Three protocols, so the threaded arms really fan out (one engine
        // job per protocol) and must still render rows in protocol order.
        let exp = NodeOutageExperiment::new(vec![
            Protocol::Ss.spec(),
            Protocol::Hs.spec(),
            Protocol::SsRtr.spec(),
        ]);
        let serial = exp
            .run(&tiny_options().with_execution(ExecutionPolicy::Serial))
            .to_text();
        for threads in [2, 4] {
            let threaded = exp
                .run(&tiny_options().with_execution(ExecutionPolicy::threads(threads)))
                .to_text();
            assert_eq!(serial, threaded, "threads({threads}) diverged");
        }
        // Queue kinds: the config builder pins the heap core; rebuild the
        // same campaign on the calendar core and compare the raw results.
        let options = tiny_options();
        let heap_cfg = NodeOutageExperiment::config(Protocol::Ss.spec(), &options);
        let cal_cfg = heap_cfg.with_queue_kind(QueueKind::Calendar);
        let (a, _, _, ta) = NodeCampaign::new(heap_cfg, 1, options.seed).run_traced();
        let (b, _, _, tb) = NodeCampaign::new(cal_cfg, 1, options.seed).run_traced();
        assert_eq!(a, b, "calendar queue diverged");
        assert_eq!(ta, tb, "calendar trace diverged");
    }

    #[test]
    fn gilbert_elliott_option_changes_the_table_but_not_determinism() {
        use crate::experiment::LossKind;
        let exp = NodeOutageExperiment::new(vec![Protocol::Ss.spec()]);
        let bernoulli = exp.run(&tiny_options()).to_text();
        let gilbert_options = tiny_options().with_loss_kind(LossKind::GilbertElliott);
        let gilbert = exp.run(&gilbert_options).to_text();
        assert_ne!(bernoulli, gilbert, "bursty loss must change the transient");
        let again = exp.run(&gilbert_options).to_text();
        assert_eq!(gilbert, again);
    }

    #[test]
    fn symbolic_bound_dominates_measured_reconvergence_for_paper_presets() {
        let options = tiny_options();
        let p = BoundParams::from_single_hop(&NodeOutageExperiment::params(), EPSILON);
        // The full 33-spec sweep is `repro check-specs` territory (release
        // build, CI gate); the debug test pins the three mechanism families
        // with distinct bound shapes: pure soft state (refresh chain), pure
        // hard state (notify + retransmit), and the all-mechanisms spec
        // (both backstops).
        for spec in [ProtocolSpec::SS, ProtocolSpec::HS, ProtocolSpec::SS_RTR] {
            let (_, _, m) = NodeOutageExperiment::measure(spec, &options);
            let bound = repair_latency_bound(spec).expect("paper presets are coherent");
            let b = bound.reconverge.eval(&p);
            assert!(
                m.reconverge_secs.is_finite() && b >= m.reconverge_secs,
                "{spec}: bound {} = {b} does not dominate measured {}",
                bound.reconverge.render(),
                m.reconverge_secs
            );
        }
    }

    #[test]
    fn domination_report_is_identical_across_policies() {
        // The check fans its measurements out one engine job per spec; the
        // report (rows in spec order, underivable count) must not depend on
        // the policy.  Three specs keep the debug-profile test fast.
        let specs = [ProtocolSpec::SS, ProtocolSpec::HS, ProtocolSpec::SS_RTR];
        let serial = domination_report(
            &specs,
            &tiny_options().with_execution(ExecutionPolicy::Serial),
        );
        let threaded = domination_report(
            &specs,
            &tiny_options().with_execution(ExecutionPolicy::threads(4)),
        );
        assert_eq!(serial, threaded);
        let codes: Vec<String> = specs.iter().map(siganalytic::fsm::mechanism_code).collect();
        let rows: Vec<String> = serial.rows.iter().map(|r| r.code.clone()).collect();
        assert_eq!(rows, codes);
        assert_eq!(serial.underivable, 0);
    }

    #[test]
    fn domination_report_renders_pass_fail_and_counts_underivable() {
        let row = |code: &str, measured: f64, bound: f64| DominationRow {
            code: code.into(),
            measured_secs: measured,
            bound_expr: "T + (N-1)*T + D".into(),
            bound_secs: bound,
        };
        let ok = DominationReport {
            sessions: 4096,
            rows: vec![row("btb--", 6.0, 10.03)],
            underivable: 0,
        };
        assert!(ok.passed());
        assert!(ok.render().contains("all bounds dominate"));
        let tight = DominationReport {
            sessions: 4096,
            rows: vec![row("btb--", 12.0, 10.03), row("--rrn", f64::INFINITY, 0.18)],
            underivable: 1,
        };
        assert!(!tight.passed());
        let text = tight.render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("3 spec(s) exceed their bound"), "{text}");
        assert!(
            text.contains("1 coherent spec(s) had no derivable bound"),
            "{text}"
        );
    }

    #[test]
    fn respects_protocol_override() {
        let exp = NodeOutageExperiment::new(vec![Protocol::Ss.spec()]);
        let options = tiny_options().with_protocols(vec![ProtocolSpec::HS]);
        let text = exp.run(&options).to_text();
        assert!(text.contains("HS"));
        assert!(!text.lines().any(|l| l.starts_with("SS ")));
    }
}
