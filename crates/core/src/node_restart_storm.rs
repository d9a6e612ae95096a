//! The `node-restart-storm` experiment: mass crash–restart under a
//! receiver capacity limit, per retransmission retry policy.
//!
//! `node-outage` charts the timeout avalanche after one blackout; this
//! experiment charts the *restart storm*, the population-scale failure mode
//! the ROADMAP's crash–restart item asks about.  Each storm wave is a short
//! blackout immediately followed by a [`CrashRestart`](sigproto::FaultEvent)
//! that wipes the node's state: the blackout silences acknowledgments so
//! every reliable mechanism opens a retransmission cycle, and the wipe then
//! forces the whole population to re-install at once.  Under the paper's
//! fixed retransmission interval all those retries stay synchronized, so
//! each wave lands on the receiver as one burst per `R` — and with a finite
//! receiver [`CapacityModel`](sigproto::CapacityModel) those bursts overflow
//! the signaling queue over and over instead of spreading out.
//!
//! The table runs every selected protocol × every [`RetryKind`] (fixed /
//! capped exponential backoff / decorrelated jitter) with the capacity limit
//! enabled and reports: the stale-fraction reconvergence time after the last
//! wave, the peak signaling rate (the storm envelope), the overload drops
//! and the fraction of signaling messages lost to overload, and the retry
//! cost in messages per session.  Backoff and jitter bound the storm — lower
//! peak, lower overload fraction — while fixed-interval retries under the
//! same capacity can sustain overload for the whole blackout.  Like every
//! simulation table it is bit-identical across execution policies and queue
//! kinds.
//!
//! The default protocol set is injected at construction (the `repro`
//! registry passes the full coherent-spec spectrum), and `--protocols`
//! overrides it like everywhere else.

use crate::experiment::{ExperimentOptions, ExperimentOutput, RetryKind};
use crate::registry::Experiment;
use siganalytic::{ProtocolSpec, SingleHopParams};
use sigproto::node::MESSAGE_BYTES;
use sigproto::{
    CapacityModel, CrashStatePolicy, FaultEvent, FaultSchedule, NodeCampaign, NodeConfig,
    RecoveryMetrics,
};
use simcore::{Assignment, ExecutionPolicy, ReplicationEngine};
use std::fmt::Write as _;

/// When the first storm wave starts (seconds of virtual time): late enough
/// that the population and its per-second baselines are in steady state.
pub const STORM_START: f64 = 60.0;

/// Blackout length before each wipe (seconds).  Short of the state timeout
/// (no timeout avalanche — that is `node-outage`'s exhibit) but many
/// retransmission intervals long, so the reliable mechanisms' retry cycles
/// run up their full cost before the crash.
pub const BLACKOUT_SECS: f64 = 10.0;

/// Spacing between wave starts (seconds): enough room for the population to
/// re-install between waves, so each wave hits a re-converged node.
pub const WAVE_SPACING: f64 = 40.0;

/// Number of blackout-then-wipe waves.  Multi-wave storms are exactly what
/// the lifted [`sigproto::MAX_FAULT_EVENTS`] cap exists for (two fault
/// events per wave).
pub const WAVES: usize = 3;

/// Virtual-time horizon (seconds): a minute of steady state, three waves,
/// and ninety seconds of recovery after the last wipe.
pub const HORIZON: f64 = 240.0;

/// Mean session lifetime (seconds).  Deliberately churnier than the other
/// node experiments: every arrival during a blackout opens an
/// unacknowledgeable trigger cycle and every departure an unacknowledgeable
/// removal cycle, so the churn rate sets how many synchronized
/// retransmission cycles each wave accumulates — the storm's amplitude.
pub const MEAN_LIFETIME: f64 = 120.0;

/// Mean vacancy between sessions in a slot (seconds); with
/// [`MEAN_LIFETIME`] this puts the per-node churn at
/// `N / (lifetime + vacancy)` arrivals (and departures) per second.
pub const MEAN_VACANCY: f64 = 30.0;

/// Channel loss, matching `node-outage` so the steady-state baselines of
/// the two fault tables describe the same regime.
pub const LOSS: f64 = 0.05;

/// Stale-fraction reconvergence tolerance (absolute).
pub const EPSILON: f64 = 0.02;

/// Receiver service rate per session (messages/sec): about twice the
/// steady-state per-session forward signaling rate (refreshes dominate at
/// `active/N · 1/T ≈ 0.16`), so the capacity limit is invisible in steady
/// state and binds exactly during the synchronized post-blackout
/// retransmission burst, whose instantaneous rate is an order of magnitude
/// above it under fixed-interval retry.
pub const CAPACITY_PER_SESSION: f64 = 0.35;

/// Receiver signaling-queue limit (messages).  Small relative to the
/// population: a synchronized retry wave overflows it immediately, a
/// jittered one mostly drains through.
pub const QUEUE_LIMIT: u32 = 64;

/// Sessions at the full (default) replication budget.
pub const SESSIONS_FULL: usize = 16_384;

/// Sessions under `--quick` (small budgets): keeps CI interactive — the
/// table is 3 retry policies × every selected spec.
pub const SESSIONS_QUICK: usize = 1024;

/// The mass crash–restart experiment (registered as `node-restart-storm`).
pub struct NodeRestartStormExperiment {
    default_set: Vec<ProtocolSpec>,
}

impl NodeRestartStormExperiment {
    /// Creates the experiment with the default protocol set run when no
    /// `--protocols` override is given.
    pub fn new(default_set: Vec<ProtocolSpec>) -> Self {
        Self { default_set }
    }

    /// Per-session parameters: Kazaa defaults with the churn and loss
    /// overrides, external false signals disabled (as in `node-outage`) so
    /// the false-removal columns isolate the storm.
    pub fn params() -> SingleHopParams {
        let mut p = SingleHopParams::kazaa_defaults().with_mean_lifetime(MEAN_LIFETIME);
        p.loss = LOSS;
        p.false_signal_rate = 0.0;
        p
    }

    /// The session count times the steady-state blackout churn: how many
    /// retransmission cycles one wave leaves synchronized, the quantity the
    /// capacity constants are sized against.
    pub fn cycles_per_wave(sessions: usize) -> f64 {
        2.0 * sessions as f64 * BLACKOUT_SECS / (MEAN_LIFETIME + MEAN_VACANCY)
    }

    /// The storm schedule: [`WAVES`] staggered blackout-then-wipe pairs.
    pub fn faults() -> FaultSchedule {
        let mut events = Vec::with_capacity(2 * WAVES);
        for wave in 0..WAVES {
            let start = STORM_START + wave as f64 * WAVE_SPACING;
            events.push(FaultEvent::Outage {
                start,
                duration: BLACKOUT_SECS,
            });
            events.push(FaultEvent::CrashRestart {
                at: start + BLACKOUT_SECS,
                state_policy: CrashStatePolicy::Wipe,
            });
        }
        FaultSchedule::from_events(&events)
            // sigtidy: allow(no-unwrap) — constant schedule, validity pinned by the tests below
            .expect("the canonical storm schedule is valid")
    }

    /// When the last wipe lands — the fault end the recovery metrics
    /// measure reconvergence from.
    pub fn last_wipe() -> f64 {
        STORM_START + (WAVES - 1) as f64 * WAVE_SPACING + BLACKOUT_SECS
    }

    /// Sessions for the given options: the population regime at the full
    /// replication budget, a CI-sized node under `--quick`.
    pub fn sessions(options: &ExperimentOptions) -> usize {
        if options.sim_replications >= 20 {
            SESSIONS_FULL
        } else {
            SESSIONS_QUICK
        }
    }

    /// The receiver capacity for a node of `sessions` sessions.
    pub fn capacity(sessions: usize) -> CapacityModel {
        CapacityModel::limited(sessions as f64 * CAPACITY_PER_SESSION, QUEUE_LIMIT)
            // sigtidy: allow(no-unwrap) — constant per-session rate and limit, pinned by tests
            .expect("the canonical capacity limit is valid")
    }

    /// The node configuration for one protocol and one retry policy under
    /// the canonical storm and capacity limit.
    pub fn config(
        protocol: ProtocolSpec,
        retry: RetryKind,
        options: &ExperimentOptions,
    ) -> NodeConfig {
        let sessions = Self::sessions(options);
        let mut config = NodeConfig::new(protocol, Self::params(), sessions)
            .with_horizon(HORIZON)
            .with_mean_vacancy(MEAN_VACANCY)
            .with_fault_schedule(Self::faults())
            .with_retry_policy(retry.policy())
            .with_capacity(Self::capacity(sessions));
        if let Some(model) = options.loss_kind.model_for(config.params.loss) {
            config = config.with_loss_model(model);
        }
        config
    }

    /// Runs the canonical storm for one protocol × retry policy and derives
    /// the recovery metrics of the transient plus the re-install
    /// convergence time.
    ///
    /// The campaign is a single replication and always runs serially: the
    /// table fans out across protocol × retry policy instead, so a worker
    /// never spawns nested threads.
    pub fn measure(
        protocol: ProtocolSpec,
        retry: RetryKind,
        options: &ExperimentOptions,
    ) -> (
        sigproto::NodeCampaignResult,
        sigproto::PhaseTimings,
        RecoveryMetrics,
        f64,
    ) {
        let campaign = NodeCampaign::new(Self::config(protocol, retry, options), 1, options.seed)
            .execution(ExecutionPolicy::Serial);
        let (result, phases, _, trace) = campaign.run_traced();
        let metrics = RecoveryMetrics::derive(&trace, STORM_START, Self::last_wipe(), EPSILON);
        let reinstall = Self::reinstall_secs(&trace);
        (result, phases, metrics, reinstall)
    }

    /// Re-install convergence time: how long after the last wipe the live
    /// install *coverage* — receiver-held entries for still-alive senders,
    /// `(held − stale) / active` — takes to return within [`EPSILON`] of
    /// its pre-storm baseline, in seconds.
    ///
    /// The stale-fraction reconvergence of [`RecoveryMetrics`] measures the
    /// outage transient (orphaned state); a wipe instead *deletes* state
    /// for senders that are still alive, so the restart transient shows up
    /// as depressed coverage.  Soft state heals it within a few refresh
    /// intervals; hard state has no periodic stream and stays unconverged
    /// ([`f64::INFINITY`]) until churn replaces the wiped sessions.
    pub fn reinstall_secs(trace: &sigproto::RecoveryTrace) -> f64 {
        let w = trace.bin_secs;
        let n = trace.bins();
        let coverage = |i: usize| {
            if trace.active[i] > 0.0 {
                (trace.held[i] - trace.stale[i]) / trace.active[i]
            } else {
                1.0
            }
        };
        let pre = ((STORM_START / w).floor() as usize).min(n);
        if pre == 0 {
            return f64::INFINITY;
        }
        let baseline = (0..pre).map(coverage).sum::<f64>() / pre as f64;
        let resume = ((Self::last_wipe() / w).ceil() as usize).min(n);
        let mut last_violation = None;
        for i in resume..n {
            if (coverage(i) - baseline).abs() > EPSILON {
                last_violation = Some(i);
            }
        }
        match last_violation {
            None => 0.0,
            Some(i) if i + 1 == n => f64::INFINITY,
            Some(i) => ((i + 1) as f64 * w - Self::last_wipe()).max(0.0),
        }
    }

    /// The fraction of signaling messages the receiver's capacity queue
    /// dropped to overload.
    pub fn overload_fraction(result: &sigproto::NodeCampaignResult) -> f64 {
        let total = result.messages.signaling_total();
        if total == 0 {
            0.0
        } else {
            result.drops_overload as f64 / total as f64
        }
    }
}

impl Experiment for NodeRestartStormExperiment {
    fn name(&self) -> &str {
        "node-restart-storm"
    }

    fn description(&self) -> &str {
        "mass crash-restart under a receiver capacity limit: re-install \
         convergence, peak signaling rate, overload-drop fraction and retry \
         cost per mechanism composition x retry policy (fixed / backoff / \
         jittered)"
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
        let mut text = String::new();
        let _ = writeln!(
            text,
            "node-restart-storm: N = {sessions} sessions, horizon = {HORIZON} s, \
             loss = {LOSS}, {WAVES} waves of [{BLACKOUT_SECS} s blackout + wipe] \
             every {WAVE_SPACING} s from {STORM_START} s, capacity = \
             {CAPACITY_PER_SESSION} msg/s/session (queue {QUEUE_LIMIT}), \
             epsilon = {EPSILON}"
        );
        let _ = writeln!(
            text,
            "{:<12} {:<9} {:>11} {:>12} {:>12} {:>10} {:>9} {:>10}",
            "protocol",
            "retry",
            "reinstall s",
            "reconverge s",
            "peak msg/s",
            "ovl drops",
            "ovl frac",
            "msg/sess"
        );
        // One engine job per protocol × retry policy, protocol-major (the
        // table's row order).  Work stealing: per-job costs are skewed across
        // the spectrum, and the dynamic assignment is bit-identical to
        // serial execution anyway.
        let jobs: Vec<(ProtocolSpec, RetryKind)> = protocols
            .iter()
            .flat_map(|&p| RetryKind::ALL.map(|retry| (p, retry)))
            .collect();
        let measured = ReplicationEngine::new(options.execution)
            .with_assignment(Assignment::WorkStealing)
            .run(jobs.len(), &|i: u64| {
                let (protocol, retry) = jobs[i as usize];
                Self::measure(protocol, retry, options)
            });
        for (&(protocol, retry), (result, phases, m, reinstall)) in jobs.iter().zip(measured) {
            let _ = writeln!(
                text,
                "{:<12} {:<9} {:>11.1} {:>12.1} {:>12.1} {:>10} {:>9.4} {:>10.1}",
                protocol.label(),
                retry.label(),
                reinstall,
                m.reconverge_secs,
                result.peak_bandwidth_bytes_per_sec.mean / MESSAGE_BYTES,
                result.drops_overload,
                Self::overload_fraction(&result),
                result.messages.signaling_total() as f64 / sessions as f64,
            );
            if options.timing {
                eprintln!(
                    "timing: node-restart-storm[{:<10} {:<8}] schedule {:>7.3} s   \
                     fire {:>7.3} s   metrics {:>7.3} s   ({} events)",
                    protocol.label(),
                    retry.label(),
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

    #[test]
    fn schedule_and_capacity_constants_are_valid() {
        let faults = NodeRestartStormExperiment::faults();
        assert_eq!(faults.len(), 2 * WAVES);
        faults.validate().expect("canonical schedule validates");
        assert_eq!(NodeRestartStormExperiment::last_wipe(), 150.0);
        assert!(NodeRestartStormExperiment::last_wipe() < HORIZON);
        let capacity = NodeRestartStormExperiment::capacity(SESSIONS_QUICK);
        assert!(!capacity.is_unlimited());
        assert_eq!(
            NodeRestartStormExperiment::sessions(&ExperimentOptions::default()),
            SESSIONS_FULL
        );
        assert_eq!(
            NodeRestartStormExperiment::sessions(&ExperimentOptions::quick()),
            SESSIONS_QUICK
        );
    }

    #[test]
    fn backoff_and_jitter_bound_the_storm_for_a_reliable_spec() {
        // The acceptance property: under the capacity limit, both
        // overload-aware policies beat fixed-interval retry on the storm
        // peak *and* the overload-drop fraction, for a composition whose
        // mechanisms all retransmit (SS+RTR: reliable trigger + reliable
        // refresh + timeout).
        let options = tiny_options();
        let spec = Protocol::SsRtr.spec();
        let (fixed, _, _, _) =
            NodeRestartStormExperiment::measure(spec, RetryKind::Fixed, &options);
        let (backoff, _, _, _) =
            NodeRestartStormExperiment::measure(spec, RetryKind::Backoff, &options);
        let (jittered, _, _, _) =
            NodeRestartStormExperiment::measure(spec, RetryKind::Jittered, &options);
        for (label, r) in [("backoff", &backoff), ("jittered", &jittered)] {
            assert!(
                r.peak_bandwidth_bytes_per_sec.mean < fixed.peak_bandwidth_bytes_per_sec.mean,
                "{label} peak {} not below fixed {}",
                r.peak_bandwidth_bytes_per_sec.mean,
                fixed.peak_bandwidth_bytes_per_sec.mean
            );
            assert!(
                NodeRestartStormExperiment::overload_fraction(r)
                    < NodeRestartStormExperiment::overload_fraction(&fixed),
                "{label} overload fraction {} not below fixed {}",
                NodeRestartStormExperiment::overload_fraction(r),
                NodeRestartStormExperiment::overload_fraction(&fixed)
            );
        }
        // Fixed-interval retries under the capacity limit do sustain real
        // overload (the table's point, not just a marginal difference).
        assert!(
            fixed.drops_overload > 0,
            "fixed policy never overflowed: {fixed:?}"
        );
    }

    #[test]
    fn soft_state_reinstalls_fast_but_hard_state_stays_wiped() {
        // The wipe deletes held state for live senders.  Soft state's
        // periodic refreshes re-install coverage within a few refresh
        // intervals; pure hard state has no periodic stream, so coverage
        // stays depressed until churn replaces the wiped sessions — longer
        // than the post-storm horizon.
        let options = tiny_options();
        let (_, _, _, ss) =
            NodeRestartStormExperiment::measure(Protocol::Ss.spec(), RetryKind::Fixed, &options);
        let (_, _, _, hs) =
            NodeRestartStormExperiment::measure(Protocol::Hs.spec(), RetryKind::Fixed, &options);
        assert!(
            ss.is_finite() && ss < 30.0,
            "soft-state re-install took {ss} s"
        );
        assert!(
            hs > HORIZON - NodeRestartStormExperiment::last_wipe(),
            "hard state {hs} s"
        );
    }

    #[test]
    fn table_is_bit_identical_across_policies_and_queue_kinds() {
        // Two protocols × three retry policies: six engine jobs, so the
        // threaded arms really fan out and must keep the protocol-major
        // row order.
        let exp =
            NodeRestartStormExperiment::new(vec![Protocol::Ss.spec(), Protocol::SsRtr.spec()]);
        let serial = exp
            .run(&tiny_options().with_execution(ExecutionPolicy::Serial))
            .to_text();
        for threads in [2, 4] {
            let threaded = exp
                .run(&tiny_options().with_execution(ExecutionPolicy::threads(threads)))
                .to_text();
            assert_eq!(serial, threaded, "threads({threads}) diverged");
        }
        // Queue kinds: rebuild the same campaign on the calendar core and
        // compare raw results and traces.
        let options = tiny_options();
        let heap_cfg = NodeRestartStormExperiment::config(
            Protocol::SsRtr.spec(),
            RetryKind::Jittered,
            &options,
        );
        let cal_cfg = heap_cfg.with_queue_kind(QueueKind::Calendar);
        let (a, _, _, ta) = NodeCampaign::new(heap_cfg, 1, options.seed).run_traced();
        let (b, _, _, tb) = NodeCampaign::new(cal_cfg, 1, options.seed).run_traced();
        assert_eq!(a, b, "calendar queue diverged");
        assert_eq!(ta, tb, "calendar trace diverged");
    }

    #[test]
    fn every_retry_policy_row_is_rendered_per_protocol() {
        let exp = NodeRestartStormExperiment::new(vec![Protocol::Ss.spec()]);
        let text = exp.run(&tiny_options()).to_text();
        for label in ["fixed", "backoff", "jittered"] {
            assert!(
                text.lines()
                    .any(|l| l.starts_with("SS ") && l.contains(label)),
                "missing SS x {label} row:\n{text}"
            );
        }
    }

    #[test]
    fn respects_protocol_override() {
        let exp = NodeRestartStormExperiment::new(vec![Protocol::Ss.spec()]);
        let options = tiny_options().with_protocols(vec![ProtocolSpec::HS]);
        let text = exp.run(&options).to_text();
        assert!(text.contains("HS"));
        assert!(!text.lines().any(|l| l.starts_with("SS ")));
    }
}
