//! The experiment registry: one entry per table / figure of the paper's
//! evaluation section.
//!
//! Each [`ExperimentId`] names one sub-figure (or Table I) and
//! [`ExperimentId::run`] regenerates its data: the same parameter sweeps, the
//! same protocols, the same metrics.  Analytic experiments are exact and
//! fast; the simulation experiments (Figures 11 and 12) run replicated
//! discrete-event campaigns whose size is controlled by
//! [`ExperimentOptions`].

use crate::compare::compare_session;
use siganalytic::single_hop::protocol_transitions;
use siganalytic::{
    MultiHopParams, MultiHopSolution, MultiHopSweepSession, ProtocolSpec, SingleHopParams,
    SingleHopSolution, SingleHopSweepSession,
};
use sigproto::{LossModel, SessionConfig};
use sigstats::{Point, Series, SeriesSet};
use sigworkload::Sweep;
use simcore::{Assignment, ExecutionPolicy, ReplicationEngine, TimerMode};
use std::cell::RefCell;

/// Options controlling the simulation-backed experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Independent replications per simulated point.
    pub sim_replications: usize,
    /// Number of sweep points for simulation experiments (analytic curves
    /// keep the full grid).
    pub sim_points: usize,
    /// Campaign seed (replications derive their own streams from it).
    pub seed: u64,
    /// How simulation work is scheduled.  The sweep layer fans out whole
    /// campaigns — one unit per (protocol × sweep point) — under this
    /// policy, and the node fault experiments and the latency-domination
    /// check one unit per spec (× retry policy); results are bit-identical
    /// under every policy.
    pub execution: ExecutionPolicy,
    /// Optional protocol-set override.  `None` runs each experiment with
    /// its own default set (the paper's, for the built-ins); `Some` replaces
    /// that set with the given mechanism compositions, in order — this is
    /// how `repro --protocols` runs any figure over any design point.
    pub protocols: Option<Vec<ProtocolSpec>>,
    /// Print per-phase wall-clock breakdowns to stderr while running
    /// (`repro --timing`).  Experiments with internal phases — the
    /// node-scale simulation's schedule/fire/metrics split — report them
    /// under this flag; it never changes stdout output or any result.
    pub timing: bool,
    /// Which loss process the node-scale simulations draw from
    /// (`repro --loss`).  [`LossKind::Bernoulli`] is the paper's
    /// independent-loss model; [`LossKind::GilbertElliott`] keeps the same
    /// mean loss but correlates it into bursts (see
    /// [`LossModel::bursty`](sigproto::LossModel::bursty)), probing how
    /// much of the protocol comparison survives a harsher channel.
    pub loss_kind: LossKind,
    /// Which retransmission retry discipline the node-scale simulations
    /// arm (`repro --retry`).  [`RetryKind::Fixed`] is the paper's fixed
    /// interval `R`; the backoff and jittered kinds are the
    /// overload-aware alternatives the `node-restart-storm` experiment
    /// compares.
    pub retry_kind: RetryKind,
}

/// The loss process selected by [`ExperimentOptions::loss_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LossKind {
    /// Independent Bernoulli loss at the parameter set's `loss` (default).
    #[default]
    Bernoulli,
    /// Gilbert–Elliott bursty loss at the same mean: Bad-state loss
    /// probability [`GE_P_BAD`], mean burst of [`GE_MEAN_BURST`] messages.
    GilbertElliott,
}

/// Bad-state loss probability of the Gilbert–Elliott option.
pub const GE_P_BAD: f64 = 0.5;

/// Mean Bad-state burst length (messages) of the Gilbert–Elliott option.
pub const GE_MEAN_BURST: f64 = 8.0;

impl LossKind {
    /// The node-simulator loss-model override this kind implies for a
    /// parameter set with mean loss `loss`: `None` for Bernoulli (the
    /// simulator's built-in default path), a mean-preserving bursty
    /// process otherwise.
    pub fn model_for(self, loss: f64) -> Option<sigproto::LossModel> {
        match self {
            LossKind::Bernoulli => None,
            LossKind::GilbertElliott => Some(sigproto::LossModel::bursty(
                loss.min(GE_P_BAD * 0.99),
                GE_P_BAD,
                GE_MEAN_BURST,
            )),
        }
    }

    /// The CLI token naming this kind (`repro --loss <token>`).
    pub fn label(self) -> &'static str {
        match self {
            LossKind::Bernoulli => "bernoulli",
            LossKind::GilbertElliott => "gilbert",
        }
    }
}

/// The retransmission retry discipline selected by
/// [`ExperimentOptions::retry_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryKind {
    /// Fixed interval `R` (the paper's behavior; default).
    #[default]
    Fixed,
    /// Capped exponential backoff with the retry module's default factor
    /// and cap.
    Backoff,
    /// Decorrelated jitter with the retry module's default cap.
    Jittered,
}

impl RetryKind {
    /// Every kind, in table order.
    pub const ALL: [RetryKind; 3] = [RetryKind::Fixed, RetryKind::Backoff, RetryKind::Jittered];

    /// The simulator retry policy this kind selects.
    pub fn policy(self) -> sigproto::RetryPolicy {
        match self {
            RetryKind::Fixed => sigproto::RetryPolicy::Fixed,
            RetryKind::Backoff => sigproto::RetryPolicy::backoff(),
            RetryKind::Jittered => sigproto::RetryPolicy::jittered(),
        }
    }

    /// The CLI token naming this kind (`repro --retry <token>`).
    pub fn label(self) -> &'static str {
        match self {
            RetryKind::Fixed => "fixed",
            RetryKind::Backoff => "backoff",
            RetryKind::Jittered => "jittered",
        }
    }
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            sim_replications: 40,
            sim_points: 6,
            seed: 2003,
            execution: ExecutionPolicy::auto(),
            protocols: None,
            timing: false,
            loss_kind: LossKind::default(),
            retry_kind: RetryKind::default(),
        }
    }
}

impl ExperimentOptions {
    /// A reduced configuration for quick checks and CI runs.
    pub fn quick() -> Self {
        Self {
            sim_replications: 10,
            sim_points: 4,
            ..Self::default()
        }
    }

    /// The same experiment sizes with an explicit execution policy.
    pub fn with_execution(mut self, execution: ExecutionPolicy) -> Self {
        self.execution = execution;
        self
    }

    /// Overrides the protocol set experiments run with (see
    /// [`ExperimentOptions::protocols`]).
    pub fn with_protocols(mut self, protocols: Vec<ProtocolSpec>) -> Self {
        self.protocols = Some(protocols);
        self
    }

    /// Enables per-phase wall-clock reporting on stderr (see
    /// [`ExperimentOptions::timing`]).
    pub fn with_timing(mut self, timing: bool) -> Self {
        self.timing = timing;
        self
    }

    /// Selects the loss process (see [`ExperimentOptions::loss_kind`]).
    pub fn with_loss_kind(mut self, kind: LossKind) -> Self {
        self.loss_kind = kind;
        self
    }

    /// Selects the retry discipline (see [`ExperimentOptions::retry_kind`]).
    pub fn with_retry_kind(mut self, kind: RetryKind) -> Self {
        self.retry_kind = kind;
        self
    }

    /// The protocol set an experiment should run with: the override if one
    /// was given, the experiment's own `default` set otherwise.
    ///
    /// # Panics
    /// Panics with the
    /// [`ProtocolSetError`](crate::registry::ProtocolSetError) message if
    /// the override contains an incoherent spec or duplicate labels
    /// (mirroring how running an invalid
    /// [`ExperimentSpec`](crate::registry::ExperimentSpec) panics with its
    /// [`SpecError`](crate::registry::SpecError)); check override sets up
    /// front with [`check_protocol_set`](crate::registry::check_protocol_set)
    /// — or resolve them through a
    /// [`ProtocolRegistry`](crate::registry::ProtocolRegistry), which
    /// validates at registration — to turn these into typed errors.
    pub fn protocol_set(&self, default: &[ProtocolSpec]) -> Vec<ProtocolSpec> {
        match &self.protocols {
            Some(set) => {
                if let Err(e) = crate::registry::check_protocol_set(set) {
                    // sigtidy: allow(no-unwrap) — documented API contract ("# Panics" above)
                    panic!("the protocol override is not runnable: {e}");
                }
                set.clone()
            }
            None => default.to_vec(),
        }
    }
}

/// Output of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentOutput {
    /// A figure: one or more series over a shared x axis.
    Figure(SeriesSet),
    /// A textual table (Table I).
    Text(String),
}

impl ExperimentOutput {
    /// The figure data, if this output is a figure.
    pub fn as_figure(&self) -> Option<&SeriesSet> {
        match self {
            ExperimentOutput::Figure(s) => Some(s),
            ExperimentOutput::Text(_) => None,
        }
    }

    /// Renders the output as plain text (a table for figures).
    pub fn to_text(&self) -> String {
        match self {
            ExperimentOutput::Figure(s) => s.to_table(),
            ExperimentOutput::Text(t) => t.clone(),
        }
    }
}

/// Identifier of one paper table or (sub-)figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ExperimentId {
    Table1,
    Fig4a,
    Fig4b,
    Fig5a,
    Fig5b,
    Fig6a,
    Fig6b,
    Fig7,
    Fig8a,
    Fig8b,
    Fig9,
    Fig10a,
    Fig10b,
    Fig11a,
    Fig11b,
    Fig12a,
    Fig12b,
    Fig17,
    Fig18a,
    Fig18b,
    Fig19a,
    Fig19b,
}

impl ExperimentId {
    /// Every experiment, in paper order.
    pub const ALL: [ExperimentId; 22] = [
        ExperimentId::Table1,
        ExperimentId::Fig4a,
        ExperimentId::Fig4b,
        ExperimentId::Fig5a,
        ExperimentId::Fig5b,
        ExperimentId::Fig6a,
        ExperimentId::Fig6b,
        ExperimentId::Fig7,
        ExperimentId::Fig8a,
        ExperimentId::Fig8b,
        ExperimentId::Fig9,
        ExperimentId::Fig10a,
        ExperimentId::Fig10b,
        ExperimentId::Fig11a,
        ExperimentId::Fig11b,
        ExperimentId::Fig12a,
        ExperimentId::Fig12b,
        ExperimentId::Fig17,
        ExperimentId::Fig18a,
        ExperimentId::Fig18b,
        ExperimentId::Fig19a,
        ExperimentId::Fig19b,
    ];

    /// The experiments that require discrete-event simulation (slower).
    pub fn uses_simulation(self) -> bool {
        matches!(
            self,
            ExperimentId::Fig11a
                | ExperimentId::Fig11b
                | ExperimentId::Fig12a
                | ExperimentId::Fig12b
        )
    }

    /// Stable short name, e.g. `"fig4a"`, usable as a CLI argument or a file
    /// stem.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Table1 => "table1",
            ExperimentId::Fig4a => "fig4a",
            ExperimentId::Fig4b => "fig4b",
            ExperimentId::Fig5a => "fig5a",
            ExperimentId::Fig5b => "fig5b",
            ExperimentId::Fig6a => "fig6a",
            ExperimentId::Fig6b => "fig6b",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig8a => "fig8a",
            ExperimentId::Fig8b => "fig8b",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Fig10a => "fig10a",
            ExperimentId::Fig10b => "fig10b",
            ExperimentId::Fig11a => "fig11a",
            ExperimentId::Fig11b => "fig11b",
            ExperimentId::Fig12a => "fig12a",
            ExperimentId::Fig12b => "fig12b",
            ExperimentId::Fig17 => "fig17",
            ExperimentId::Fig18a => "fig18a",
            ExperimentId::Fig18b => "fig18b",
            ExperimentId::Fig19a => "fig19a",
            ExperimentId::Fig19b => "fig19b",
        }
    }

    /// Parses a short name produced by [`ExperimentId::name`].
    pub fn parse(name: &str) -> Option<ExperimentId> {
        ExperimentId::ALL
            .iter()
            .copied()
            .find(|id| id.name() == name.to_ascii_lowercase())
    }

    /// One-line description of what the experiment reproduces.
    pub fn description(self) -> &'static str {
        match self {
            ExperimentId::Table1 => "Table I: protocol-specific CTMC transition rates",
            ExperimentId::Fig4a => "Fig 4(a): inconsistency vs mean state lifetime",
            ExperimentId::Fig4b => "Fig 4(b): normalized message rate vs mean state lifetime",
            ExperimentId::Fig5a => "Fig 5(a): inconsistency vs channel loss rate",
            ExperimentId::Fig5b => "Fig 5(b): inconsistency vs channel delay",
            ExperimentId::Fig6a => "Fig 6(a): inconsistency vs refresh timer",
            ExperimentId::Fig6b => "Fig 6(b): message rate vs refresh timer",
            ExperimentId::Fig7 => "Fig 7: integrated cost vs refresh timer",
            ExperimentId::Fig8a => "Fig 8(a): inconsistency vs state-timeout timer",
            ExperimentId::Fig8b => "Fig 8(b): inconsistency vs retransmission timer",
            ExperimentId::Fig9 => "Fig 9: overhead/inconsistency tradeoff varying refresh timer",
            ExperimentId::Fig10a => "Fig 10(a): tradeoff varying update rate",
            ExperimentId::Fig10b => "Fig 10(b): tradeoff varying channel delay",
            ExperimentId::Fig11a => "Fig 11(a): analytic vs simulation, inconsistency vs lifetime",
            ExperimentId::Fig11b => "Fig 11(b): analytic vs simulation, message rate vs lifetime",
            ExperimentId::Fig12a => {
                "Fig 12(a): analytic vs simulation, inconsistency vs refresh timer"
            }
            ExperimentId::Fig12b => {
                "Fig 12(b): analytic vs simulation, message rate vs refresh timer"
            }
            ExperimentId::Fig17 => "Fig 17: per-hop inconsistency along a 20-hop path",
            ExperimentId::Fig18a => "Fig 18(a): inconsistency vs number of hops",
            ExperimentId::Fig18b => "Fig 18(b): message rate vs number of hops",
            ExperimentId::Fig19a => "Fig 19(a): multi-hop inconsistency vs refresh timer",
            ExperimentId::Fig19b => "Fig 19(b): multi-hop message rate vs refresh timer",
        }
    }

    /// Runs the experiment with default options.
    pub fn run(self) -> ExperimentOutput {
        self.run_with(&ExperimentOptions::default())
    }

    /// Runs the experiment with explicit options.
    pub fn run_with(self, options: &ExperimentOptions) -> ExperimentOutput {
        match self {
            ExperimentId::Table1 => ExperimentOutput::Text(table1(options)),
            ExperimentId::Fig4a => ExperimentOutput::Figure(fig4(Metric::Inconsistency, options)),
            ExperimentId::Fig4b => ExperimentOutput::Figure(fig4(Metric::MessageRate, options)),
            ExperimentId::Fig5a => ExperimentOutput::Figure(fig5a(options)),
            ExperimentId::Fig5b => ExperimentOutput::Figure(fig5b(options)),
            ExperimentId::Fig6a => ExperimentOutput::Figure(fig6(Metric::Inconsistency, options)),
            ExperimentId::Fig6b => ExperimentOutput::Figure(fig6(Metric::MessageRate, options)),
            ExperimentId::Fig7 => ExperimentOutput::Figure(fig7(options)),
            ExperimentId::Fig8a => ExperimentOutput::Figure(fig8a(options)),
            ExperimentId::Fig8b => ExperimentOutput::Figure(fig8b(options)),
            ExperimentId::Fig9 => ExperimentOutput::Figure(fig9(options)),
            ExperimentId::Fig10a => ExperimentOutput::Figure(fig10a(options)),
            ExperimentId::Fig10b => ExperimentOutput::Figure(fig10b(options)),
            ExperimentId::Fig11a => ExperimentOutput::Figure(fig11(Metric::Inconsistency, options)),
            ExperimentId::Fig11b => ExperimentOutput::Figure(fig11(Metric::MessageRate, options)),
            ExperimentId::Fig12a => ExperimentOutput::Figure(fig12(Metric::Inconsistency, options)),
            ExperimentId::Fig12b => ExperimentOutput::Figure(fig12(Metric::MessageRate, options)),
            ExperimentId::Fig17 => ExperimentOutput::Figure(fig17(options)),
            ExperimentId::Fig18a => ExperimentOutput::Figure(fig18(Metric::Inconsistency, options)),
            ExperimentId::Fig18b => ExperimentOutput::Figure(fig18(Metric::MessageRate, options)),
            ExperimentId::Fig19a => ExperimentOutput::Figure(fig19(Metric::Inconsistency, options)),
            ExperimentId::Fig19b => ExperimentOutput::Figure(fig19(Metric::MessageRate, options)),
        }
    }
}

/// Which y-axis metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Inconsistency ratio `I`.
    Inconsistency,
    /// Normalized signaling message rate `M`.
    MessageRate,
}

impl Metric {
    /// The y-axis label the paper's figures use for this metric.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Inconsistency => "inconsistency ratio",
            Metric::MessageRate => "normalized signaling message rate",
        }
    }

    /// Extracts the metric from a single-hop solution.
    pub fn of_single_hop(self, s: &SingleHopSolution) -> f64 {
        match self {
            Metric::Inconsistency => s.inconsistency,
            Metric::MessageRate => s.normalized_message_rate,
        }
    }

    /// Extracts the metric from a multi-hop solution.
    pub fn of_multi_hop(self, s: &MultiHopSolution) -> f64 {
        match self {
            Metric::Inconsistency => s.inconsistency,
            Metric::MessageRate => s.message_rate,
        }
    }
}

thread_local! {
    // Per-thread analytic sweep sessions (the rebuild-in-place fast path):
    // matrices, LU workspace and state maps survive across every solve a
    // worker performs, whether it is the main thread running a serial sweep
    // or a `ReplicationEngine` worker draining the work-stealing queue.
    static SINGLE_HOP_SESSION: RefCell<SingleHopSweepSession> =
        RefCell::new(SingleHopSweepSession::new());
    static MULTI_HOP_SESSION: RefCell<MultiHopSweepSession> =
        RefCell::new(MultiHopSweepSession::new());
}

pub(crate) fn solve_single(protocol: ProtocolSpec, params: SingleHopParams) -> SingleHopSolution {
    SINGLE_HOP_SESSION
        .with(|session| session.borrow_mut().solve(protocol, params))
        // sigtidy: allow(no-unwrap) — experiment definitions validate parameters up front
        .expect("experiment parameters are validated before solving")
}

pub(crate) fn solve_multi(protocol: ProtocolSpec, params: MultiHopParams) -> MultiHopSolution {
    MULTI_HOP_SESSION
        .with(|session| session.borrow_mut().solve(protocol, params))
        // sigtidy: allow(no-unwrap) — experiment definitions validate parameters up front
        .expect("experiment parameters are validated before solving")
}

/// Solves the whole `(protocol × sweep value)` grid through the
/// [`ReplicationEngine`] and returns the solutions protocol-major, in grid
/// order.
///
/// Work stealing by default, like the fig11/fig12 simulation fan-out: per-
/// point costs vary with the chain structure, and the dynamic assignment
/// writes into index slots, so the grid is bit-identical to a serial loop
/// under every policy.  Each worker thread reuses its own
/// [`SingleHopSweepSession`], so the sweep is allocation-free past the first
/// point per structure.
pub(crate) fn solve_single_grid(
    execution: ExecutionPolicy,
    protocols: &[ProtocolSpec],
    xs: &[f64],
    make_params: &(impl Fn(f64) -> SingleHopParams + Sync),
) -> Vec<SingleHopSolution> {
    let jobs: Vec<(ProtocolSpec, f64)> = protocols
        .iter()
        .flat_map(|&p| xs.iter().map(move |&x| (p, x)))
        .collect();
    ReplicationEngine::new(execution)
        .with_assignment(Assignment::WorkStealing)
        .run(jobs.len(), &|i: u64| {
            let (protocol, x) = jobs[i as usize];
            solve_single(protocol, make_params(x))
        })
}

/// The multi-hop analogue of [`solve_single_grid`].
pub(crate) fn solve_multi_grid(
    execution: ExecutionPolicy,
    protocols: &[ProtocolSpec],
    xs: &[f64],
    make_params: &(impl Fn(f64) -> MultiHopParams + Sync),
) -> Vec<MultiHopSolution> {
    let jobs: Vec<(ProtocolSpec, f64)> = protocols
        .iter()
        .flat_map(|&p| xs.iter().map(move |&x| (p, x)))
        .collect();
    ReplicationEngine::new(execution)
        .with_assignment(Assignment::WorkStealing)
        .run(jobs.len(), &|i: u64| {
            let (protocol, x) = jobs[i as usize];
            solve_multi(protocol, make_params(x))
        })
}

/// Generic single-hop sweep: one series per protocol, analytic solutions,
/// fanned out through the engine at the sweep level.
pub(crate) fn single_hop_sweep_over(
    title: &str,
    protocols: &[ProtocolSpec],
    sweep: &Sweep,
    metric: Metric,
    execution: ExecutionPolicy,
    make_params: impl Fn(f64) -> SingleHopParams + Sync,
) -> SeriesSet {
    let solutions = solve_single_grid(execution, protocols, &sweep.values, &make_params);
    let mut set = SeriesSet::new(title, sweep.parameter.clone(), metric.label());
    // Indexed slicing (not `chunks`), so a degenerate empty sweep still
    // yields one (empty) series per protocol like the historical loops.
    let per = sweep.values.len();
    for (i, &protocol) in protocols.iter().enumerate() {
        let rows = &solutions[i * per..(i + 1) * per];
        let mut series = Series::new(protocol.label());
        for (solution, &x) in rows.iter().zip(&sweep.values) {
            series.push(Point::new(x, metric.of_single_hop(solution)));
        }
        set.push(series);
    }
    set
}

/// [`single_hop_sweep_over`] with the paper's full protocol set (or the
/// options' override).
fn single_hop_sweep(
    title: &str,
    options: &ExperimentOptions,
    sweep: &Sweep,
    metric: Metric,
    make_params: impl Fn(f64) -> SingleHopParams + Sync,
) -> SeriesSet {
    single_hop_sweep_over(
        title,
        &options.protocol_set(&ProtocolSpec::PAPER),
        sweep,
        metric,
        options.execution,
        make_params,
    )
}

/// Generic multi-hop sweep: one series per protocol, analytic solutions,
/// fanned out through the engine at the sweep level.
pub(crate) fn multi_hop_sweep_over(
    title: &str,
    protocols: &[ProtocolSpec],
    sweep: &Sweep,
    metric: Metric,
    execution: ExecutionPolicy,
    make_params: impl Fn(f64) -> MultiHopParams + Sync,
) -> SeriesSet {
    let solutions = solve_multi_grid(execution, protocols, &sweep.values, &make_params);
    let mut set = SeriesSet::new(title, sweep.parameter.clone(), metric.label());
    // Indexed slicing (not `chunks`): see `single_hop_sweep_over`.
    let per = sweep.values.len();
    for (i, &protocol) in protocols.iter().enumerate() {
        let rows = &solutions[i * per..(i + 1) * per];
        let mut series = Series::new(protocol.label());
        for (solution, &x) in rows.iter().zip(&sweep.values) {
            series.push(Point::new(x, metric.of_multi_hop(solution)));
        }
        set.push(series);
    }
    set
}

/// [`multi_hop_sweep_over`] with the paper's multi-hop protocol set (or the
/// options' override).
fn multi_hop_sweep(
    title: &str,
    options: &ExperimentOptions,
    sweep: &Sweep,
    metric: Metric,
    make_params: impl Fn(f64) -> MultiHopParams + Sync,
) -> SeriesSet {
    multi_hop_sweep_over(
        title,
        &options.protocol_set(&ProtocolSpec::PAPER_MULTI_HOP),
        sweep,
        metric,
        options.execution,
        make_params,
    )
}

// ----------------------------------------------------------------------
// Table I.
// ----------------------------------------------------------------------

fn table1(options: &ExperimentOptions) -> String {
    let params = SingleHopParams::kazaa_defaults();
    let mut out = String::new();
    out.push_str("Table I — protocol-specific transition rates of the unified single-hop CTMC\n");
    out.push_str(&format!(
        "(evaluated at the Kazaa defaults: p_l={}, Delta={}s, 1/lambda_u={}s, 1/lambda_r={}s, T={}s, tau={}s, R={}s)\n\n",
        params.loss,
        params.delay,
        1.0 / params.update_rate,
        params.mean_lifetime(),
        params.refresh_timer,
        params.timeout_timer,
        params.retrans_timer,
    ));
    for protocol in options.protocol_set(&ProtocolSpec::PAPER) {
        out.push_str(&protocol_transitions(protocol, &params).render());
        out.push('\n');
    }
    out
}

// ----------------------------------------------------------------------
// Single-hop analytic figures.
// ----------------------------------------------------------------------

fn fig4(metric: Metric, options: &ExperimentOptions) -> SeriesSet {
    let title = match metric {
        Metric::Inconsistency => "Fig 4(a): inconsistency vs mean state lifetime",
        Metric::MessageRate => "Fig 4(b): message rate vs mean state lifetime",
    };
    single_hop_sweep(
        title,
        options,
        &Sweep::session_length(),
        metric,
        |lifetime| SingleHopParams::kazaa_defaults().with_mean_lifetime(lifetime),
    )
}

fn fig5a(options: &ExperimentOptions) -> SeriesSet {
    single_hop_sweep(
        "Fig 5(a): inconsistency vs channel loss rate",
        options,
        &Sweep::loss_rate(),
        Metric::Inconsistency,
        |loss| {
            let mut p = SingleHopParams::kazaa_defaults();
            p.loss = loss;
            p
        },
    )
}

fn fig5b(options: &ExperimentOptions) -> SeriesSet {
    single_hop_sweep(
        "Fig 5(b): inconsistency vs channel delay",
        options,
        &Sweep::channel_delay(),
        Metric::Inconsistency,
        |delay| SingleHopParams::kazaa_defaults().with_delay_scaled_retrans(delay),
    )
}

fn fig6(metric: Metric, options: &ExperimentOptions) -> SeriesSet {
    let title = match metric {
        Metric::Inconsistency => "Fig 6(a): inconsistency vs refresh timer",
        Metric::MessageRate => "Fig 6(b): message rate vs refresh timer",
    };
    single_hop_sweep(title, options, &Sweep::refresh_timer(), metric, |t| {
        SingleHopParams::kazaa_defaults().with_refresh_timer_scaled_timeout(t)
    })
}

fn fig7(options: &ExperimentOptions) -> SeriesSet {
    integrated_cost_over(
        "Fig 7: integrated cost C = 10*I + M vs refresh timer",
        &options.protocol_set(&ProtocolSpec::PAPER),
        &Sweep::refresh_timer(),
        10.0,
        options.execution,
        |t| SingleHopParams::kazaa_defaults().with_refresh_timer_scaled_timeout(t),
    )
}

/// Integrated-cost sweep `C = w·I + M`: one series per protocol, engine-
/// fanned like every analytic sweep (shared by Figure 7 and the
/// `IntegratedCost` spec kind).
pub(crate) fn integrated_cost_over(
    title: &str,
    protocols: &[ProtocolSpec],
    sweep: &Sweep,
    weight: f64,
    execution: ExecutionPolicy,
    make_params: impl Fn(f64) -> SingleHopParams + Sync,
) -> SeriesSet {
    let solutions = solve_single_grid(execution, protocols, &sweep.values, &make_params);
    let mut set = SeriesSet::new(title, sweep.parameter.clone(), "integrated cost");
    // Indexed slicing (not `chunks`): see `single_hop_sweep_over`.
    let per = sweep.values.len();
    for (i, &protocol) in protocols.iter().enumerate() {
        let rows = &solutions[i * per..(i + 1) * per];
        let mut series = Series::new(protocol.label());
        for (s, &x) in rows.iter().zip(&sweep.values) {
            series.push(Point::new(x, s.integrated_cost(weight)));
        }
        set.push(series);
    }
    set
}

fn fig8a(options: &ExperimentOptions) -> SeriesSet {
    single_hop_sweep(
        "Fig 8(a): inconsistency vs state-timeout timer (T = 5 s)",
        options,
        &Sweep::timeout_timer(),
        Metric::Inconsistency,
        |tau| {
            let mut p = SingleHopParams::kazaa_defaults();
            p.timeout_timer = tau;
            p
        },
    )
}

fn fig8b(options: &ExperimentOptions) -> SeriesSet {
    single_hop_sweep(
        "Fig 8(b): inconsistency vs retransmission timer",
        options,
        &Sweep::retrans_timer(),
        Metric::Inconsistency,
        |r| {
            let mut p = SingleHopParams::kazaa_defaults();
            p.retrans_timer = r;
            p
        },
    )
}

/// Tradeoff figures: x = inconsistency, y = normalized message overhead, one
/// point per swept parameter value, engine-fanned like every analytic sweep.
pub(crate) fn tradeoff_over(
    title: &str,
    protocols: &[ProtocolSpec],
    sweep: &Sweep,
    execution: ExecutionPolicy,
    make_params: impl Fn(f64) -> SingleHopParams + Sync,
) -> SeriesSet {
    let solutions = solve_single_grid(execution, protocols, &sweep.values, &make_params);
    let mut set = SeriesSet::new(title, "inconsistency ratio", "message overhead");
    // Indexed slicing (not `chunks`): see `single_hop_sweep_over`.
    let per = sweep.values.len();
    for (i, &protocol) in protocols.iter().enumerate() {
        let rows = &solutions[i * per..(i + 1) * per];
        let mut series = Series::new(protocol.label());
        for s in rows {
            series.push(Point::new(s.inconsistency, s.normalized_message_rate));
        }
        set.push(series);
    }
    set
}

/// [`tradeoff_over`] with the paper's full protocol set (or the options'
/// override).
fn tradeoff(
    title: &str,
    options: &ExperimentOptions,
    sweep: &Sweep,
    make_params: impl Fn(f64) -> SingleHopParams + Sync,
) -> SeriesSet {
    tradeoff_over(
        title,
        &options.protocol_set(&ProtocolSpec::PAPER),
        sweep,
        options.execution,
        make_params,
    )
}

fn fig9(options: &ExperimentOptions) -> SeriesSet {
    tradeoff(
        "Fig 9: overhead vs inconsistency, varying refresh timer",
        options,
        &Sweep::refresh_timer(),
        |t| SingleHopParams::kazaa_defaults().with_refresh_timer_scaled_timeout(t),
    )
}

fn fig10a(options: &ExperimentOptions) -> SeriesSet {
    tradeoff(
        "Fig 10(a): overhead vs inconsistency, varying update rate",
        options,
        &Sweep::update_interval(),
        |interval| SingleHopParams::kazaa_defaults().with_mean_update_interval(interval),
    )
}

fn fig10b(options: &ExperimentOptions) -> SeriesSet {
    tradeoff(
        "Fig 10(b): overhead vs inconsistency, varying channel delay",
        options,
        &Sweep::channel_delay(),
        |delay| SingleHopParams::kazaa_defaults().with_delay_scaled_retrans(delay),
    )
}

// ----------------------------------------------------------------------
// Analytic vs. simulation (Figures 11 and 12).
// ----------------------------------------------------------------------

/// Builds a figure containing the analytic curves plus simulated points with
/// deterministic timers and 95% confidence error bars.
///
/// The simulation grid is the expensive part, so the whole sweep — one
/// campaign per (protocol × sweep point) — is fanned out through the
/// [`ReplicationEngine`] under `options.execution`; each campaign then runs
/// its replications serially on its worker.  Outputs come back in sweep
/// order, so the figure is identical under every policy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn analytic_vs_sim_over(
    title: &str,
    x_label: &str,
    metric: Metric,
    protocols: &[ProtocolSpec],
    xs_analytic: &[f64],
    xs_sim: &[f64],
    timer_mode: TimerMode,
    loss_model: Option<LossModel>,
    options: &ExperimentOptions,
    make_params: impl Fn(f64) -> SingleHopParams + Sync,
) -> SeriesSet {
    let mut set = SeriesSet::new(title, x_label, metric.label());
    // The analytic curves are a sweep like any other: engine-fanned through
    // the per-thread sweep sessions.
    let analytic = solve_single_grid(options.execution, protocols, xs_analytic, &make_params);
    // Indexed slicing (not `chunks`): see `single_hop_sweep_over`.
    let per = xs_analytic.len();
    for (i, &protocol) in protocols.iter().enumerate() {
        let rows = &analytic[i * per..(i + 1) * per];
        let mut series = Series::new(protocol.label());
        for (s, &x) in rows.iter().zip(xs_analytic) {
            series.push(Point::new(x, metric.of_single_hop(s)));
        }
        set.push(series);
    }

    // The sweep-point × replication fan-out: flatten (protocol, x) pairs
    // into one job list for the engine.
    let jobs: Vec<(ProtocolSpec, f64)> = protocols
        .iter()
        .flat_map(|&p| xs_sim.iter().map(move |&x| (p, x)))
        .collect();
    // Work stealing by default: campaign costs are skewed across the sweep
    // (session length grows with the sweep point), and the dynamic
    // assignment is bit-identical to serial execution anyway.
    let rows = ReplicationEngine::new(options.execution)
        .with_assignment(Assignment::WorkStealing)
        .run(jobs.len(), &|i: u64| {
            let (protocol, x) = jobs[i as usize];
            compare_session(
                SessionConfig {
                    timer_mode,
                    delay_mode: timer_mode,
                    loss_model,
                    ..SessionConfig::deterministic(protocol, make_params(x))
                },
                options.sim_replications,
                options.seed,
                ExecutionPolicy::Serial,
            )
        });

    for (protocol_rows, &protocol) in rows.chunks(xs_sim.len().max(1)).zip(protocols) {
        let mut series = Series::new(format!("{} sim", protocol.label()));
        for (row, &x) in protocol_rows.iter().zip(xs_sim) {
            let point = match metric {
                Metric::Inconsistency => Point::with_error(
                    x,
                    row.simulated_inconsistency.mean,
                    row.simulated_inconsistency.ci95_half_width,
                ),
                Metric::MessageRate => Point::with_error(
                    x,
                    row.simulated_message_rate.mean,
                    row.simulated_message_rate.ci95_half_width,
                ),
            };
            series.push(point);
        }
        set.push(series);
    }
    set
}

/// [`analytic_vs_sim_over`] as the paper's Figures 11–12 use it: every
/// protocol (or the options' override), deterministic simulation timers,
/// Bernoulli loss.
#[allow(clippy::too_many_arguments)]
fn analytic_vs_sim(
    title: &str,
    x_label: &str,
    metric: Metric,
    xs_analytic: &[f64],
    xs_sim: &[f64],
    options: &ExperimentOptions,
    make_params: impl Fn(f64) -> SingleHopParams + Sync,
) -> SeriesSet {
    analytic_vs_sim_over(
        title,
        x_label,
        metric,
        &options.protocol_set(&ProtocolSpec::PAPER),
        xs_analytic,
        xs_sim,
        TimerMode::Deterministic,
        None,
        options,
        make_params,
    )
}

/// Picks up to `count` simulation x-values from the analytic grid restricted
/// to `[lo, hi]`, so simulated points line up with analytic rows exactly.
pub(crate) fn sim_grid(analytic: &[f64], lo: f64, hi: f64, count: usize) -> Vec<f64> {
    let candidates: Vec<f64> = analytic
        .iter()
        .copied()
        .filter(|x| (lo..=hi).contains(x))
        .collect();
    if candidates.is_empty() {
        return analytic.iter().copied().take(count.max(1)).collect();
    }
    let count = count.clamp(1, candidates.len());
    let mut grid: Vec<f64> = (0..count)
        .map(|i| {
            let idx = if count == 1 {
                0
            } else {
                i * (candidates.len() - 1) / (count - 1)
            };
            candidates[idx]
        })
        .collect();
    grid.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    grid
}

fn fig11(metric: Metric, options: &ExperimentOptions) -> SeriesSet {
    let analytic = Sweep::session_length();
    let sim = sim_grid(&analytic.values, 30.0, 3000.0, options.sim_points.max(2));
    let title = match metric {
        Metric::Inconsistency => {
            "Fig 11(a): analytic (exp. timers) vs simulation (det. timers), inconsistency vs lifetime"
        }
        Metric::MessageRate => {
            "Fig 11(b): analytic (exp. timers) vs simulation (det. timers), message rate vs lifetime"
        }
    };
    analytic_vs_sim(
        title,
        &analytic.parameter,
        metric,
        &analytic.values,
        &sim,
        options,
        |lifetime| SingleHopParams::kazaa_defaults().with_mean_lifetime(lifetime),
    )
}

fn fig12(metric: Metric, options: &ExperimentOptions) -> SeriesSet {
    let analytic = Sweep::refresh_timer();
    let sim = sim_grid(&analytic.values, 0.5, 50.0, options.sim_points.max(2));
    let title = match metric {
        Metric::Inconsistency => {
            "Fig 12(a): analytic vs simulation, inconsistency vs refresh timer"
        }
        Metric::MessageRate => "Fig 12(b): analytic vs simulation, message rate vs refresh timer",
    };
    analytic_vs_sim(
        title,
        &analytic.parameter,
        metric,
        &analytic.values,
        &sim,
        options,
        |t| {
            SingleHopParams::kazaa_defaults()
                .with_mean_lifetime(600.0)
                .with_refresh_timer_scaled_timeout(t)
        },
    )
}

// ----------------------------------------------------------------------
// Multi-hop figures.
// ----------------------------------------------------------------------

fn fig17(options: &ExperimentOptions) -> SeriesSet {
    let params = MultiHopParams::reservation_defaults();
    let mut set = SeriesSet::new(
        "Fig 17: fraction of time the i-th hop is inconsistent (K = 20)",
        "hop index i",
        "fraction of time inconsistent",
    );
    for protocol in options.protocol_set(&ProtocolSpec::PAPER_MULTI_HOP) {
        let solution = solve_multi(protocol, params);
        let mut series = Series::new(protocol.label());
        for (i, v) in solution.per_hop_inconsistency.iter().enumerate() {
            series.push(Point::new((i + 1) as f64, *v));
        }
        set.push(series);
    }
    set
}

fn fig18(metric: Metric, options: &ExperimentOptions) -> SeriesSet {
    let title = match metric {
        Metric::Inconsistency => "Fig 18(a): inconsistency vs total number of hops",
        Metric::MessageRate => "Fig 18(b): signaling message rate vs total number of hops",
    };
    multi_hop_sweep(title, options, &Sweep::hop_count(), metric, |k| {
        MultiHopParams::reservation_defaults().with_hops(k as usize)
    })
}

fn fig19(metric: Metric, options: &ExperimentOptions) -> SeriesSet {
    let title = match metric {
        Metric::Inconsistency => "Fig 19(a): multi-hop inconsistency vs refresh timer",
        Metric::MessageRate => "Fig 19(b): multi-hop message rate vs refresh timer",
    };
    multi_hop_sweep(title, options, &Sweep::refresh_timer(), metric, |t| {
        MultiHopParams::reservation_defaults().with_refresh_timer_scaled_timeout(t)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use siganalytic::Protocol;

    #[test]
    fn names_roundtrip() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
            assert!(!id.description().is_empty());
        }
        assert_eq!(ExperimentId::parse("FIG4A"), Some(ExperimentId::Fig4a));
        assert_eq!(ExperimentId::parse("nope"), None);
    }

    #[test]
    fn only_fig11_and_12_use_simulation() {
        let sim_ids: Vec<_> = ExperimentId::ALL
            .iter()
            .filter(|id| id.uses_simulation())
            .map(|id| id.name())
            .collect();
        assert_eq!(sim_ids, vec!["fig11a", "fig11b", "fig12a", "fig12b"]);
    }

    #[test]
    fn table1_lists_all_protocols() {
        let text = ExperimentId::Table1.run().to_text();
        for p in Protocol::ALL {
            assert!(text.contains(p.label()), "missing {p}");
        }
        assert!(text.contains("(1,0)_1"));
    }

    #[test]
    fn fig4a_reproduces_paper_orderings() {
        let out = ExperimentId::Fig4a.run();
        let fig = out.as_figure().unwrap();
        assert_eq!(fig.series.len(), 5);
        // Every protocol's inconsistency decreases with session length.
        for s in &fig.series {
            assert!(s.is_non_increasing(1e-9), "{}", s.label);
        }
        // SS+ER dominates SS everywhere; SS+RTR is comparable to HS.
        let ss = fig.get("SS").unwrap();
        let ss_er = fig.get("SS+ER").unwrap();
        let ss_rtr = fig.get("SS+RTR").unwrap();
        let hs = fig.get("HS").unwrap();
        assert!(ss_er.dominates_below(ss, 1e-9));
        assert!(ss_rtr.dominates_below(ss_er, 1e-9));
        for (a, b) in ss_rtr.points.iter().zip(hs.points.iter()) {
            assert!(
                a.y < 5.0 * b.y && b.y < 5.0 * a.y,
                "SS+RTR vs HS at {}",
                a.x
            );
        }
    }

    #[test]
    fn fig4b_message_rates_decrease_with_lifetime_and_hs_wins_for_long_sessions() {
        let out = ExperimentId::Fig4b.run();
        let fig = out.as_figure().unwrap();
        for s in &fig.series {
            assert!(s.is_non_increasing(1e-9), "{}", s.label);
        }
        // For long-lived sessions refreshes dominate and HS is by far the
        // cheapest; for very short sessions HS's per-session reliable
        // setup/teardown exchange makes it the most expensive per unit of
        // sender lifetime — exactly the crossover Figure 4(b) shows.
        let hs = fig.get("HS").unwrap();
        let ss = fig.get("SS").unwrap();
        for other in ["SS", "SS+ER", "SS+RT", "SS+RTR"] {
            let o = fig.get(other).unwrap();
            assert!(
                hs.points.last().unwrap().y < o.points.last().unwrap().y,
                "{other} should cost more than HS for long sessions"
            );
        }
        assert!(
            hs.points.first().unwrap().y > ss.points.first().unwrap().y,
            "HS should cost more than SS for very short sessions"
        );
    }

    #[test]
    fn fig5a_inconsistency_grows_with_loss() {
        let fig = ExperimentId::Fig5a.run();
        let fig = fig.as_figure().unwrap();
        for s in &fig.series {
            assert!(s.is_non_decreasing(1e-9), "{}", s.label);
        }
        // Reliable transmission helps under loss: at the highest loss point
        // SS+RT is clearly better than SS.
        let ss = fig.get("SS").unwrap().points.last().unwrap().y;
        let ss_rt = fig.get("SS+RT").unwrap().points.last().unwrap().y;
        assert!(ss_rt < ss);
    }

    #[test]
    fn fig7_has_an_interior_optimum_for_ss() {
        let fig = ExperimentId::Fig7.run();
        let fig = fig.as_figure().unwrap();
        let ss = fig.get("SS").unwrap();
        let best_t = ss.argmin_y().unwrap();
        let first = ss.points.first().unwrap();
        let last = ss.points.last().unwrap();
        // The optimum is strictly inside the sweep: both tiny and huge
        // refresh timers are worse.
        assert!(best_t > first.x && best_t < last.x, "optimum at {best_t}");
        assert!(ss.y_min().unwrap() < first.y);
        assert!(ss.y_min().unwrap() < last.y);
        // HS does not depend on the refresh timer: its cost curve is flat.
        let hs = fig.get("HS").unwrap();
        let spread = hs.y_max().unwrap() - hs.y_min().unwrap();
        assert!(spread < 1e-9, "HS cost should be flat, spread = {spread}");
    }

    #[test]
    fn fig17_per_hop_series_are_increasing() {
        let fig = ExperimentId::Fig17.run();
        let fig = fig.as_figure().unwrap();
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.len(), 20);
            assert!(s.is_non_decreasing(1e-9), "{}", s.label);
        }
        let ss = fig.get("SS").unwrap();
        let hs = fig.get("HS").unwrap();
        assert!(hs.dominates_below(ss, 1e-9));
    }

    #[test]
    fn fig18_monotone_in_hop_count() {
        let a = ExperimentId::Fig18a.run();
        let a = a.as_figure().unwrap();
        let b = ExperimentId::Fig18b.run();
        let b = b.as_figure().unwrap();
        for s in a.series.iter().chain(b.series.iter()) {
            assert!(s.is_non_decreasing(1e-6), "{}", s.label);
        }
        // HS needs far fewer messages than SS at 20 hops.
        let ss20 = b.get("SS").unwrap().points.last().unwrap().y;
        let hs20 = b.get("HS").unwrap().points.last().unwrap().y;
        assert!(hs20 < 0.5 * ss20);
    }

    #[test]
    fn analytic_sweeps_are_bit_identical_under_every_execution_policy() {
        // The analytic fast path fans (protocol × point) grids out through
        // the ReplicationEngine with the work-stealing assignment; every
        // figure must be bit-identical to the serial loop: Serial ≡
        // Threads(n) ≡ the WorkStealing default at any thread count.
        for id in [
            ExperimentId::Fig4a,  // single-hop sweep
            ExperimentId::Fig7,   // integrated cost
            ExperimentId::Fig9,   // tradeoff
            ExperimentId::Fig18b, // multi-hop sweep
        ] {
            let serial =
                id.run_with(&ExperimentOptions::quick().with_execution(ExecutionPolicy::Serial));
            for n in [2, 8] {
                let threaded = id.run_with(
                    &ExperimentOptions::quick().with_execution(ExecutionPolicy::threads(n)),
                );
                assert_eq!(serial, threaded, "{} diverged at {n} threads", id.name());
            }
        }
    }

    #[test]
    fn sweep_fanout_is_policy_independent() {
        // The whole sweep (protocol × point × replication) must be a pure
        // function of the options, no matter how it is scheduled.
        let quick = ExperimentOptions::quick();
        let serial =
            ExperimentId::Fig11a.run_with(&quick.clone().with_execution(ExecutionPolicy::Serial));
        let threaded =
            ExperimentId::Fig11a.run_with(&quick.with_execution(ExecutionPolicy::threads(4)));
        assert_eq!(serial, threaded);
    }

    #[test]
    fn protocol_override_replaces_a_figure_protocol_set() {
        // The options-level override runs any figure over any design point:
        // restrict fig6a to two presets and check only those series appear.
        let options =
            ExperimentOptions::quick().with_protocols(vec![ProtocolSpec::SS, ProtocolSpec::HS]);
        let fig = ExperimentId::Fig6a.run_with(&options);
        let fig = fig.as_figure().unwrap();
        assert_eq!(
            fig.labels(),
            vec!["SS", "HS"],
            "override must replace the default set in order"
        );
        // And the full preset override reproduces the default set exactly.
        let default_run = ExperimentId::Fig6a.run_with(&ExperimentOptions::quick());
        let preset_run = ExperimentId::Fig6a
            .run_with(&ExperimentOptions::quick().with_protocols(ProtocolSpec::PAPER.to_vec()));
        assert_eq!(default_run, preset_run);
    }

    #[test]
    #[should_panic(expected = "protocol 'bad' is incoherent")]
    fn incoherent_protocol_override_panics_with_a_clear_message() {
        // An unvalidated spec smuggled in through the options-level override
        // must fail at the funnel with its SpecError, not deep inside the
        // solver with a misleading message.
        let bad = ProtocolSpec::hard_state("bad").with_state_timeout(true);
        let options = ExperimentOptions::quick().with_protocols(vec![bad]);
        ExperimentId::Fig6a.run_with(&options);
    }

    #[test]
    #[should_panic(expected = "duplicate label 'ss'")]
    fn duplicate_labels_in_protocol_override_panic_clearly() {
        let options = ExperimentOptions::quick()
            .with_protocols(vec![ProtocolSpec::SS, ProtocolSpec::soft_state("ss")]);
        ExperimentId::Fig6a.run_with(&options);
    }

    #[test]
    fn quick_simulation_experiment_runs_and_matches_roughly() {
        let fig = ExperimentId::Fig12a.run_with(&ExperimentOptions::quick());
        let fig = fig.as_figure().unwrap();
        // 5 analytic + 5 simulated series.
        assert_eq!(fig.series.len(), 10);
        let sim = fig.get("SS sim").unwrap();
        assert!(!sim.is_empty());
        for p in &sim.points {
            assert!(p.err.is_some(), "simulated points carry error bars");
            assert!((0.0..=1.0).contains(&p.y));
        }
    }
}
