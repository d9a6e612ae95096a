//! `repro` — regenerate every table and figure of the paper's evaluation,
//! plus any extra experiments registered with the open registry.
//!
//! Usage:
//!
//! ```text
//! repro                 # regenerate everything in the registry
//! repro --quick         # smaller simulation campaigns
//! repro --fig fig4a     # one experiment by name (repeat --fig for several)
//! repro --tag paper     # every experiment carrying a tag (repeatable)
//! repro --csv DIR       # additionally write one CSV file per figure to DIR
//! repro --list          # list the registered experiments (name, tags, description)
//! repro --list-md       # the same listing as a markdown table (EXPERIMENTS.md)
//! repro --list-protocols # list the registered protocols (name, mechanisms, used by)
//! repro --protocols SS,HS # run experiments over this protocol set instead
//!                         # of each experiment's default (any registered
//!                         # label, including non-paper specs like SS+RR)
//! repro check-specs     # model-check every coherent spec (reachability,
//!                       # liveness, analytic/simulator agreement); exits
//!                       # non-zero on any violation
//! repro --list-transitions SS # render a protocol's single- and multi-hop
//!                             # transition tables (any registered label or
//!                             # spectrum label like spec:btb--)
//! repro --serial        # disable the multi-core fan-out (sweeps, node
//!                       # fault experiments, check-specs domination run)
//! repro --jobs N        # fan all of that out across N threads
//! repro --timing        # per-phase wall-clock (build/solve/report) per experiment
//! repro --loss gilbert  # bursty Gilbert–Elliott channel loss for the node
//!                       # simulations (default: independent bernoulli;
//!                       # check-specs accepts only bernoulli)
//! repro --retry jittered # retransmission retry policy for the node
//!                        # simulations and the check-specs latency bound:
//!                        # fixed (default) | backoff | jittered
//! ```
//!
//! Experiments are resolved by name through [`sigbench::extended_registry`]:
//! the paper's 22 tables/figures (tag `paper`) plus the scenario experiments
//! the bench crate registers at startup (tag `extra`) — the latter are
//! user-level compositions, proof that new experiments need no core changes.
//!
//! Simulation experiments (Figures 11–12), every analytic sweep, the node
//! fault experiments (`node-outage` one job per spec, `node-restart-storm`
//! one per spec × retry policy) and the `check-specs` latency-domination
//! run (one job per spec) fan out across all CPUs by default; output is
//! byte-identical under every policy.  `--serial` / `--jobs` control the
//! `ExecutionPolicy` and the closing line reports the wall-clock, so a
//! serial-vs-parallel speedup is one `time`-free A/B away.  `--timing`
//! refines that A/B to per-experiment phases: `build` (registry + protocol
//! catalog construction, printed once), `solve` (the experiment's whole
//! compute, including its engine fan-out) and `report` (text/CSV
//! rendering) — record `--serial --timing` vs `--jobs N --timing` on a
//! multi-core box and the solve column is the speedup table.

// Reporting wall-clock timing is this binary's job; the disallowed-methods
// list in clippy.toml guards result-path code, not the timer around it.
#![allow(clippy::disallowed_methods)]

use signaling::experiment::{ExperimentOptions, ExperimentOutput, LossKind, RetryKind};
use signaling::registry::{Experiment, Registry};
use signaling::report::render_csv;
use signaling::ExecutionPolicy;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    quick: bool,
    names: Vec<String>,
    tags: Vec<String>,
    csv_dir: Option<PathBuf>,
    list: bool,
    list_md: bool,
    list_protocols: bool,
    list_transitions: Option<String>,
    check_specs: bool,
    protocols: Vec<String>,
    execution: ExecutionPolicy,
    timing: bool,
    loss: LossKind,
    retry: RetryKind,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        names: Vec::new(),
        tags: Vec::new(),
        csv_dir: None,
        list: false,
        list_md: false,
        list_protocols: false,
        list_transitions: None,
        check_specs: false,
        protocols: Vec::new(),
        execution: ExecutionPolicy::auto(),
        timing: false,
        loss: LossKind::Bernoulli,
        retry: RetryKind::Fixed,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--list" => args.list = true,
            "--list-md" => args.list_md = true,
            "--list-protocols" => args.list_protocols = true,
            "--list-transitions" => {
                let label = it
                    .next()
                    .ok_or("--list-transitions needs a protocol label")?;
                args.list_transitions = Some(label);
            }
            "check-specs" => args.check_specs = true,
            "--protocols" => {
                let set = it
                    .next()
                    .ok_or("--protocols needs a comma-separated list")?;
                args.protocols.push(set);
            }
            "--timing" => args.timing = true,
            "--loss" => {
                let kind = it.next().ok_or("--loss needs 'bernoulli' or 'gilbert'")?;
                args.loss = match kind.as_str() {
                    "bernoulli" => LossKind::Bernoulli,
                    "gilbert" => LossKind::GilbertElliott,
                    other => {
                        return Err(format!(
                            "--loss needs 'bernoulli' or 'gilbert', got '{other}'"
                        ))
                    }
                };
            }
            "--retry" => {
                let kind = it
                    .next()
                    .ok_or("--retry needs 'fixed', 'backoff' or 'jittered'")?;
                args.retry = match kind.as_str() {
                    "fixed" => RetryKind::Fixed,
                    "backoff" => RetryKind::Backoff,
                    "jittered" => RetryKind::Jittered,
                    other => {
                        return Err(format!(
                            "--retry needs 'fixed', 'backoff' or 'jittered', got '{other}'"
                        ))
                    }
                };
            }
            "--serial" => args.execution = ExecutionPolicy::Serial,
            "--jobs" => {
                let n = it.next().ok_or("--jobs needs a thread count")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--jobs needs an integer, got '{n}'"))?;
                args.execution = ExecutionPolicy::threads(n);
            }
            "--fig" | "--exp" => {
                let name = it.next().ok_or("--fig needs an experiment name")?;
                args.names.push(name);
            }
            "--tag" => {
                let tag = it.next().ok_or("--tag needs a tag")?;
                args.tags.push(tag);
            }
            "--csv" => {
                let dir = it.next().ok_or("--csv needs a directory")?;
                args.csv_dir = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!(
                    "repro [--quick] [--fig NAME]... [--tag TAG]... [--csv DIR] \
                     [--protocols SS,HS,...] [--list | --list-md | --list-protocols] \
                     [--list-transitions LABEL] [--serial | --jobs N] [--timing] \
                     [--loss bernoulli|gilbert] [--retry fixed|backoff|jittered]\n\
                     repro check-specs\n\
                     Regenerates the paper's tables and figures and any registered extras.\n\
                     check-specs model-checks every coherent spec (reachability, liveness, \
                     agreement) and exits non-zero on any violation.\n\
                     --list-transitions renders a protocol's single- and multi-hop \
                     transition tables (registered or spec:<code> label).\n\
                     --timing prints per-phase wall-clock: build (registry construction, \
                     once), then solve/report per experiment."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Resolves the CLI selection to experiments, in registry order for tag/all
/// selections and in argument order for `--fig`.
fn select<'r>(registry: &'r Registry, args: &Args) -> Result<Vec<&'r dyn Experiment>, String> {
    let mut selected: Vec<&dyn Experiment> = Vec::new();
    for name in &args.names {
        let exp = registry
            .get(name)
            .ok_or_else(|| format!("unknown experiment '{name}' (try --list)"))?;
        selected.push(exp);
    }
    for tag in &args.tags {
        let matched = registry.with_tag(tag);
        if matched.is_empty() {
            return Err(format!("no experiment carries tag '{tag}' (try --list)"));
        }
        for exp in matched {
            if !selected.iter().any(|e| e.name() == exp.name()) {
                selected.push(exp);
            }
        }
    }
    if args.names.is_empty() && args.tags.is_empty() {
        selected = registry.iter().collect();
    }
    Ok(selected)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if args.check_specs {
        // The latency bound's ε-quantile attempt count assumes independent
        // loss, so a bursty-loss domination run would check a bound against
        // a channel it was never derived for.
        if args.loss != LossKind::Bernoulli {
            eprintln!(
                "error: check-specs supports only --loss bernoulli: the symbolic \
                 repair-latency bound assumes independent (Bernoulli) message loss"
            );
            std::process::exit(2);
        }
        // Model-check the whole coherent spec space before (or instead of)
        // regenerating anything: the CI gate that keeps the declarative
        // tables, the analytic builders and the simulators in agreement.
        let start = Instant::now();
        let report = sigfsm::check_all();
        print!("{}", report.render());
        let structural_elapsed = start.elapsed().as_secs_f64();
        if !report.passed() {
            eprintln!("repro: check-specs in {structural_elapsed:.2} s");
            std::process::exit(1);
        }
        // The numeric half of the latency property: run the canonical
        // node-outage campaign for every coherent spec (CI-sized sessions)
        // and verify the symbolic bound dominates the measured
        // reconvergence time.
        let domination_start = Instant::now();
        let domination = signaling::node_outage::check_latency_domination(
            &ExperimentOptions::quick()
                .with_execution(args.execution)
                .with_timing(args.timing)
                .with_retry_kind(args.retry),
        );
        println!();
        print!("{}", domination.render());
        eprintln!(
            "repro: check-specs in {:.2} s (structural {structural_elapsed:.2} s, \
             domination {:.2} s)",
            start.elapsed().as_secs_f64(),
            domination_start.elapsed().as_secs_f64()
        );
        std::process::exit(if domination.passed() { 0 } else { 1 });
    }

    let build_start = Instant::now();
    let registry = sigbench::extended_registry();
    let protocol_registry = sigbench::protocol_registry();
    let build_elapsed = build_start.elapsed();
    if args.timing {
        eprintln!(
            "timing: build {:>9.3} s   (experiment + protocol registries)",
            build_elapsed.as_secs_f64()
        );
    }

    if let Some(label) = &args.list_transitions {
        // Resolve against the protocol registry first (SS, HS, SS+RR, ...),
        // then the full coherent spectrum (spec:<code> labels).
        let spec = protocol_registry
            .iter()
            .find(|entry| entry.spec.label() == label)
            .map(|entry| entry.spec)
            .or_else(|| {
                sigbench::coherent_spectrum()
                    .iter()
                    .find(|spec| spec.label() == label)
                    .copied()
            });
        let Some(spec) = spec else {
            eprintln!(
                "error: unknown protocol label '{label}' \
                 (try --list-protocols, or a spectrum label like spec:btb--)"
            );
            std::process::exit(2);
        };
        print!("{}", siganalytic::TransitionTable::for_spec(spec).render());
        println!();
        print!(
            "{}",
            siganalytic::MultiHopTransitionTable::for_spec(spec, sigfsm::CHECK_HOPS).render()
        );
        // The symbolic worst-case repair-latency bound the checker's
        // latency property derives from the same table, evaluated at the
        // Kazaa operating point.
        if let Ok(bound) = sigfsm::repair_latency_bound(spec) {
            let p = sigfsm::BoundParams::from_single_hop(
                &siganalytic::SingleHopParams::kazaa_defaults(),
                sigfsm::CHECK_EPSILON,
            );
            println!();
            print!("{}", bound.render(&p));
        }
        return;
    }

    if args.list_protocols {
        println!("{:<8} {:<90} used by", "name", "mechanisms");
        for entry in protocol_registry.iter() {
            println!(
                "{:<8} {:<90} {}",
                entry.spec.label(),
                entry.spec.mechanism_summary(),
                entry.used_by
            );
        }
        return;
    }

    if args.list || args.list_md {
        if args.list_md {
            println!("| name | tags | description |");
            println!("| --- | --- | --- |");
        }
        for exp in registry.iter() {
            let tags = exp.tags().join(", ");
            if args.list_md {
                println!("| `{}` | {} | {} |", exp.name(), tags, exp.description());
            } else {
                println!("{:<20} [{}] {}", exp.name(), tags, exp.description());
            }
        }
        return;
    }

    let mut options = if args.quick {
        ExperimentOptions::quick()
    } else {
        ExperimentOptions::default()
    }
    .with_execution(args.execution)
    // Experiments with internal phases (node-scale's schedule/fire/metrics
    // split) report them to stderr under the same flag.
    .with_timing(args.timing)
    // Channel loss process for the node simulations: independent Bernoulli
    // (the paper's model) or the mean-preserving Gilbert–Elliott bursts.
    .with_loss_kind(args.loss)
    // Retransmission retry policy for the node simulations: the paper's
    // fixed interval (default), capped exponential backoff, or
    // decorrelated jitter.
    .with_retry_kind(args.retry);
    if !args.protocols.is_empty() {
        let mut set = Vec::new();
        for csv in &args.protocols {
            match protocol_registry.resolve_set(csv) {
                Ok(specs) => set.extend(specs),
                Err(e) => {
                    eprintln!("error: {e} (try --list-protocols)");
                    std::process::exit(2);
                }
            }
        }
        // Registry resolution guarantees coherent specs; reject set-level
        // mistakes (nothing selected, or the same label twice — which would
        // render ambiguous duplicate series) before any experiment runs.
        if set.is_empty() {
            eprintln!("error: --protocols selected no protocols (try --list-protocols)");
            std::process::exit(2);
        }
        if let Err(e) = signaling::registry::check_protocol_set(&set) {
            eprintln!("error: --protocols: {e}");
            std::process::exit(2);
        }
        options = options.with_protocols(set);
    }

    let selected = match select(&registry, &args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if let Some(dir) = &args.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let start = Instant::now();
    for exp in &selected {
        // Run each experiment once and derive both renderings from it (the
        // simulation experiments are far too expensive to run twice).
        let solve_start = Instant::now();
        let output = exp.run(&options);
        let solve_elapsed = solve_start.elapsed();
        let report_start = Instant::now();
        print!(
            "== {} — {} ==\n{}\n",
            exp.name(),
            exp.description(),
            output.to_text()
        );
        if let Some(dir) = &args.csv_dir {
            if let ExperimentOutput::Figure(fig) = &output {
                let path = dir.join(format!("{}.csv", exp.name()));
                if let Err(e) = std::fs::write(&path, render_csv(fig)) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if args.timing {
            eprintln!(
                "timing: {:<20} solve {:>9.3} s   report {:>9.3} s",
                exp.name(),
                solve_elapsed.as_secs_f64(),
                report_start.elapsed().as_secs_f64()
            );
        }
    }
    let policy = match options.execution {
        ExecutionPolicy::Serial => "serial".to_string(),
        ExecutionPolicy::Threads(n) => format!("{n} threads"),
    };
    eprintln!(
        "repro: {} experiment(s) in {:.2} s ({policy})",
        selected.len(),
        start.elapsed().as_secs_f64()
    );
}
