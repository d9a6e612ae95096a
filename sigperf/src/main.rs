//! `sigperf` — the repository benchmark.
//!
//! ```text
//! sigperf --workload <quick-suite|node-250k|storm-reliable> [--seed N]
//!         [--seconds S] [--trace 0|1] [--print-digests]
//! ```
//!
//! Runs passes of one workload for up to `--seconds` of host time (at
//! least one pass), checks every operation's output, and prints as its
//! last stdout line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.  `--trace 0` reports the end-to-end metrics; `--trace 1`
//! spends half the time untraced and half traced, reports the per-layer
//! metrics and the tracing overhead, and writes the spans to
//! `sigperf/out/trace-<workload>-seed<N>.jsonl`.  See README.md.

mod check;
mod report;
mod sys;
mod trace;
mod workloads;

use check::Ops;
use report::{Samples, END_TO_END};
use trace::Tracer;
use workloads::{Ctx, Workload, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = check::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_digests = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds needs a non-negative number, got '{v}'"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got '{other}'")),
                }
            }
            "--print-digests" => print_digests = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload
        .ok_or("--workload needs one of quick-suite, node-250k, storm-reliable".to_string())?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        print_digests,
    })
}

/// Runs passes while the next one is expected to end within `budget`
/// seconds (at least one pass), each inside a `pass` span, and records the
/// pass-level metrics.
fn run_passes(
    w: &Workload,
    ctx: &Ctx,
    budget: f64,
    tr: &mut Tracer,
    ops: &mut Ops,
    s: &mut Samples,
) {
    let threads = (w.threads)(ctx) as f64;
    let mut spent = 0.0;
    let mut last = 0.0;
    while s.count("wall_s") == 0 || spent + last <= budget {
        let cpu0 = sys::cpu_secs();
        let pass = tr.begin("pass");
        let session_secs = (w.pass)(ctx, tr, ops, s);
        let wall = tr.end(pass);
        spent += wall;
        last = wall;
        if s.count("wall_s") == 0 {
            // The first pass's peak: later passes reuse (or fragment) the
            // allocator's memory, so the process-wide peak after several
            // passes depends on allocation history, not on the program.
            s.push("peak_rss_mb", sys::peak_rss_mb());
        }
        s.push("wall_s", wall);
        s.push("session_s_per_s", session_secs / wall);
        s.push(
            "fanout.cpu_util",
            (sys::cpu_secs() - cpu0) / (wall * threads),
        );
        if let Some(id) = tr.last_ended() {
            let covered = 1.0 - trace::self_time(tr.spans(), id) / tr.spans()[id].duration();
            s.push("trace.coverage", covered);
        }
    }
}

fn provenance(args: &Args, ctx: &Ctx, passes: usize) -> String {
    let w = args.workload;
    let root = sys::repo_root();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"threads\": {}, \
         \"sessions\": \"{}\", \"horizon_s\": \"{}\", \"queue_kind\": \"{}\", \
         \"build_profile\": \"{profile}\", \"git_revision\": \"{}\", \
         \"source_digest\": \"{:#018x}\", \"seconds\": {}, \"trace\": {}, \"passes\": {passes}}}",
        w.name,
        args.seed,
        sys::nproc(),
        (w.threads)(ctx),
        w.sessions,
        w.horizon_s,
        w.queue_kind,
        sys::git_revision(&root),
        sys::source_digest(&root),
        args.seconds,
        u8::from(args.trace),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sigperf: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let ctx = Ctx {
        seed: args.seed,
        threads: sys::nproc(),
    };
    let mut ops = Ops::new(args.seed);
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut tr = Tracer::new(false);

    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        run_passes(
            w,
            &ctx,
            args.seconds / 2.0,
            &mut tr,
            &mut ops,
            &mut untraced,
        );
        tr.set_enabled(true);
        run_passes(w, &ctx, args.seconds / 2.0, &mut tr, &mut ops, &mut traced);
        let overhead = traced.median_or_zero("wall_s") - untraced.median_or_zero("wall_s");
        traced.push("trace.overhead_s", overhead);
        traced.push("fail_frac", ops.failed as f64 / ops.attempted.max(1) as f64);
        report::per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = traced.median_or_zero(&name);
                (name, v, unit)
            })
            .collect()
    } else {
        run_passes(w, &ctx, args.seconds, &mut tr, &mut ops, &mut untraced);
        END_TO_END
            .iter()
            .map(|&(name, unit, _)| (name.to_string(), untraced.median_or_zero(name), unit))
            .collect()
    };

    let passes = untraced.count("wall_s") + traced.count("wall_s");
    let provenance = provenance(&args, &ctx, passes);
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
        let body = trace::render_jsonl(tr.spans(), w.name, &provenance);
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!(
                "sigperf: {} spans written to {}",
                tr.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("sigperf: cannot write {}: {e}", path.display()),
        }
    }
    if args.print_digests {
        for (op, d) in &ops.digests {
            println!("    (\"{op}\", {d:#018x}),");
        }
    }

    let all_valid = metrics.iter().all(|(name, v, unit)| {
        v.is_finite() && report::valid_name(name) && report::valid_unit(unit)
    });
    if !all_valid {
        eprintln!("sigperf: a metric is not finite or has an invalid name or unit");
    }
    let walls = untraced.get("wall_s");
    let n = walls.len();
    let tail = report::supported_percentile(n, 10).map_or(
        "no tail percentile has 10 samples beyond it".to_string(),
        |p| format!("p{p} {:.4} s", report::percentile(walls, p)),
    );
    println!("provenance: {provenance}");
    println!(
        "{}: {n} untraced + {} traced passes; wall_s median over the untraced passes ({tail})",
        w.name,
        traced.count("wall_s")
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    let correct = ops.failed == 0 && ops.attempted > 0 && all_valid;
    println!(
        "{}",
        report::result_line(correct, ops.attempted, ops.failed, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
