//! Output checks and failure accounting.
//!
//! An operation (one experiment run, one `check-specs` row, one `NodeSim`
//! run) fails when it panics, when a gate row fails, when a `NodeMetrics`
//! invariant breaks, or — at the default seed — when the digest of its
//! rendered output differs from the reference recorded in [`REFERENCE`].

use signaling::NodeMetrics;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The seed the reference digests were recorded at (the
/// `ExperimentOptions` default).
pub const DEFAULT_SEED: u64 = 2003;

/// Digests of every operation's output at [`DEFAULT_SEED`].  The goldens
/// define "same behaviour": a change that moves one of these changed what
/// the program computes.  Regenerate (only after establishing that the
/// change is intended) with `--print-digests`.
pub const REFERENCE: &[(&str, u64)] = &[
    ("exp.table1", 0xa0d9fdd5f971bd5b),
    ("exp.fig4a", 0x75ec8ad0b0ef7044),
    ("exp.fig4b", 0xf3a67c2b89f89c8a),
    ("exp.fig5a", 0x385f2238996569fd),
    ("exp.fig5b", 0x9edd6e44df26ab07),
    ("exp.fig6a", 0x02ebc3b61639e0e5),
    ("exp.fig6b", 0xe422f70dec364674),
    ("exp.fig7", 0x5149e13fdb16668f),
    ("exp.fig8a", 0xc5419d5a1a6cff9e),
    ("exp.fig8b", 0x65554abd3d053f61),
    ("exp.fig9", 0x331b31074eac4c01),
    ("exp.fig10a", 0x192421edfcaffb27),
    ("exp.fig10b", 0x279f660633624faa),
    ("exp.fig11a", 0x0b196ea4d25ad28f),
    ("exp.fig11b", 0xb2595ce7e0f74c0b),
    ("exp.fig12a", 0xd742b065c25801a1),
    ("exp.fig12b", 0xf97e5524fbb233f0),
    ("exp.fig17", 0xfa8f4e31ef80c7c0),
    ("exp.fig18a", 0xb3bcab7013ee5ee7),
    ("exp.fig18b", 0xbf9fa9f4ba7765bd),
    ("exp.fig19a", 0xb6c1bc00a10aecb0),
    ("exp.fig19b", 0x312cc6244f52b996),
    ("exp.dns-lease-cost", 0x8dd1043ff35387dc),
    ("exp.bgp-keepalive-loss", 0x92b2460b4bf0ffdd),
    ("exp.ss-rr-lifetime", 0xf64aa03c09dc71b6),
    ("exp.spec-spectrum", 0x611fada2a5c02056),
    ("exp.scenario-cost-sweep", 0xef3534626d5279b7),
    ("exp.node-scale", 0x3bd6169d41998108),
    ("exp.node-storm", 0x29bd0d9abd4d9486),
    ("exp.node-outage", 0xba7e7658a15fa90b),
    ("exp.node-restart-storm", 0x4a88778bdbd0c499),
    ("check.structural.--rrn", 0x70c9d978e31f50a0),
    ("check.structural.b-br-", 0x00af546716d32824),
    ("check.structural.b-brn", 0xf91f27a038a48651),
    ("check.structural.b-rr-", 0x5f2030e88a427180),
    ("check.structural.b-rrn", 0xee0ad278322a76e1),
    ("check.structural.btb--", 0x673f717cd110615d),
    ("check.structural.btb-n", 0xbacac7afdb29f4b6),
    ("check.structural.btbb-", 0xcfdf657f786c06a4),
    ("check.structural.btbbn", 0xe4434a031db073b3),
    ("check.structural.btbr-", 0xd09bbdf9b14154fc),
    ("check.structural.btbrn", 0xe5f21b72c76078a3),
    ("check.structural.btr--", 0x87422b82f1e077f1),
    ("check.structural.btr-n", 0xe047a5ba2bc19466),
    ("check.structural.btrb-", 0x0a675a14f4418b54),
    ("check.structural.btrbn", 0xa21318482999a94f),
    ("check.structural.btrr-", 0x797fe024c86c0a0c),
    ("check.structural.btrrn", 0xd7ea28d1ed3decdf),
    ("check.structural.r-br-", 0xf422bc8ae44c7e1a),
    ("check.structural.r-brn", 0xa2ed148be6e4bf41),
    ("check.structural.r-rr-", 0x12a1eec3c2ace30e),
    ("check.structural.r-rrn", 0xcd7e9d20c593dc79),
    ("check.structural.rtb--", 0xd28ccefad1082cfd),
    ("check.structural.rtb-n", 0xbb86079957f415c4),
    ("check.structural.rtbb-", 0x037f7584b46c327a),
    ("check.structural.rtbbn", 0xfa4c2430197bb71f),
    ("check.structural.rtbr-", 0x58e15c12afee1416),
    ("check.structural.rtbrn", 0x5ba6faead2ca249b),
    ("check.structural.rtr--", 0x5c1820a9642dd941),
    ("check.structural.rtr-n", 0x2818a01bbdfad5bc),
    ("check.structural.rtrb-", 0x3eaa9dc164b9ae8a),
    ("check.structural.rtrbn", 0xca3b6249a0631af3),
    ("check.structural.rtrr-", 0xcff4201c39ab0526),
    ("check.structural.rtrrn", 0xa1e0914d527bc60f),
    ("check.domination.--rrn", 0x6aa4117a368c1989),
    ("check.domination.b-br-", 0x31e0c914915aa8e3),
    ("check.domination.b-brn", 0x4f693d12a5b91da4),
    ("check.domination.b-rr-", 0xbeb51566d49b1cd3),
    ("check.domination.b-rrn", 0x4a4d8eb8366d1c94),
    ("check.domination.btb--", 0xba13426f3776402b),
    ("check.domination.btb-n", 0x1b3c080269ada63c),
    ("check.domination.btbb-", 0xf66c7ea2c3ab3087),
    ("check.domination.btbbn", 0xb245000deb0cb506),
    ("check.domination.btbr-", 0x1ac9d6925de76dd9),
    ("check.domination.btbrn", 0xe8e391848d365796),
    ("check.domination.btr--", 0x1c6ebe24b055e9db),
    ("check.domination.btr-n", 0x3ac22dfd4cdfdaec),
    ("check.domination.btrb-", 0xccb9d2ea8bf2f317),
    ("check.domination.btrbn", 0xba0ad9d1c69e9756),
    ("check.domination.btrr-", 0xbf78023e2d9aa5a9),
    ("check.domination.btrrn", 0x552c072bcf149866),
    ("check.domination.r-br-", 0xe245f58888abcafd),
    ("check.domination.r-brn", 0x186b21c500363dfc),
    ("check.domination.r-rr-", 0xf847482932c3158d),
    ("check.domination.r-rrn", 0xb79756346a71ce0c),
    ("check.domination.rtb--", 0xdfcc9907adfd1ba7),
    ("check.domination.rtb-n", 0x2d40a8ecc08b2a16),
    ("check.domination.rtbb-", 0x91516bea0dc4cbf5),
    ("check.domination.rtbbn", 0x1eb662f29a2556f4),
    ("check.domination.rtbr-", 0x3270540b3a9a9c77),
    ("check.domination.rtbrn", 0xaee53583bd1c7102),
    ("check.domination.rtr--", 0x0a843bf843565e37),
    ("check.domination.rtr-n", 0x90db6064a97e7766),
    ("check.domination.rtrb-", 0x2f54928196cad025),
    ("check.domination.rtrbn", 0x17742fba14131ce4),
    ("check.domination.rtrr-", 0xe63c449a35b0df67),
    ("check.domination.rtrrn", 0x08d62e3f25f79272),
    ("node-250k", 0x448e4877b119d3d3),
    ("storm.fixed", 0x373fabf217a65bd6),
    ("storm.backoff", 0x64d5605afc35dca6),
    ("storm.jittered", 0xbc34f6dd7a6e258b),
];

/// FNV-1a, 64 bit: a stable digest of rendered output.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Attempted and failed operations of one run.
#[derive(Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    check_digests: bool,
    /// `(operation, digest)` of every digested output, in run order.
    pub digests: Vec<(String, u64)>,
}

impl Ops {
    pub fn new(seed: u64) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            check_digests: seed == DEFAULT_SEED,
            digests: Vec::new(),
        }
    }

    /// Records one operation with the problems found in it.
    pub fn record(&mut self, op: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("sigperf: FAILED {op}: {p}");
            }
        }
    }

    /// Runs `f` as one operation; a panic counts as its failure.  The
    /// operation itself is recorded by the caller through
    /// [`Ops::record`] once its output is checked.
    pub fn guard<T>(&mut self, op: &str, f: impl FnOnce() -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.record(op, &["panicked".to_string()]);
                None
            }
        }
    }

    /// The digest problem of `op`'s rendered output, if any: at the default
    /// seed the digest must equal the recorded reference.
    pub fn digest_problem(&mut self, op: &str, rendered: &str) -> Option<String> {
        let d = digest(rendered.as_bytes());
        if !self.digests.iter().any(|(o, _)| o == op) {
            self.digests.push((op.to_string(), d));
        }
        if !self.check_digests {
            return None;
        }
        match REFERENCE.iter().find(|(o, _)| *o == op) {
            Some(&(_, want)) if want == d => None,
            Some(&(_, want)) => Some(format!(
                "output digest {d:#018x} differs from the reference {want:#018x}"
            )),
            None => Some(format!("no reference digest recorded (got {d:#018x})")),
        }
    }
}

/// The invariants every `NodeMetrics` must satisfy; returns the broken ones.
pub fn node_invariants(m: &NodeMetrics) -> Vec<String> {
    let mut broken = Vec::new();
    let sessions = m.sessions as f64;
    if !(0.0..=1.0).contains(&m.stale_fraction) {
        broken.push(format!(
            "stale_fraction {} outside [0, 1]",
            m.stale_fraction
        ));
    }
    if !(0.0..=sessions).contains(&m.mean_held) {
        broken.push(format!(
            "mean_held {} outside [0, {}]",
            m.mean_held, m.sessions
        ));
    }
    if !(0.0..=sessions).contains(&m.mean_active) {
        broken.push(format!(
            "mean_active {} outside [0, {}]",
            m.mean_active, m.sessions
        ));
    }
    let sends = m.messages.signaling_total();
    let drops = m.drops_random + m.drops_injected + m.drops_overload;
    if drops > sends {
        broken.push(format!("{drops} drops exceed {sends} sends"));
    }
    if m.events_processed == 0 {
        broken.push("no events processed".to_string());
    }
    broken
}

/// The committed fig11a golden, compared with the suite's fig11a JSON at
/// the default seed.
pub fn fig11a_golden() -> Result<String, String> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../tests/golden/fig11a_quick_serial.json"
    );
    std::fs::read_to_string(path).map_err(|e| format!("cannot read the fig11a golden: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use signaling::{NodeConfig, NodeSim, ProtocolSpec, SingleHopParams};

    fn small_run() -> NodeMetrics {
        let cfg = NodeConfig::new(ProtocolSpec::SS, SingleHopParams::kazaa_defaults(), 64)
            .with_horizon(30.0);
        NodeSim::new(cfg, 7).run()
    }

    #[test]
    fn a_real_run_satisfies_every_invariant() {
        assert_eq!(node_invariants(&small_run()), Vec::<String>::new());
    }

    #[test]
    fn the_invariant_checker_flags_a_broken_node_metrics() {
        let good = small_run();
        let mut bad = good;
        bad.stale_fraction = 1.5;
        assert_eq!(node_invariants(&bad).len(), 1);
        let mut bad = good;
        bad.mean_held = good.sessions as f64 + 1.0;
        bad.mean_active = -1.0;
        assert_eq!(node_invariants(&bad).len(), 2);
        let mut bad = good;
        bad.drops_overload = good.messages.signaling_total() + 1;
        assert_eq!(node_invariants(&bad).len(), 1);
        let mut bad = good;
        bad.events_processed = 0;
        bad.stale_fraction = f64::NAN;
        assert_eq!(node_invariants(&bad).len(), 2);
    }

    #[test]
    fn digests_are_checked_only_at_the_default_seed() {
        let mut other = Ops::new(DEFAULT_SEED + 1);
        assert_eq!(other.digest_problem("unknown-op", "x"), None);
        let mut default = Ops::new(DEFAULT_SEED);
        assert!(default.digest_problem("unknown-op", "x").is_some());
        assert_eq!(
            default.digests,
            vec![("unknown-op".to_string(), digest(b"x"))]
        );
    }

    #[test]
    fn failures_and_panics_are_counted() {
        let mut ops = Ops::new(1);
        ops.record("ok", &[]);
        ops.record("bad", &["broken".to_string()]);
        let out: Option<()> = ops.guard("boom", || panic!("deliberate panic"));
        assert!(out.is_none());
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest(b"a"), digest(b"b"));
    }
}
