//! Process measurements and provenance read from the host (Linux `/proc`)
//! and the checkout.

use std::path::{Path, PathBuf};

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on Linux).
const CLOCK_TICKS: f64 = 100.0;

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU time of the whole process (every thread, joined
/// ones included) in seconds, or NaN when `/proc` is unavailable.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    match (fields.get(11), fields.get(12)) {
        (Some(u), Some(s)) => match (u.parse::<f64>(), s.parse::<f64>()) {
            (Ok(u), Ok(s)) => (u + s) / CLOCK_TICKS,
            _ => f64::NAN,
        },
        _ => f64::NAN,
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The repository root: the directory above this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out git revision, read from `.git` without running git;
/// `"none"` outside a git checkout.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A digest of the library sources and build files this benchmark
/// compiles (`crates/`, the root manifest and lock file, and this
/// package), in sorted path order: two runs with the same digest ran the
/// same code, with or without git.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "sigperf/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "sigperf/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend(std::fs::read(file).unwrap_or_default());
        bytes.push(0);
    }
    crate::check::digest(&bytes)
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_secs() >= 0.0);
        assert!(nproc() >= 1);
    }
}
