//! Host facts recorded with every run: memory high-water mark, core
//! count, and the revision of the measured tree.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The measured revision: the commit `.git/HEAD` names, through a
/// loose ref or `packed-refs`, or `unknown` when the tree is not a git
/// checkout. Reads a few small files below `root`.
pub fn revision(root: &Path) -> String {
    git_head(&root.join(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, r) = l.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}
