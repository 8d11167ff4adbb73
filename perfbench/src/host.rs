//! Run metadata about the host and the checkout.

use std::fs;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Size of the highest cache level of CPU 0, as the kernel reports it.
pub fn last_level_cache() -> String {
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok().map(|s| s.trim().to_string());
        let (Some(level), Some(size)) = (read("level").and_then(|l| l.parse().ok()), read("size"))
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size));
        }
    }
    best.map_or("unknown".into(), |(level, size)| format!("L{level} {size}"))
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(format!(".git/{p}")).ok().map(|s| s.trim().to_string());
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(reference) {
        return rev;
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
