//! Process-level measurement shared with the benchmark under `perfbench/`.

/// The process's peak resident set size in kilobytes, read from
/// `/proc/self/status` (`VmHWM`). Returns 0 on platforms without procfs —
/// consumers (the benchmark's `peak_rss_mb` metric) treat 0 as
/// "unavailable", never as "no memory used".
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.split_whitespace()
                .next()
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        // On Linux a running process always has a nonzero high-water mark;
        // elsewhere the helper degrades to its 0 sentinel.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        } else {
            assert_eq!(peak_rss_kb(), 0);
        }
    }
}
