//! Thread-count resolution shared by every pipeline and CLI.
//!
//! The whole workspace uses one convention: a thread count of
//! [`AUTO_THREADS`] (`0`) means "use every core the OS reports"
//! ([`std::thread::available_parallelism`]), and any positive value is an
//! explicit override. Configs store the raw value so they serialize
//! portably; resolution to a concrete count happens only at run time.

/// Sentinel thread count meaning "resolve to [`available_threads`] at run
/// time". Stored in configs instead of a resolved count so that a config
/// serialized on a 128-core machine does not pin a 4-core machine to 128
/// threads.
pub const AUTO_THREADS: usize = 0;

/// Number of hardware threads the OS reports, with a floor of 1 (the query
/// can fail on exotic platforms, in which case serial execution is the only
/// safe answer).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a requested thread count: [`AUTO_THREADS`] becomes
/// [`available_threads`], anything else is used as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == AUTO_THREADS {
        available_threads()
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_to_available_parallelism() {
        assert_eq!(resolve_threads(AUTO_THREADS), available_threads());
        assert!(resolve_threads(AUTO_THREADS) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
