//! A minimal process-wide leveled logger for the CLI binaries.
//!
//! Status chatter in `enviromic`, `trace` and `artifacts` goes through
//! [`log_info!`](crate::log_info) instead of bare `eprintln!`, so `-q`
//! silences it in the binaries that take that flag. Warnings always
//! print. Output goes to stderr; stdout stays reserved for data (CSV,
//! JSON, dashboards).

use std::sync::atomic::{AtomicU8, Ordering};

/// Verbosity threshold for the process-wide logger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Only warnings (`-q`).
    Quiet = 0,
    /// Normal status lines (default).
    Info = 1,
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the process-wide verbosity.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-wide verbosity.
#[must_use]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Quiet,
        _ => Level::Info,
    }
}

/// Derives the level from a parsed `-q` flag and installs it.
pub fn init_from_flags(quiet: bool) {
    set_level(if quiet { Level::Quiet } else { Level::Info });
}

/// True when messages at `level` should print. Used by the macros;
/// callers can also use it to skip expensive formatting.
#[must_use]
pub fn enabled(at: Level) -> bool {
    level() >= at
}

/// Prints a status line to stderr unless the logger is quiet.
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            eprintln!($($arg)*);
        }
    };
}

/// Prints a warning to stderr at every verbosity level.
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        {
            eprint!("warning: ");
            eprintln!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_mapping_and_thresholds() {
        // Tests in this binary run in parallel; touch the global level
        // in one test only.
        init_from_flags(false);
        assert_eq!(level(), Level::Info);
        assert!(enabled(Level::Info));

        init_from_flags(true);
        assert_eq!(level(), Level::Quiet);
        assert!(!enabled(Level::Info));
        assert!(enabled(Level::Quiet));

        set_level(Level::Info);
    }
}
