//! A minimal SIGTERM/SIGINT latch for graceful drain, with no libc
//! dependency: on Unix the handler is installed through the C `signal`
//! symbol the platform already links; elsewhere [`install_term_flag`]
//! returns a flag no signal ever raises (drain is then driven by the
//! `shutdown` op alone).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// The one cell an async-signal-safe handler may touch. Process-global by
// necessity: signal dispositions are process-global too.
static SIGNAL_RAISED: AtomicBool = AtomicBool::new(false);

/// A shared "termination requested" latch, raised by a delivered SIGTERM
/// or SIGINT (after [`install_term_flag`]) or by [`TermFlag::raise`], and
/// polled by the serving loop. Cheap to clone; clones share state.
#[derive(Debug, Clone, Default)]
pub struct TermFlag {
    raised: Arc<AtomicBool>,
}

impl TermFlag {
    /// A fresh, unraised flag.
    pub fn new() -> TermFlag {
        TermFlag::default()
    }

    /// Whether termination has been requested — by a signal or by hand.
    pub fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst) || SIGNAL_RAISED.load(Ordering::SeqCst)
    }

    /// Requests termination by hand (how the `shutdown` op joins the
    /// same drain path as a signal; also useful in tests).
    pub fn raise(&self) {
        self.raised.store(true, Ordering::SeqCst);
    }
}

#[cfg(unix)]
mod imp {
    use super::{Ordering, SIGNAL_RAISED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX `signal(2)`. Declared by hand so the crate stays free of
        // a libc dependency; the symbol is always present in the
        // platform C runtime that Rust's std already links against.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        SIGNAL_RAISED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `on_signal` is a `'static extern "C" fn` with the
        // handler signature `signal(2)` expects, and all it does is store
        // to a static atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

/// Installs handlers for SIGTERM and SIGINT and returns the latch they
/// raise. On non-Unix platforms no handler is installed and the returned
/// flag is raised only by [`TermFlag::raise`].
pub fn install_term_flag() -> TermFlag {
    #[cfg(unix)]
    imp::install();
    TermFlag::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_clones_share_state() {
        let flag = TermFlag::new();
        let other = flag.clone();
        assert!(!other.is_raised());
        flag.raise();
        assert!(other.is_raised());
    }
}
