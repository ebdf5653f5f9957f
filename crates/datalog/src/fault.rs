//! Fault injection and cooperative cancellation for the evaluator.
//!
//! A [`FaultInjector`] names the [`FaultSite`] a test wants to break — a join
//! inner loop, a round merge, a delete-propagation phase — and fires exactly
//! once, either as a structured error or as a panic, so the chaos harness
//! (`tests/engine_chaos_props.rs`) can assert that *any* failure leaves the
//! session recoverable with the fact store as source of truth. Disk faults are
//! not sites: the crash harnesses run a durable session on a simulated disk
//! that fails, panics or crashes at any of its calls (the fault model in the
//! engine crate's durability docs).
//!
//! [`CancelToken`] is the cooperative-cancellation half: a shareable flag the
//! evaluator polls every bounded number of rows, letting a front end (e.g. the
//! REPL's Ctrl-C handler) abort a running evaluation without killing the
//! process.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// Named locations where a [`FaultInjector`] can fire. Each site corresponds to
/// one call of [`FaultInjector::hit`] threaded through the evaluator or engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Inside the compiled join loop, once per governance poll (i.e. while a
    /// rule is mid-firing, with partially staged output).
    JoinOuterLoop,
    /// At a semi-naive round boundary, after the round's firings were staged.
    RoundMerge,
    /// During the over-delete fixpoint of delete propagation.
    DeleteOverdelete,
    /// During the counting re-derivation pass of delete propagation.
    DeleteRederive,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultSite::JoinOuterLoop => "join-outer-loop",
            FaultSite::RoundMerge => "round-merge",
            FaultSite::DeleteOverdelete => "delete-overdelete",
            FaultSite::DeleteRederive => "delete-rederive",
        };
        f.write_str(name)
    }
}

/// How an armed fault manifests when its site is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Return a structured injected-fault error from the site.
    Error,
    /// Panic at the site (exercises the panic-isolation path).
    Panic,
}

struct InjectorInner {
    site: FaultSite,
    action: FaultAction,
    /// Site hits remaining before the fault fires (0 = fire on the next hit).
    countdown: AtomicI64,
    /// Set once the fault has fired; it never fires twice.
    fired: AtomicBool,
}

/// A one-shot fault injector: armed with a [`FaultSite`], a [`FaultAction`],
/// and a hit countdown; fires exactly once when its site has been reached
/// `countdown + 1` times. Clones share the armed state, so the engine can hand
/// copies to every evaluation it runs. Test harness only — the
/// production path carries `None` and pays one branch per site.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<InjectorInner>>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("FaultInjector(disarmed)"),
            Some(inner) => write!(
                f,
                "FaultInjector({} {:?}, fired: {})",
                inner.site,
                inner.action,
                inner.fired.load(Ordering::Relaxed)
            ),
        }
    }
}

impl FaultInjector {
    /// An injector armed to fire `action` at the `countdown + 1`-th hit of `site`.
    pub fn armed(site: FaultSite, action: FaultAction, countdown: u32) -> FaultInjector {
        FaultInjector {
            inner: Some(Arc::new(InjectorInner {
                site,
                action,
                countdown: AtomicI64::new(countdown as i64),
                fired: AtomicBool::new(false),
            })),
        }
    }

    /// Report reaching `site`. Returns the action to take if the armed fault
    /// fires here and now (at most once over the injector's lifetime).
    pub fn hit(&self, site: FaultSite) -> Option<FaultAction> {
        let inner = self.inner.as_ref()?;
        if inner.site != site || inner.fired.load(Ordering::Relaxed) {
            return None;
        }
        if inner.countdown.fetch_sub(1, Ordering::Relaxed) > 0 {
            return None;
        }
        // Several threads may pass the countdown concurrently; exactly one wins.
        if inner.fired.swap(true, Ordering::Relaxed) {
            return None;
        }
        Some(inner.action)
    }

    /// Has the armed fault fired?
    pub fn fired(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.fired.load(Ordering::Relaxed))
    }

    /// The site and action of the fault, if it has fired.
    pub fn fired_at(&self) -> Option<(FaultSite, FaultAction)> {
        let inner = self.inner.as_ref()?;
        inner
            .fired
            .load(Ordering::Relaxed)
            .then_some((inner.site, inner.action))
    }

    /// The armed site, if any.
    pub fn site(&self) -> Option<FaultSite> {
        self.inner.as_ref().map(|inner| inner.site)
    }
}

/// A shareable cooperative-cancellation flag (`Arc<AtomicBool>` underneath).
/// Clones observe the same flag; the evaluator polls it every bounded number of
/// rows (see the `EvalOptions` docs for the granularity bound) and aborts with a
/// structured error when it is set. Cancelling an idle token is harmless — the
/// next evaluation that starts under it aborts at its first poll, so front ends
/// typically [`reset`](CancelToken::reset) the token before each run.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Safe from any thread, including a signal handler
    /// (a relaxed atomic store — no locks, no allocation).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Clear the flag so the token can govern another run.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled() && clone.is_cancelled());
        token.reset();
        assert!(!clone.is_cancelled());
    }

    #[test]
    fn injector_fires_exactly_once_at_its_site() {
        let inj = FaultInjector::armed(FaultSite::RoundMerge, FaultAction::Error, 2);
        assert_eq!(inj.site(), Some(FaultSite::RoundMerge));
        // Wrong site: never fires.
        assert_eq!(inj.hit(FaultSite::JoinOuterLoop), None);
        // Countdown of 2: third hit fires.
        assert_eq!(inj.hit(FaultSite::RoundMerge), None);
        assert_eq!(inj.hit(FaultSite::RoundMerge), None);
        assert!(!inj.fired());
        assert_eq!(inj.hit(FaultSite::RoundMerge), Some(FaultAction::Error));
        assert!(inj.fired());
        // One-shot: never again, even at the same site.
        assert_eq!(inj.hit(FaultSite::RoundMerge), None);
    }

    #[test]
    fn clones_share_the_fired_state() {
        let inj = FaultInjector::armed(FaultSite::DeleteRederive, FaultAction::Panic, 0);
        let clone = inj.clone();
        assert_eq!(
            clone.hit(FaultSite::DeleteRederive),
            Some(FaultAction::Panic)
        );
        assert!(inj.fired());
        assert_eq!(inj.hit(FaultSite::DeleteRederive), None);
    }

    #[test]
    fn disarmed_injector_is_inert() {
        let inj = FaultInjector::default();
        assert_eq!(inj.hit(FaultSite::JoinOuterLoop), None);
        assert!(!inj.fired());
        assert_eq!(inj.site(), None);
        assert_eq!(format!("{inj:?}"), "FaultInjector(disarmed)");
    }
}
