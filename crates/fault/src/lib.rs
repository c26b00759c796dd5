//! # orchestra-fault
//!
//! A deterministic failpoint registry: named injection sites compiled
//! into production code paths (the WAL append/fsync path, the wire
//! read/write path, mesh round boundaries) that stay **zero-cost while
//! disabled** — the only thing a disabled site pays is one relaxed
//! atomic load and a predictable branch.
//!
//! ## Activation
//!
//! Failpoints activate from the environment:
//!
//! ```text
//! ORCHESTRA_FAILPOINTS="store.wal.fsync=err@0.05,net.client.send=cut@0.1x20"
//! ORCHESTRA_FAILPOINT_SEED=42
//! ```
//!
//! Each rule is `site=action@prob[xcount]`:
//!
//! * `site` — the injection point's name (see the site tables in
//!   `docs/architecture.md`);
//! * `action` — what the site should do when the rule fires: `err`
//!   (return an injected error), `torn` (a partial write/short read),
//!   `flip` (corrupt one byte), `cut` (drop the connection);
//! * `prob` — firing probability in `[0,1]` (`1` fires always);
//! * `xcount` — optional cap on total firings for the rule.
//!
//! Decisions come from a seeded splitmix64 stream keyed by
//! `(seed, site, per-site hit counter)`, so a run is exactly replayable
//! from its logged seed — no wall clock, no OS entropy.
//!
//! Tests and harnesses can install a configuration programmatically with
//! [`scoped`], which holds a global guard (configs are process-wide) and
//! restores the previous state on drop.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::undocumented_unsafe_blocks,
    )
)]

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// What a fired failpoint asks the site to do. Sites interpret actions
/// in their own terms (a `cut` at a WAL site behaves like `err`); the
/// registry only decides *whether* and *which*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fail the operation with an injected error.
    Err,
    /// Perform a partial write / short read, then fail.
    Torn,
    /// Corrupt one byte of the data in flight.
    Flip,
    /// Drop the connection / abandon the exchange.
    Cut,
}

impl Action {
    fn parse(s: &str) -> Option<Action> {
        Some(match s {
            "err" => Action::Err,
            "torn" => Action::Torn,
            "flip" => Action::Flip,
            "cut" => Action::Cut,
            _ => return None,
        })
    }

    /// The config-grammar name of this action.
    pub fn name(&self) -> &'static str {
        match self {
            Action::Err => "err",
            Action::Torn => "torn",
            Action::Flip => "flip",
            Action::Cut => "cut",
        }
    }
}

#[derive(Debug)]
struct Rule {
    site: String,
    action: Action,
    /// Firing threshold mapped onto the full u64 range: a draw below it
    /// fires. `prob = 1.0` maps to `u64::MAX` (always fires).
    threshold: u64,
    /// Remaining firings (`u64::MAX` = unlimited).
    remaining: AtomicU64,
    /// Decisions taken at this rule's site (fired or not) — the stream
    /// position, so replays are exact.
    decisions: AtomicU64,
    /// Times this rule actually fired.
    fired: AtomicU64,
}

#[derive(Debug, Default)]
struct Config {
    seed: u64,
    rules: Vec<Rule>,
}

// 0 = uninitialized, 1 = initialized + disabled, 2 = initialized + enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

fn registry() -> &'static Mutex<Option<Config>> {
    static REG: OnceLock<Mutex<Option<Config>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(None))
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Parse a config string (`site=action@prob[xcount],…`). Empty input is
/// a valid empty config. Errors name the offending rule.
fn parse(spec: &str, seed: u64) -> Result<Config, String> {
    let mut rules = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (site, rhs) = part
            .split_once('=')
            .ok_or_else(|| format!("failpoint rule `{part}`: expected site=action@prob"))?;
        let (action_s, tail) = rhs.split_once('@').unwrap_or((rhs, "1"));
        let action = Action::parse(action_s.trim())
            .ok_or_else(|| format!("failpoint rule `{part}`: unknown action `{action_s}`"))?;
        let (prob_s, count_s) = match tail.split_once('x') {
            Some((p, c)) => (p, Some(c)),
            None => (tail, None),
        };
        let prob: f64 = prob_s
            .trim()
            .parse()
            .map_err(|_| format!("failpoint rule `{part}`: bad probability `{prob_s}`"))?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!(
                "failpoint rule `{part}`: probability {prob} outside [0, 1]"
            ));
        }
        let remaining = match count_s {
            Some(c) => c
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("failpoint rule `{part}`: bad count `{c}`"))?,
            None => u64::MAX,
        };
        let threshold = if prob >= 1.0 {
            u64::MAX
        } else {
            (prob * (u64::MAX as f64)) as u64
        };
        rules.push(Rule {
            site: site.trim().to_string(),
            action,
            threshold,
            remaining: AtomicU64::new(remaining),
            decisions: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        });
    }
    Ok(Config { seed, rules })
}

fn init_from_env() -> bool {
    // Serialize initialization under the registry lock; whichever thread
    // wins publishes STATE last so `active()` readers never see stale 2.
    let mut guard = registry().lock().unwrap_or_else(|p| p.into_inner());
    // Re-check: another thread may have initialized while we waited.
    match STATE.load(Ordering::Acquire) {
        1 => return false,
        2 => return true,
        _ => {}
    }
    let spec = std::env::var("ORCHESTRA_FAILPOINTS").unwrap_or_default();
    let seed = std::env::var("ORCHESTRA_FAILPOINT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    match parse(&spec, seed) {
        Ok(cfg) if !cfg.rules.is_empty() => {
            *guard = Some(cfg);
            STATE.store(2, Ordering::Release);
            true
        }
        Ok(_) => {
            STATE.store(1, Ordering::Release);
            false
        }
        Err(e) => {
            // A malformed env var must not take the process down or
            // silently arm random sites: report once, stay disabled.
            eprintln!("orchestra-fault: ignoring ORCHESTRA_FAILPOINTS: {e}");
            STATE.store(1, Ordering::Release);
            false
        }
    }
}

/// Is any failpoint configuration armed? The disabled fast path: one
/// relaxed load and a branch, no locks, no allocation.
#[inline]
pub fn active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => init_from_env(),
    }
}

/// Consult the registry at a named site. Returns the action to inject,
/// or `None` (by far the common case — and the *only* case while no
/// configuration is armed).
#[inline]
pub fn check(site: &str) -> Option<Action> {
    if !active() {
        return None;
    }
    check_slow(site)
}

#[cold]
fn check_slow(site: &str) -> Option<Action> {
    let guard = registry().lock().unwrap_or_else(|p| p.into_inner());
    let cfg = guard.as_ref()?;
    let rule = cfg.rules.iter().find(|r| r.site == site)?;
    let n = rule.decisions.fetch_add(1, Ordering::Relaxed);
    let draw = splitmix(cfg.seed ^ fnv1a(site) ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d));
    if rule.threshold != u64::MAX && draw >= rule.threshold {
        return None;
    }
    // Reserve one firing from the cap (if any).
    let mut left = rule.remaining.load(Ordering::Relaxed);
    loop {
        if left == 0 {
            return None;
        }
        let next = if left == u64::MAX { left } else { left - 1 };
        match rule
            .remaining
            .compare_exchange_weak(left, next, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => break,
            Err(cur) => left = cur,
        }
    }
    rule.fired.fetch_add(1, Ordering::Relaxed);
    // Record the firing in the observability registry: the per-site
    // view, in-process and through a cluster poll (METRICS). Cold path:
    // a firing already took a lock.
    orchestra_obs::add_named(&format!("fault.fired.{}", rule.site), 1);
    Some(rule.action)
}

/// A deterministic u64 drawn at `site` from the armed config's stream —
/// for sites that need *which byte to flip* or *where to cut*, not just
/// whether to fire. Returns 0 when no config is armed.
pub fn draw(site: &str) -> u64 {
    if !active() {
        return 0;
    }
    let guard = registry().lock().unwrap_or_else(|p| p.into_inner());
    let Some(cfg) = guard.as_ref() else { return 0 };
    let Some(rule) = cfg.rules.iter().find(|r| r.site == site) else {
        return splitmix(cfg.seed ^ fnv1a(site));
    };
    let n = rule.fired.load(Ordering::Relaxed);
    splitmix(cfg.seed ^ fnv1a(site) ^ n.rotate_left(17))
}

/// Total firings across every armed rule.
pub fn injected_total() -> u64 {
    if !active() {
        return 0;
    }
    let guard = registry().lock().unwrap_or_else(|p| p.into_inner());
    guard.as_ref().map_or(0, |cfg| {
        cfg.rules
            .iter()
            .map(|r| r.fired.load(Ordering::Relaxed))
            .sum()
    })
}

/// The seed the armed config draws from (0 while disabled) — log it so
/// a failing run is replayable.
pub fn seed() -> u64 {
    if !active() {
        return 0;
    }
    let guard = registry().lock().unwrap_or_else(|p| p.into_inner());
    guard.as_ref().map_or(0, |cfg| cfg.seed)
}

/// Serializes [`scoped`] users: configs are process-global, so two tests
/// installing configs concurrently would trample each other.
fn scope_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Arms a configuration for the guard's lifetime; restores the previous
/// state (usually "disabled") on drop. See [`scoped`].
pub struct ScopeGuard {
    prev_cfg: Option<Config>,
    prev_state: u8,
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let mut guard = registry().lock().unwrap_or_else(|p| p.into_inner());
        *guard = self.prev_cfg.take();
        STATE.store(self.prev_state, Ordering::Release);
    }
}

/// Install a failpoint configuration programmatically (same grammar as
/// `ORCHESTRA_FAILPOINTS`) for as long as the returned guard lives.
/// Blocks until any other scoped config is dropped — configurations are
/// process-wide. Panics on a malformed spec (this is a test/harness
/// entry point; a typo should fail loudly).
pub fn scoped(spec: &str, seed: u64) -> ScopeGuard {
    let lock = scope_lock().lock().unwrap_or_else(|p| p.into_inner());
    #[expect(
        clippy::expect_used,
        reason = "documented contract: a malformed spec in a test harness must fail loudly"
    )]
    let cfg = parse(spec, seed).expect("valid failpoint spec");
    // Force env init first so `prev_state` reflects reality.
    let _ = active();
    let mut guard = registry().lock().unwrap_or_else(|p| p.into_inner());
    let prev_state = STATE.load(Ordering::Acquire);
    let prev_cfg = guard.take();
    let enabled = !cfg.rules.is_empty();
    *guard = Some(cfg);
    STATE.store(if enabled { 2 } else { 1 }, Ordering::Release);
    drop(guard);
    ScopeGuard {
        prev_cfg,
        prev_state,
        _lock: lock,
    }
}

/// Run `op` with every failpoint disarmed, whatever the environment
/// configured: for an operation a test asserts succeeds, while a fault
/// cell (`ORCHESTRA_FAILPOINTS`) arms the same sites for the rest of the
/// suite. Like [`scoped`], blocks while another scope is armed, so it
/// must not run inside one on the same thread.
pub fn disarmed<T>(op: impl FnOnce() -> T) -> T {
    let _clean = scoped("", 0);
    op()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_none_and_cheap() {
        // No env config in the test environment: every site is quiet.
        let _guard = scoped("", 0);
        assert!(!active());
        assert_eq!(check("store.wal.fsync"), None);
        assert_eq!(injected_total(), 0);
    }

    #[test]
    fn parse_grammar() {
        let cfg = parse("a=err@0.5, b.c=cut@1x3 ,d=flip", 7).unwrap();
        assert_eq!(cfg.rules.len(), 3);
        assert_eq!(cfg.rules[0].action, Action::Err);
        assert_eq!(cfg.rules[1].action, Action::Cut);
        assert_eq!(cfg.rules[1].remaining.load(Ordering::Relaxed), 3);
        assert_eq!(cfg.rules[2].threshold, u64::MAX);
        assert!(parse("broken", 0).is_err());
        assert!(parse("a=what@1", 0).is_err());
        assert!(parse("a=err@2.0", 0).is_err());
        assert!(parse("a=err@0.5xzz", 0).is_err());
    }

    #[test]
    fn always_fires_and_count_caps() {
        let _guard = scoped("s=err@1x2", 0);
        assert_eq!(check("s"), Some(Action::Err));
        assert_eq!(check("s"), Some(Action::Err));
        assert_eq!(check("s"), None, "count cap exhausted");
        assert_eq!(check("other"), None, "unarmed site");
        assert_eq!(injected_total(), 2);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let run = |seed| {
            let _guard = scoped("s=cut@0.5", seed);
            (0..64).map(|_| check("s").is_some()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42), "same seed, same stream");
        assert_ne!(run(42), run(43), "different seed, different stream");
        let fired = run(42).iter().filter(|f| **f).count();
        assert!((10..55).contains(&fired), "p=0.5 over 64 draws: {fired}");
    }

    #[test]
    fn scoped_restores_previous() {
        {
            let _outer = scoped("a=err@1", 1);
            assert_eq!(check("a"), Some(Action::Err));
        }
        assert_eq!(check("a"), None, "guard dropped, config restored");
    }

    /// Every firing `injected_total()` counts must also land in the
    /// observability registry as `fault.fired.<site>` — that is what a
    /// remote `METRICS` poll sees, so the two views must not drift.
    #[test]
    fn firings_mirror_into_the_obs_registry() {
        let counter = |name: &str| {
            orchestra_obs::snapshot()
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let before = counter("fault.fired.test.obs.mirror");
        let _guard = scoped("test.obs.mirror=err@1x3", 0);
        for _ in 0..5 {
            let _ = check("test.obs.mirror");
        }
        assert_eq!(injected_total(), 3, "count cap honored");
        assert_eq!(
            counter("fault.fired.test.obs.mirror"),
            before + injected_total(),
            "registry mirror drifted from injected_total()"
        );
    }

    #[test]
    fn draw_is_stable() {
        let _guard = scoped("s=flip@1", 9);
        let a = draw("s");
        assert_eq!(a, draw("s"), "no firings in between: same draw");
        let _ = check("s");
        assert_ne!(a, draw("s"), "a firing advances the stream");
    }
}
