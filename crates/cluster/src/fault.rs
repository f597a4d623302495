//! Deterministic fault injection.
//!
//! Every fault decision is a **stateless hash** of the injector seed and
//! the request's coordinates `(node, probe, shard, attempt)` — not a draw
//! from a shared PRNG stream. That makes the whole fault schedule
//! independent of thread interleaving: the scatter phase can fan out over
//! any number of workers and the same request still hits the same fault,
//! so a failing fault-matrix seed replays exactly.
//!
//! The injectable faults mirror what a real serving node does wrong:
//!
//! * **node down** — the node is unreachable (statically via
//!   [`FaultPlan::down_nodes`], or rolled per request); the router fails
//!   over to a replica immediately, without backoff;
//! * **delay** — the response arrives [`FaultPlan::delay_ms`] late; a
//!   delay longer than the per-request timeout *is* a timeout (the
//!   response is discarded before any work runs, so retried requests
//!   never double-count stats);
//! * **timeout** — the request consumes its full timeout and fails;
//! * **transient error** — an immediate retryable failure;
//! * **corrupted shard section on load** — not a plan field: a test
//!   damages one node's snapshot copy with [`corrupt_range`], hands it to
//!   `Cluster::from_node_snapshots`, and the checksummed, validating
//!   restore surfaces a typed error (the node comes up down).
//!
//! To add a fault type: add a variant to [`Fault`], a rate knob to
//! [`FaultPlan`], a branch in [`FaultInjector::decide`], and teach the
//! router's retry loop what the fault costs (time, health) — see the
//! cluster section of `docs/ARCHITECTURE.md` for the walkthrough.

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The target node is unreachable.
    NodeDown,
    /// The response is late by this many milliseconds (a value above the
    /// per-request timeout is equivalent to [`Fault::Timeout`]).
    Delay(u64),
    /// The request consumes its timeout and fails.
    Timeout,
    /// An immediate retryable error.
    Transient,
}

/// What to inject, and how often. Rates are per-request probabilities in
/// permille (so they stay exact integers); the default plan injects
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed of every fault decision.
    pub seed: u64,
    /// Nodes that are down from the start.
    pub down_nodes: Vec<usize>,
    /// Permille of requests whose target node drops dead.
    pub node_down_permille: u16,
    /// Permille of requests that fail with a transient error.
    pub transient_permille: u16,
    /// Permille of requests that time out.
    pub timeout_permille: u16,
    /// Permille of requests delayed by [`FaultPlan::delay_ms`].
    pub delay_permille: u16,
    /// How late a delayed response is.
    pub delay_ms: u64,
}

impl FaultPlan {
    /// A plan that injects nothing — the zero-fault baseline.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Sum of the per-request fault rates (must stay ≤ 1000).
    fn total_permille(&self) -> u32 {
        u32::from(self.node_down_permille)
            + u32::from(self.transient_permille)
            + u32::from(self.timeout_permille)
            + u32::from(self.delay_permille)
    }
}

/// SplitMix64 — the standard 64-bit finalizer; good avalanche, no state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes `seed` with every part, in order — the one mixing function
/// behind fault rolls, backoff jitter and corruption placement.
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(splitmix64(seed), |h, &p| splitmix64(h ^ p))
}

/// `mix` mapped to `[0, 1)` — the jitter source for
/// [`crate::backoff_ms`].
pub fn mix_unit(seed: u64, parts: &[u64]) -> f64 {
    // 53 mantissa bits: every value is exactly representable.
    (mix(seed, parts) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministically damages `bytes[range]`: a short run (1–4 bytes) at a
/// hash-picked offset is XOR-flipped with distinct non-zero masks, so the
/// net change can never cancel out and any FNV-checksummed section
/// containing the range fails its verify. Panics if the range is empty
/// or out of bounds (test-harness misuse, not a runtime path).
pub fn corrupt_range(bytes: &mut [u8], range: std::ops::Range<usize>, seed: u64) {
    assert!(!range.is_empty() && range.end <= bytes.len());
    let h = mix(seed, &[0xC0_44u64, range.start as u64, range.len() as u64]);
    let run = 1 + (h % 4) as usize;
    let run = run.min(range.len());
    let start = range.start + (h >> 3) as usize % (range.len() - run + 1);
    for (k, byte) in bytes[start..start + run].iter_mut().enumerate() {
        // Mask k is non-zero and distinct per position in the run.
        *byte ^= 1 + ((h >> (8 + 8 * k)) as u8 & 0x7f).wrapping_mul(2);
    }
}

/// The per-node fault oracle the router consults before every attempt.
///
/// `decide` is consulted *before* any compute runs, so a faulted request
/// does no probe or verify work — which is what keeps retried requests
/// from double-counting candidates or filter-stage counters.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fault (if any) injected into attempt `attempt` of request
    /// `(probe, shard)` against `node`. Pure in its arguments and the
    /// seed.
    pub fn decide(&self, node: usize, probe: u32, shard: u32, attempt: u32) -> Option<Fault> {
        if self.plan.down_nodes.contains(&node) {
            return Some(Fault::NodeDown);
        }
        let total = self.plan.total_permille();
        if total == 0 {
            return None;
        }
        let roll = (mix(
            self.plan.seed,
            &[
                node as u64,
                u64::from(probe),
                u64::from(shard),
                u64::from(attempt),
            ],
        ) % 1000) as u32;
        let mut edge = u32::from(self.plan.node_down_permille);
        if roll < edge {
            return Some(Fault::NodeDown);
        }
        edge += u32::from(self.plan.transient_permille);
        if roll < edge {
            return Some(Fault::Transient);
        }
        edge += u32::from(self.plan.timeout_permille);
        if roll < edge {
            return Some(Fault::Timeout);
        }
        edge += u32::from(self.plan.delay_permille);
        if roll < edge {
            return Some(Fault::Delay(self.plan.delay_ms));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_attempt_sensitive() {
        let injector = FaultInjector::new(FaultPlan {
            seed: 7,
            transient_permille: 500,
            ..FaultPlan::none()
        });
        for node in 0..4 {
            for probe in 0..16 {
                let a = injector.decide(node, probe, 3, 0);
                let b = injector.decide(node, probe, 3, 0);
                assert_eq!(a, b);
            }
        }
        // With a 50% rate, some (probe, attempt) pairs must differ across
        // attempts — the retry path sees fresh rolls.
        let differs = (0..64).any(|p| injector.decide(0, p, 0, 0) != injector.decide(0, p, 0, 1));
        assert!(differs);
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let injector = FaultInjector::new(FaultPlan::none());
        for probe in 0..128 {
            assert_eq!(injector.decide(0, probe, 0, 0), None);
        }
    }

    #[test]
    fn down_nodes_always_fail() {
        let injector = FaultInjector::new(FaultPlan {
            down_nodes: vec![2],
            ..FaultPlan::none()
        });
        assert_eq!(injector.decide(2, 9, 1, 3), Some(Fault::NodeDown));
        assert_eq!(injector.decide(1, 9, 1, 3), None);
    }

    #[test]
    fn corrupt_range_always_changes_the_range() {
        for seed in 0..64 {
            let clean = vec![0xabu8; 100];
            let mut dirty = clean.clone();
            corrupt_range(&mut dirty, 10..90, seed);
            assert_ne!(clean, dirty, "seed {seed} produced a no-op corruption");
            assert_eq!(clean[..10], dirty[..10]);
            assert_eq!(clean[90..], dirty[90..]);
        }
    }

    #[test]
    fn mix_unit_stays_in_unit_interval() {
        for seed in 0..256 {
            let u = mix_unit(seed, &[1, 2, 3]);
            assert!((0.0..1.0).contains(&u));
        }
    }
}
