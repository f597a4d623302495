//! The router's resilience policy: bounded retries, exponential backoff
//! with deterministic jitter, per-request timeouts and a per-probe
//! deadline.
//!
//! Backoff is classic exponential-with-jitter, but the jitter comes from
//! the same stateless hash as fault injection ([`crate::fault::mix_unit`]
//! over `(seed, probe, shard, retry)`), so a retry schedule is a pure
//! function of the request's coordinates: tests assert the exact
//! millisecond sequence and production gets decorrelated retries for
//! free. All waiting goes through the injected [`crate::Clock`].

use crate::fault::mix_unit;

/// Total attempts per request, the first one included.
pub const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the first retry, in milliseconds (before jitter).
const BASE_BACKOFF_MS: u64 = 10;
/// Growth factor per further retry.
const BACKOFF_MULTIPLIER: f64 = 2.0;
/// Jitter fraction `j`: each backoff is scaled by a factor drawn
/// deterministically from `[1 − j, 1 + j)`.
const JITTER: f64 = 0.25;

/// The deadline knobs of one router: how long an attempt and a probe may
/// take.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Per-attempt budget: a timed-out attempt costs this much of the
    /// probe's deadline.
    pub request_timeout_ms: u64,
    /// Total time budget per probe, across all its shard requests'
    /// faults, backoffs and timeouts. Once spent, remaining failed
    /// requests for the probe degrade instead of retrying.
    pub probe_deadline_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            request_timeout_ms: 50,
            probe_deadline_ms: 1_000,
        }
    }
}

/// `BASE_BACKOFF_MS · BACKOFF_MULTIPLIER^(retry−1)`: the backoff before
/// retry `retry` (1-based), before jitter.
fn unjittered_ms(retry: u32) -> f64 {
    BASE_BACKOFF_MS as f64 * BACKOFF_MULTIPLIER.powi(retry as i32 - 1)
}

/// The backoff slept before retry `retry` (1-based) of request
/// `(probe, shard)`, jittered deterministically under `seed`: the
/// unjittered backoff times `f ∈ [1 − JITTER, 1 + JITTER)`. Pure in its
/// arguments.
pub fn backoff_ms(seed: u64, probe: u32, shard: u32, retry: u32) -> u64 {
    let unit = mix_unit(
        seed,
        &[0xB0FF, u64::from(probe), u64::from(shard), u64::from(retry)],
    );
    let factor = 1.0 - JITTER + 2.0 * JITTER * unit;
    (unjittered_ms(retry) * factor).round() as u64
}

/// Inclusive bounds of [`backoff_ms`] for retry `retry`, over every
/// possible jitter draw — what the deterministic tests check the
/// schedule against.
pub fn backoff_bounds_ms(retry: u32) -> (u64, u64) {
    let raw = unjittered_ms(retry);
    (
        (raw * (1.0 - JITTER)).floor() as u64,
        (raw * (1.0 + JITTER)).ceil() as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for retry in 1..=4 {
            let (lo, hi) = backoff_bounds_ms(retry);
            for probe in 0..32 {
                let a = backoff_ms(42, probe, 5, retry);
                assert_eq!(a, backoff_ms(42, probe, 5, retry));
                assert!(
                    a >= lo && a <= hi,
                    "retry {retry}: {a} outside [{lo}, {hi}]"
                );
            }
        }
    }
}
