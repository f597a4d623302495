//! The one probe → verify executor: right trees joined against a
//! [`Frozen`] side.
//!
//! Probe number `pos` is `right[pos]`: Algorithm 1's probe step against
//! the frozen shards, then its candidates verified against the left
//! trees' inputs. The work runs inline on the caller's thread
//! ([`run_inline`]), or pooled ([`execute`]) — probe workers claim probes
//! off a shared cursor and stream `(probe, candidate)` batches of
//! [`PartSjConfig::verify_batch`] over one bounded channel to verifier
//! workers, each owning a private [`VerifyEngine`]. Batching amortizes
//! channel synchronization; the bound applies backpressure so fast
//! probers cannot queue unbounded memory ahead of slow verifiers.
//! Results, candidate counts and stage counters are identical either
//! way and for every thread count.

use crate::frozen::{Frozen, FrozenJoinScratch};
use crossbeam::channel;
use partsj::{PartSjConfig, ProbeVerify, VerifyEngine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tsj_ted::{JoinStats, TreeIdx};
use tsj_tree::Tree;

/// Probes claimed per cursor bump — small enough to balance uneven
/// per-tree probe cost across probers, large enough to amortize the
/// atomic.
const CLAIM_CHUNK: usize = 4;

/// Verifies `candidates` of right tree number `pos`, `probe`, pushing
/// the `(left, pos)` pairs within the engine's threshold. `prep` is the
/// worker's buffer for the probe's verification inputs.
fn verify(
    left: &Frozen,
    (pos, probe): (usize, &Tree),
    candidates: impl Iterator<Item = TreeIdx>,
    engine: &mut VerifyEngine,
    prep: &mut ProbeVerify,
    pairs: &mut Vec<(TreeIdx, TreeIdx)>,
) {
    let data = prep.prepare(probe);
    for i in candidates {
        if engine.check(left.data(i), data).is_some() {
            pairs.push((i, pos as TreeIdx));
        }
    }
}

/// Joins `right` against `left` on the calling thread with caller-owned
/// state, appending to `pairs`; returns the candidate counts, phase
/// times and the engine's folded counters (`results` is left to the
/// caller, who normalizes the pairs). Allocates nothing once `scratch`
/// has grown to its working size.
pub(crate) fn run_inline(
    left: &Frozen,
    right: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    engine: &mut VerifyEngine,
    scratch: &mut FrozenJoinScratch,
    pairs: &mut Vec<(TreeIdx, TreeIdx)>,
) -> JoinStats {
    let mut stats = JoinStats::default();
    for (pos, probe) in right.iter().enumerate() {
        let probe_start = Instant::now();
        left.probe(probe, tau, config.matching, scratch);
        stats.candidates += scratch.step.found().len() as u64;
        stats.candidate_time += probe_start.elapsed();

        let verify_start = Instant::now();
        let found = scratch.step.found().iter().copied();
        let prep = &mut scratch.probe_verify;
        verify(left, (pos, probe), found, engine, prep, pairs);
        stats.verify_time += verify_start.elapsed();
    }
    stats.pairs_examined = stats.candidates;
    engine.fold_into(&mut stats);
    stats
}

/// Joins `right` against `left` with `probe_threads` probers and
/// `verify_threads` verifiers (both resolved, ≥ 1). The pool is taken
/// when either count exceeds one and there are at least
/// [`PartSjConfig::parallel_fallback`] probes; anything else runs inline.
pub(crate) fn execute(
    left: &Frozen,
    right: &[Tree],
    tau: u32,
    config: &PartSjConfig,
    probe_threads: usize,
    verify_threads: usize,
) -> (Vec<(TreeIdx, TreeIdx)>, JoinStats) {
    let mut pairs = Vec::new();
    if probe_threads.max(verify_threads) <= 1 || right.len() < config.parallel_fallback {
        let mut engine = VerifyEngine::new(tau, config);
        let scratch = &mut FrozenJoinScratch::new();
        let stats = run_inline(left, right, tau, config, &mut engine, scratch, &mut pairs);
        return (pairs, stats);
    }

    let start = Instant::now();
    let batch_size = config.verify_batch.max(1);
    // A few batches of slack per verifier: enough to keep the pool fed,
    // bounded so the probers cannot run away from slow verifiers.
    let (tx, rx) = channel::bounded::<Vec<(TreeIdx, TreeIdx)>>(verify_threads * 4);
    let cursor = AtomicUsize::new(0);
    let mut stats = JoinStats::default();
    crossbeam::scope(|scope| {
        let verifiers: Vec<_> = (0..verify_threads)
            .map(|_| {
                let rx = rx.clone();
                scope.spawn(move |_| {
                    let mut engine = VerifyEngine::new(tau, config);
                    let mut prep = ProbeVerify::new();
                    let mut found = Vec::new();
                    while let Ok(batch) = rx.recv() {
                        for run in batch.chunk_by(|a, b| a.0 == b.0) {
                            let pos = run[0].0 as usize;
                            let candidates = run.iter().map(|&(_, c)| c);
                            let probe = (pos, &right[pos]);
                            verify(left, probe, candidates, &mut engine, &mut prep, &mut found);
                        }
                    }
                    (found, engine)
                })
            })
            .collect();
        drop(rx);

        let probers: Vec<_> = (0..probe_threads)
            .map(|_| {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move |_| {
                    let mut scratch = FrozenJoinScratch::new();
                    let mut candidates = 0u64;
                    let mut batch = Vec::with_capacity(batch_size);
                    loop {
                        let claimed = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                        if claimed >= right.len() {
                            break;
                        }
                        for pos in claimed..(claimed + CLAIM_CHUNK).min(right.len()) {
                            left.probe(&right[pos], tau, config.matching, &mut scratch);
                            candidates += scratch.step.found().len() as u64;
                            for &candidate in scratch.step.found() {
                                batch.push((pos as TreeIdx, candidate));
                                if batch.len() >= batch_size {
                                    let full = std::mem::replace(
                                        &mut batch,
                                        Vec::with_capacity(batch_size),
                                    );
                                    tx.send(full).expect("verifier pool alive");
                                }
                            }
                        }
                    }
                    if !batch.is_empty() {
                        tx.send(batch).expect("verifier pool alive");
                    }
                    candidates
                })
            })
            .collect();
        drop(tx);

        for prober in probers {
            stats.candidates += prober.join().expect("probe worker panicked");
        }
        // Probe and verify overlap: wall time until the probers drained
        // counts as candidate generation, the verifier-drain tail as
        // verification.
        stats.candidate_time = start.elapsed();
        for verifier in verifiers {
            let (found, mut engine) = verifier.join().expect("verifier panicked");
            pairs.extend(found);
            engine.fold_into(&mut stats);
        }
    })
    .expect("join pool scope");
    stats.verify_time = start.elapsed().saturating_sub(stats.candidate_time);
    stats.pairs_examined = stats.candidates;
    (pairs, stats)
}
