//! The one probe → verify executor: right trees joined against a
//! [`Frozen`] side, each probed through a [`Prober`] and its candidates
//! verified against the left trees' inputs. Below the pool's thresholds
//! this is [`Frozen::join_seq`] (`partsj`'s R×S loop). Otherwise
//! ([`execute`]) probe workers, each holding a `Prober`, claim probes
//! off a shared cursor and stream `(probe, candidate)` batches of
//! [`PartSjConfig::verify_batch`] over one bounded channel to verifier
//! workers, each owning a private [`VerifyEngine`]. Batching amortizes
//! channel synchronization; the bound applies backpressure so fast
//! probers cannot queue unbounded memory ahead of slow verifiers.
//! Results, candidate counts and stage counters are identical either
//! way and for every thread count.

use crate::frozen::{Frozen, FrozenJoinScratch};
use crossbeam::channel;
use partsj::{PartSjConfig, ProbeVerify, Prober, VerifyEngine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tsj_ted::{JoinStats, TreeIdx};
use tsj_tree::Tree;

/// Probes claimed per cursor bump — small enough to balance uneven
/// per-tree probe cost across probers, large enough to amortize the
/// atomic.
const CLAIM_CHUNK: usize = 4;

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
        let stats = left.join_seq(right, tau, config, &mut engine, scratch, &mut pairs);
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
                            let data = prep.prepare(&right[run[0].0 as usize]);
                            for &(pos, i) in run {
                                if engine.check(left.data(i), data).is_some() {
                                    found.push((i, pos));
                                }
                            }
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
                    let mut prober = Prober::default();
                    let mut candidates = 0u64;
                    let mut batch = Vec::with_capacity(batch_size);
                    loop {
                        let claimed = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                        if claimed >= right.len() {
                            break;
                        }
                        for pos in claimed..(claimed + CLAIM_CHUNK).min(right.len()) {
                            let found = left.probe(&right[pos], tau, config.matching, &mut prober);
                            candidates += found.len() as u64;
                            for &candidate in found {
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
