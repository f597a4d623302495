//! The one probe → verify executor behind the batch joins.
//!
//! A batch join is a sequence of probing trees; each runs Algorithm 1's
//! probe step and hands its candidates to verification. What a join
//! *is* — which index, which admission rule, which side of the pair the
//! probe lands on — lives in its [`JoinSide`]; how the work is *run*
//! lives here, once: inline on the caller's thread ([`run_inline`]), or
//! pooled ([`execute`]) — probe workers claim probes off a shared cursor
//! and stream `(probe, candidate)` batches of
//! [`PartSjConfig::verify_batch`] over one bounded channel to verifier
//! workers, each owning a private [`VerifyEngine`]. Batching amortizes
//! channel synchronization; the bound applies backpressure so fast
//! probers cannot queue unbounded memory ahead of slow verifiers.
//! Results, candidate counts and stage counters are identical either
//! way and for every thread count.

use crate::frozen::FrozenJoinScratch;
use crossbeam::channel;
use partsj::probe::ProbeCounters;
use partsj::{PartSjConfig, ProbeVerify, VerifyEngine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tsj_ted::{JoinStats, TreeIdx};

/// Probes claimed per cursor bump — small enough to balance the skew of
/// ascending-size order, large enough to amortize the atomic.
const CLAIM_CHUNK: usize = 4;

/// What distinguishes one batch join from another.
pub(crate) trait JoinSide: Sync {
    /// Number of probing trees.
    fn probes(&self) -> usize;

    /// Algorithm 1's probe step for probing tree number `pos`: leaves
    /// its candidates in `scratch.step` and returns how many of
    /// them came from the small-tree side list.
    fn probe(
        &self,
        pos: usize,
        scratch: &mut FrozenJoinScratch,
        counters: &mut ProbeCounters,
    ) -> u64;

    /// Verifies `candidates` of probing tree `pos`, pushing the pairs
    /// within τ. `prep` is the worker's buffer for probe-side
    /// verification inputs built on demand.
    fn verify(
        &self,
        pos: usize,
        candidates: impl Iterator<Item = TreeIdx>,
        engine: &mut VerifyEngine,
        prep: &mut ProbeVerify,
        pairs: &mut Vec<(TreeIdx, TreeIdx)>,
    );
}

/// What a run reports besides its pairs.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Candidate counts, phase times and the folded engine counters
    /// (`results` is left to the caller, who normalizes the pairs).
    pub stats: JoinStats,
    pub counters: ProbeCounters,
    pub small_candidates: u64,
}

impl Tally {
    fn probed(&mut self, small: u64, scratch: &FrozenJoinScratch) {
        self.small_candidates += small;
        self.stats.candidates += scratch.step.found().len() as u64;
    }
}

/// Runs `side` on the calling thread with caller-owned state, appending
/// to `pairs`. Allocates nothing once `scratch` has grown to its
/// working size.
pub(crate) fn run_inline<S: JoinSide>(
    side: &S,
    engine: &mut VerifyEngine,
    scratch: &mut FrozenJoinScratch,
    pairs: &mut Vec<(TreeIdx, TreeIdx)>,
) -> Tally {
    let mut tally = Tally::default();
    for pos in 0..side.probes() {
        let probe_start = Instant::now();
        let small = side.probe(pos, scratch, &mut tally.counters);
        tally.probed(small, scratch);
        tally.stats.candidate_time += probe_start.elapsed();

        let verify_start = Instant::now();
        let found = scratch.step.found().iter().copied();
        side.verify(pos, found, engine, &mut scratch.probe_verify, pairs);
        tally.stats.verify_time += verify_start.elapsed();
    }
    tally.stats.pairs_examined = tally.stats.candidates;
    engine.fold_into(&mut tally.stats);
    tally
}

/// Runs `side` with `probe_threads` probers and `verify_threads`
/// verifiers (both resolved, ≥ 1). The pool is taken when either count
/// exceeds one and there are at least [`PartSjConfig::parallel_fallback`]
/// probes; anything else runs inline.
pub(crate) fn execute<S: JoinSide>(
    side: &S,
    tau: u32,
    config: &PartSjConfig,
    probe_threads: usize,
    verify_threads: usize,
) -> (Vec<(TreeIdx, TreeIdx)>, Tally) {
    let mut pairs = Vec::new();
    if probe_threads.max(verify_threads) <= 1 || side.probes() < config.parallel_fallback {
        let mut engine = VerifyEngine::new(tau, config);
        let tally = run_inline(side, &mut engine, &mut FrozenJoinScratch::new(), &mut pairs);
        return (pairs, tally);
    }

    let start = Instant::now();
    let batch_size = config.verify_batch.max(1);
    // A few batches of slack per verifier: enough to keep the pool fed,
    // bounded so the probers cannot run away from slow verifiers.
    let (tx, rx) = channel::bounded::<Vec<(TreeIdx, TreeIdx)>>(verify_threads * 4);
    let cursor = AtomicUsize::new(0);
    let mut tally = Tally::default();
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
                            let candidates = run.iter().map(|&(_, c)| c);
                            side.verify(
                                run[0].0 as usize,
                                candidates,
                                &mut engine,
                                &mut prep,
                                &mut found,
                            );
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
                    let mut tally = Tally::default();
                    let mut batch = Vec::with_capacity(batch_size);
                    loop {
                        let claimed = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                        if claimed >= side.probes() {
                            break;
                        }
                        for pos in claimed..(claimed + CLAIM_CHUNK).min(side.probes()) {
                            let small = side.probe(pos, &mut scratch, &mut tally.counters);
                            tally.probed(small, &scratch);
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
                    tally
                })
            })
            .collect();
        drop(tx);

        for prober in probers {
            let part = prober.join().expect("probe worker panicked");
            tally.small_candidates += part.small_candidates;
            tally.stats.candidates += part.stats.candidates;
            tally.counters.probes += part.counters.probes;
            tally.counters.match_attempts += part.counters.match_attempts;
            tally.counters.matches += part.counters.matches;
        }
        // Probe and verify overlap: wall time until the probers drained
        // counts as candidate generation, the verifier-drain tail as
        // verification.
        tally.stats.candidate_time = start.elapsed();
        for verifier in verifiers {
            let (found, mut engine) = verifier.join().expect("verifier panicked");
            pairs.extend(found);
            engine.fold_into(&mut tally.stats);
        }
    })
    .expect("join pool scope");
    tally.stats.verify_time = start.elapsed().saturating_sub(tally.stats.candidate_time);
    tally.stats.pairs_examined = tally.stats.candidates;
    (pairs, tally)
}
