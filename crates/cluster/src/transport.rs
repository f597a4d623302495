//! The transport seam between the [`crate::Router`] and whatever
//! actually serves a shard request.
//!
//! The router plans requests, picks replicas, sleeps backoff, charges
//! deadlines and folds responses; a [`NodeTransport`] only answers
//! "attempt this request on that node" and reports what happened as an
//! [`AttemptOutcome`]. A front end owns one router and builds a
//! transport per join. Two transports exist:
//!
//! * the in-process one (here, behind [`crate::Cluster::join`]) —
//!   consults the deterministic [`crate::FaultInjector`] *before* any
//!   compute, then calls `Node::serve` on the restored node; every
//!   cluster property suite runs through it;
//! * `TcpTransport` (in the `tsj-catalogd` crate, behind its
//!   `ClusterClient`) — the same contract over pooled TCP connections,
//!   where faults are real: a refused or reset connection is
//!   [`Fault::NodeDown`], a socket read timeout is [`Fault::Timeout`], a
//!   server `Error` frame is [`Fault::Transient`].
//!
//! Because both transports feed the one [`crate::Router::join`], the
//! bit-identity contract — pairs, candidate counts, filter-stage
//! counters identical to single-node `Catalog::join` — and the typed
//! degradation contract are proven once and inherited by every
//! transport.

use crate::cluster::NodeSlot;
use crate::error::ClusterError;
use crate::fault::{Fault, FaultInjector};
use crate::node::{NodeScratch, ProbeCtx, ShardRequest, ShardResponse};
use partsj::PartSjConfig;
use tsj_obs::Clock;
use tsj_tree::Tree;

/// What one serve attempt produced, as the router's gather phase
/// consumes it.
#[derive(Debug)]
pub enum AttemptOutcome {
    /// The node answered.
    Served {
        /// The shard response (matches + partial stats).
        resp: ShardResponse,
        /// Injected delay the attempt absorbed before answering, in
        /// clock milliseconds — counted as a fault by the router.
        /// Real transports report `0` here.
        injected_delay_ms: u64,
        /// Deadline-accounted time the attempt cost, in clock
        /// milliseconds. For the in-process transport this equals the
        /// injected delay (compute is free on a virtual clock); a TCP
        /// transport reports measured wall time.
        latency_ms: u64,
    },
    /// The attempt failed with a retryable fault ([`Fault::Delay`] never
    /// appears here — transports resolve delays into `Served` or
    /// [`Fault::Timeout`] before reporting).
    Failed(Fault),
    /// The response would have landed past the probe's remaining
    /// deadline, so it was discarded before any wait: the request stops
    /// retrying and degrades.
    DeadlineExceeded,
}

/// One way of getting a [`ShardRequest`] answered by a node.
///
/// The router owns *policy* (replica choice, retry, backoff, deadlines,
/// health, metrics attribution); a transport owns *mechanism* (how an
/// attempt reaches a node and what its failure modes are). Transports
/// are constructed per join — they hold the probe batch and config, so
/// retries resend what the scatter prepared.
pub trait NodeTransport {
    /// First attempts, fanned out: `per_node[n]` lists the indices into
    /// `requests` routed to node `n` (only alive nodes appear). Returns
    /// one outcome per request index; entries for requests not listed in
    /// `per_node` stay `None` (the router treats them as having no alive
    /// replica). A returned error aborts the whole join — reserved for
    /// non-fault failures (a routing bug, a poisoned local node).
    fn scatter(
        &mut self,
        requests: &[ShardRequest],
        per_node: &[Vec<usize>],
        tau: u32,
    ) -> Result<Vec<Option<AttemptOutcome>>, ClusterError>;

    /// One sequential retry attempt of `req` against `node`, `attempt`
    /// being the 1-based retry ordinal (the fault injector and any
    /// server see fresh coordinates per attempt). `deadline_left_ms` is
    /// the probe's remaining deadline budget: a transport that knows the
    /// answer would land later returns
    /// [`AttemptOutcome::DeadlineExceeded`] without waiting.
    fn serve(
        &mut self,
        node: usize,
        req: &ShardRequest,
        attempt: u32,
        tau: u32,
        deadline_left_ms: u64,
    ) -> Result<AttemptOutcome, ClusterError>;
}

/// The in-process transport: attempts against restored [`crate::Node`]s,
/// faults decided by the deterministic injector *before* any compute
/// runs (so failed attempts contribute no stats and retries can never
/// double-count). Built per join by [`crate::Cluster::join`].
pub(crate) struct LocalTransport<'a> {
    pub(crate) slots: &'a [NodeSlot],
    pub(crate) injector: &'a FaultInjector,
    pub(crate) clock: &'a dyn Clock,
    pub(crate) request_timeout_ms: u64,
    pub(crate) probes: &'a [Tree],
    pub(crate) config: &'a PartSjConfig,
    /// Probe-side contexts, prepared by the scatter and shared by every
    /// shard request of a probe.
    pub(crate) ctxs: Vec<ProbeCtx>,
}

impl LocalTransport<'_> {
    /// Attempt `attempt` of `req` on node `n`: inject, then serve. An
    /// injected delay within the request timeout is slept and absorbed —
    /// unless it would land past `deadline_left_ms`, when the response is
    /// discarded before any waiting; a longer delay is a timeout. A node
    /// that is down answers as [`Fault::NodeDown`].
    fn attempt(
        &self,
        n: usize,
        req: &ShardRequest,
        attempt: u32,
        tau: u32,
        deadline_left_ms: u64,
        scratch: &mut NodeScratch,
    ) -> Result<AttemptOutcome, ClusterError> {
        let NodeSlot::Up(node) = &self.slots[n] else {
            return Ok(AttemptOutcome::Failed(Fault::NodeDown));
        };
        let delay = match self.injector.decide(n, req.probe, req.shard, attempt) {
            None => 0,
            Some(Fault::Delay(d)) if d <= self.request_timeout_ms => {
                if d > deadline_left_ms {
                    return Ok(AttemptOutcome::DeadlineExceeded);
                }
                self.clock.sleep_ms(d);
                d
            }
            // A delay past the timeout *is* a timeout: the response is
            // discarded before any work runs.
            Some(Fault::Delay(_)) => return Ok(AttemptOutcome::Failed(Fault::Timeout)),
            Some(fault) => return Ok(AttemptOutcome::Failed(fault)),
        };
        let ctx = &self.ctxs[req.probe as usize];
        Ok(AttemptOutcome::Served {
            resp: node.serve(req, ctx, tau, self.config, scratch)?,
            injected_delay_ms: delay,
            latency_ms: delay,
        })
    }
}

impl NodeTransport for LocalTransport<'_> {
    fn scatter(
        &mut self,
        requests: &[ShardRequest],
        per_node: &[Vec<usize>],
        tau: u32,
    ) -> Result<Vec<Option<AttemptOutcome>>, ClusterError> {
        self.ctxs = ProbeCtx::batch(self.probes, self.config);
        let this = &*self;
        let gathered = crossbeam::scope(|scope| {
            let handles: Vec<_> = per_node
                .iter()
                .enumerate()
                .filter(|(_, list)| !list.is_empty())
                .map(|(n, list)| {
                    scope.spawn(move |_| {
                        let mut scratch = NodeScratch::default();
                        list.iter()
                            .map(|&r| {
                                let outcome =
                                    this.attempt(n, &requests[r], 0, tau, u64::MAX, &mut scratch)?;
                                Ok((r, outcome))
                            })
                            .collect::<Result<Vec<_>, ClusterError>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("scatter scope");
        let mut outcomes: Vec<Option<AttemptOutcome>> = requests.iter().map(|_| None).collect();
        for worker in gathered {
            for (r, outcome) in worker? {
                outcomes[r] = Some(outcome);
            }
        }
        Ok(outcomes)
    }

    fn serve(
        &mut self,
        node: usize,
        req: &ShardRequest,
        attempt: u32,
        tau: u32,
        deadline_left_ms: u64,
    ) -> Result<AttemptOutcome, ClusterError> {
        let mut scratch = NodeScratch::default();
        self.attempt(node, req, attempt, tau, deadline_left_ms, &mut scratch)
    }
}
