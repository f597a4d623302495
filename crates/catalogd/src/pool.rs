//! A small per-address TCP connection pool.
//!
//! The scatter/gather client holds one connection per addressed node
//! for the duration of a join, and returns it afterwards; concurrent
//! joins (the load generator's worker threads) each check out their
//! own. Checkout order is LIFO — the most recently returned connection
//! is the most likely to still be warm.
//!
//! Dead connections never linger: a checkin with `healthy = false`
//! drops the socket, and an optional checkout-time [`Frame::Health`]
//! ping (`Frame` as in [`crate::wire::Frame`]) evicts connections whose
//! peer died while they sat idle — the pattern the pool test exercises
//! by killing the server between joins.

use crate::error::CatalogdError;
use crate::wire::Frame;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Pool tuning.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Dial timeout for new connections, in milliseconds.
    pub connect_timeout_ms: u64,
    /// Idle connections retained per address; surplus checkins close.
    pub max_idle_per_addr: usize,
    /// Whether checkout validates an idle connection with a
    /// [`Frame::Health`] round-trip before handing it out (evicting it
    /// and dialing fresh on failure). Costs one RTT; catches peers that
    /// died while the connection sat idle.
    pub ping_on_checkout: bool,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            connect_timeout_ms: 1_000,
            max_idle_per_addr: 8,
            ping_on_checkout: false,
        }
    }
}

/// A pooled TCP connection pool keyed by socket address.
#[derive(Debug)]
pub struct ConnPool {
    config: PoolConfig,
    idle: Mutex<HashMap<SocketAddr, Vec<TcpStream>>>,
}

impl ConnPool {
    /// An empty pool.
    pub fn new(config: PoolConfig) -> ConnPool {
        ConnPool {
            config,
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Idle connections currently held for `addr`.
    pub fn idle_count(&self, addr: SocketAddr) -> usize {
        self.idle
            .lock()
            .expect("pool lock")
            .get(&addr)
            .map_or(0, Vec::len)
    }

    /// Checks out a connection to `addr`: the most recently returned
    /// idle one (optionally health-validated), or a fresh dial. The
    /// lock is never held across network I/O, so concurrent checkouts
    /// to the same address proceed in parallel.
    pub fn checkout(&self, addr: SocketAddr) -> Result<TcpStream, CatalogdError> {
        loop {
            let candidate = self
                .idle
                .lock()
                .expect("pool lock")
                .get_mut(&addr)
                .and_then(Vec::pop);
            let Some(mut stream) = candidate else {
                return self.dial(addr);
            };
            if !self.config.ping_on_checkout || ping(&mut stream).is_ok() {
                return Ok(stream);
            }
            // Dead while idle: evict (drop) and try the next candidate.
        }
    }

    /// Returns a connection to the pool. `healthy = false` (or a full
    /// idle list) drops it instead — the dead-connection eviction path.
    pub fn checkin(&self, addr: SocketAddr, stream: TcpStream, healthy: bool) {
        if !healthy {
            return; // dropped: dead connections never re-enter the pool
        }
        let mut idle = self.idle.lock().expect("pool lock");
        let list = idle.entry(addr).or_default();
        if list.len() < self.config.max_idle_per_addr {
            list.push(stream);
        }
    }

    /// Drops every idle connection to `addr` (e.g. after the node was
    /// observed dead — anything pooled predates the failure).
    pub fn evict_addr(&self, addr: SocketAddr) {
        self.idle.lock().expect("pool lock").remove(&addr);
    }

    fn dial(&self, addr: SocketAddr) -> Result<TcpStream, CatalogdError> {
        let stream = TcpStream::connect_timeout(
            &addr,
            Duration::from_millis(self.config.connect_timeout_ms.max(1)),
        )
        .map_err(|e| CatalogdError::Io {
            kind: e.kind(),
            context: format!("connecting to {addr}"),
        })?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }
}

/// One blocking request/reply turn on `stream`, waiting at most
/// `timeout_ms` for the reply's bytes.
pub(crate) fn round_trip(
    stream: &mut TcpStream,
    request: &Frame,
    timeout_ms: u64,
) -> Result<Frame, CatalogdError> {
    let timeout = Duration::from_millis(timeout_ms);
    stream.set_read_timeout(Some(timeout)).ok();
    request.write_to(stream)?;
    Ok(Frame::read_from(stream)?)
}

/// One `Health` round-trip on `stream`.
fn ping(stream: &mut TcpStream) -> Result<(), CatalogdError> {
    match round_trip(stream, &Frame::Health, 1_000)? {
        Frame::HealthAck { .. } => Ok(()),
        other => Err(CatalogdError::Protocol {
            context: format!("expected HealthAck, got {other:?}"),
        }),
    }
}
