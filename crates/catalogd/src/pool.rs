//! A small per-address TCP connection pool.
//!
//! The scatter/gather client holds one connection per addressed node
//! for the duration of a join, and returns it afterwards; concurrent
//! joins (the load generator's worker threads) each check out their
//! own. Checkout order is LIFO — the most recently returned connection
//! is the most likely to still be warm.
//!
//! Dead connections never linger: a checkin with `healthy = false`
//! drops the socket, and the client evicts every idle connection to a
//! node before it reconnects to it and after it shuts it down
//! ([`ConnPool::evict_addr`]), so nothing pooled predates a restart.

use crate::error::CatalogdError;
use crate::wire::Frame;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Dial timeout for new connections, in milliseconds.
const CONNECT_TIMEOUT_MS: u64 = 1_000;

/// Idle connections retained per address; surplus checkins close.
pub const MAX_IDLE_PER_ADDR: usize = 8;

/// A pooled TCP connection pool keyed by socket address.
#[derive(Debug, Default)]
pub struct ConnPool {
    idle: Mutex<HashMap<SocketAddr, Vec<TcpStream>>>,
}

impl ConnPool {
    /// An empty pool.
    pub fn new() -> ConnPool {
        ConnPool::default()
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
    /// idle one, or a fresh dial. The lock is never held across network
    /// I/O, so concurrent checkouts to the same address proceed in
    /// parallel.
    pub fn checkout(&self, addr: SocketAddr) -> Result<TcpStream, CatalogdError> {
        let idle = self
            .idle
            .lock()
            .expect("pool lock")
            .get_mut(&addr)
            .and_then(Vec::pop);
        match idle {
            Some(stream) => Ok(stream),
            None => dial(addr),
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
        if list.len() < MAX_IDLE_PER_ADDR {
            list.push(stream);
        }
    }

    /// Drops every idle connection to `addr` (e.g. after the node was
    /// observed dead — anything pooled predates the failure).
    pub fn evict_addr(&self, addr: SocketAddr) {
        self.idle.lock().expect("pool lock").remove(&addr);
    }
}

fn dial(addr: SocketAddr) -> Result<TcpStream, CatalogdError> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(CONNECT_TIMEOUT_MS))
        .map_err(|e| CatalogdError::Io {
            kind: e.kind(),
            context: format!("connecting to {addr}"),
        })?;
    stream.set_nodelay(true).ok();
    Ok(stream)
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
