//! Shared fixtures for the catalogd integration suites.
//!
//! Each integration test binary compiles its own copy and uses a
//! subset, so unused-item warnings are expected noise here.
#![allow(dead_code)]

use partsj::PartSjConfig;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use tsj_catalog::Catalog;
use tsj_catalogd::interner_for;
use tsj_catalogd::wire::{ErrorCode, Frame};
use tsj_shard::ShardConfig;
use tsj_ted::JoinOutcome;
use tsj_tree::{LabelInterner, Tree};

/// Freezes a deterministic demo catalog: `n` SwissProt-like trees at
/// threshold `tau` over `shards` shards. Returns the snapshot bytes and
/// the exact trees + interner it was frozen with, so tests can replay
/// the single-node reference join.
pub fn freeze_demo(
    n: usize,
    tau: u32,
    shards: usize,
    seed: u64,
) -> (Vec<u8>, Vec<Tree>, LabelInterner) {
    let trees = tsj_datagen::swissprot_like(n, seed);
    let (snapshot, labels) = freeze_trees(&trees, tau, shards);
    (snapshot, trees, labels)
}

/// Freezes `trees` (raw-labeled, as datagen draws them) into snapshot
/// bytes, with the interner that names their labels.
pub fn freeze_trees(trees: &[Tree], tau: u32, shards: usize) -> (Vec<u8>, LabelInterner) {
    let labels = interner_for(trees);
    let catalog = Catalog::freeze(
        trees.to_vec(),
        labels.clone(),
        tau,
        &PartSjConfig::default(),
        &ShardConfig::with_shards(shards),
    );
    (catalog.to_bytes(), labels)
}

/// A probe batch with real matches against [`freeze_demo`]'s catalog:
/// a slice of fresh trees plus lightly edited revisions of catalog
/// entries.
pub fn probe_batch(
    catalog_trees: &[Tree],
    fresh: usize,
    edited: usize,
    seed: u64,
) -> (Vec<Tree>, LabelInterner) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut probes = tsj_datagen::swissprot_like(fresh, seed.wrapping_add(1));
    for original in catalog_trees.iter().step_by(7).take(edited) {
        let (revision, _) = tsj_datagen::random_edit_script(original, 1, &mut rng, 84);
        probes.push(revision);
    }
    let mut all = probes.clone();
    all.extend_from_slice(catalog_trees);
    // Intern over probes AND catalog so edited labels resolve too.
    let labels = interner_for(&all);
    (probes, labels)
}

/// Asserts everything deterministic about two outcomes is identical
/// (durations are wall-clock and excluded by design).
pub fn assert_bit_identical(got: &JoinOutcome, want: &JoinOutcome, context: &str) {
    assert_eq!(got.pairs, want.pairs, "{context}: pairs");
    assert_eq!(got.stats.work(), want.stats.work(), "{context}");
}

/// What a [`Chopper`] does to its node once the armed number of
/// `JoinShardResp` frames has gone through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Then {
    /// Sever every connection and refuse later dials: the node died.
    Sever,
    /// Forward nothing further but keep the connections open: the node
    /// hangs, and the client's read times out.
    Stall,
    /// Replace the next `JoinShardResp` with `Error { Internal }` and
    /// carry on: one request fails, the stream stays in sync.
    FailOne,
}

/// A loopback relay in front of one node that can make it fail in the
/// middle of a burst, deterministically: once armed with
/// [`Chopper::arm`], it forwards exactly that many further
/// `JoinShardResp` frames and then does what it was armed to — what a
/// client sees of a node killed, hung or erring part-way through
/// answering. Until then (and if never armed) it is transparent: bytes
/// up, frames down, re-encoded by the same codec and so byte-identical.
pub struct Chopper {
    shared: Arc<Relay>,
    accept: Option<std::thread::JoinHandle<()>>,
}

struct Relay {
    addr: SocketAddr,
    /// `(JoinShardResp frames still to forward, what happens then)`.
    armed: Mutex<(usize, Then)>,
    /// Every relayed socket, client and node side; `None` once severed.
    open: Mutex<Option<Vec<TcpStream>>>,
}

impl Relay {
    /// The node "dies": every connection is cut and no dial succeeds.
    fn sever(&self) {
        let Some(open) = self.open.lock().expect("relay lock").take() else {
            return;
        };
        for stream in open {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr); // wake `accept`
    }
}

impl Chopper {
    /// Starts relaying to the node at `upstream`.
    pub fn in_front_of(upstream: SocketAddr) -> Chopper {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
        let shared = Arc::new(Relay {
            addr: listener.local_addr().expect("relay address"),
            armed: Mutex::new((usize::MAX, Then::Sever)),
            open: Mutex::new(Some(Vec::new())),
        });
        let relay = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            let mut workers = Vec::new();
            for client in listener.incoming() {
                let (Ok(client), Ok(node)) = (client, TcpStream::connect(upstream)) else {
                    continue;
                };
                match relay.open.lock().expect("relay lock").as_mut() {
                    // Severed: dropping the listener refuses later dials.
                    None => break,
                    Some(open) => {
                        open.push(client.try_clone().expect("clone client half"));
                        open.push(node.try_clone().expect("clone node half"));
                    }
                }
                let relay = Arc::clone(&relay);
                workers.push(std::thread::spawn(move || relay_conn(client, node, &relay)));
            }
            for worker in workers {
                worker.join().expect("relay thread");
            }
        });
        Chopper {
            shared,
            accept: Some(accept),
        }
    }

    /// The address clients dial instead of the node's.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Arms the relay: `replies` more `JoinShardResp` frames get
    /// through, `then` happens to the one after them.
    pub fn arm(&self, replies: usize, then: Then) {
        *self.shared.armed.lock().expect("relay lock") = (replies, then);
    }
}

impl Drop for Chopper {
    fn drop(&mut self) {
        self.shared.sever();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// One relayed connection: requests are copied up as bytes on a helper
/// thread, replies come down frame by frame so they can be counted.
fn relay_conn(mut client: TcpStream, mut node: TcpStream, relay: &Relay) {
    let (mut client_up, mut node_up) = (
        client.try_clone().expect("clone client half"),
        node.try_clone().expect("clone node half"),
    );
    let up = std::thread::spawn(move || {
        let _ = std::io::copy(&mut client_up, &mut node_up);
        let _ = node_up.shutdown(Shutdown::Both);
    });
    while let Ok(mut frame) = Frame::read_from(&mut node) {
        if matches!(frame, Frame::JoinShardResp { .. }) {
            let mut armed = relay.armed.lock().expect("relay lock");
            match *armed {
                (0, Then::Sever) => {
                    relay.sever();
                    break;
                }
                (0, Then::Stall) => continue,
                (0, Then::FailOne) => {
                    *armed = (usize::MAX, Then::Sever);
                    frame = Frame::Error {
                        code: ErrorCode::Internal,
                        message: "injected by the relay".into(),
                    };
                }
                (ref mut left, _) => *left = left.saturating_sub(1),
            }
        }
        if client.write_all(&frame.encode()).is_err() {
            break;
        }
    }
    let _ = client.shutdown(Shutdown::Both);
    up.join().expect("upstream copy thread");
}
