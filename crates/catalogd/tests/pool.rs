//! Connection-pool behavior against a live loopback server: checkout /
//! checkin reuse, dead-connection eviction, idle caps, and concurrent
//! checkout contention.

mod common;

use std::io::Write;
use tsj_catalogd::wire::Frame;
use tsj_catalogd::{Catalogd, ConnPool, ServerConfig, MAX_IDLE_PER_ADDR};

fn spawn_server() -> tsj_catalogd::RunningServer {
    let (snapshot, _, _) = common::freeze_demo(40, 1, 4, 11);
    Catalogd::bind(snapshot, &ServerConfig::new(0, 1, 1), "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn")
}

#[test]
fn checkout_checkin_reuses_connections() {
    let server = spawn_server();
    let addr = server.addr();
    let pool = ConnPool::new();

    assert_eq!(pool.idle_count(addr), 0);
    let conn = pool.checkout(addr).expect("fresh dial");
    pool.checkin(addr, conn, true);
    assert_eq!(pool.idle_count(addr), 1);

    // The pooled connection comes back out (LIFO) and still works.
    let mut conn = pool.checkout(addr).expect("pooled checkout");
    assert_eq!(pool.idle_count(addr), 0);
    Frame::Health.write_to(&mut conn).expect("ping out");
    match Frame::read_from(&mut conn).expect("ping back") {
        Frame::HealthAck { node, .. } => assert_eq!(node, 0),
        other => panic!("expected HealthAck, got {other:?}"),
    }
    pool.checkin(addr, conn, true);
    assert_eq!(pool.idle_count(addr), 1);
}

#[test]
fn unhealthy_checkin_drops_the_connection() {
    let server = spawn_server();
    let addr = server.addr();
    let pool = ConnPool::new();
    let conn = pool.checkout(addr).expect("dial");
    pool.checkin(addr, conn, false);
    assert_eq!(pool.idle_count(addr), 0, "unhealthy conns never re-enter");
}

#[test]
fn idle_cap_is_enforced() {
    let server = spawn_server();
    let addr = server.addr();
    let pool = ConnPool::new();
    let conns: Vec<_> = (0..MAX_IDLE_PER_ADDR + 2)
        .map(|_| pool.checkout(addr).expect("dial"))
        .collect();
    for conn in conns {
        pool.checkin(addr, conn, true);
    }
    assert_eq!(
        pool.idle_count(addr),
        MAX_IDLE_PER_ADDR,
        "surplus checkins close"
    );
}

#[test]
fn concurrent_checkouts_contend_safely() {
    let server = spawn_server();
    let addr = server.addr();
    let pool = ConnPool::new();
    std::thread::scope(|scope| {
        for _ in 0..2 * MAX_IDLE_PER_ADDR {
            scope.spawn(|| {
                for _ in 0..25 {
                    let mut conn = pool.checkout(addr).expect("checkout under contention");
                    Frame::Health.write_to(&mut conn).expect("ping out");
                    let healthy =
                        matches!(Frame::read_from(&mut conn), Ok(Frame::HealthAck { .. }));
                    pool.checkin(addr, conn, healthy);
                }
            });
        }
    });
    assert!(
        pool.idle_count(addr) <= MAX_IDLE_PER_ADDR,
        "idle cap holds under contention"
    );
    // Everything pooled is still usable.
    let mut conn = pool.checkout(addr).expect("post-contention checkout");
    Frame::Health.write_to(&mut conn).expect("ping out");
    assert!(matches!(
        Frame::read_from(&mut conn).expect("ping back"),
        Frame::HealthAck { .. }
    ));
    let _ = conn.flush();
}
