//! Waking the right thread, and only when it is needed, on the sharded
//! runtime — in process and over loopback TCP.
//!
//! * A slot notifies its condition variable only when a thread waits on
//!   it. Many threads block in `wait_until` on predicates that become true
//!   at different deliveries and timer fires; every one must wake soon
//!   after its event, never sleep on to the end of its (long) timeout.
//! * `invoke` wakes the owning worker only when it armed a timer and
//!   offered nothing to the worker's own inbox. A timer armed by a call
//!   with no send, or with a send that leaves over TCP, must still fire on
//!   time rather than at the idle worker's next poll.

use b2b_crypto::{PartyId, TimeMs};
use b2b_net::{
    GroupHandle, GroupId, NetNode, NodeCtx, ShardedNet, ShardedTcpConfig, ShardedTcpNet,
};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const GROUPS: u64 = 4;
const EVENTS: u32 = 8;
/// Far longer than any wake-up may take: a waiter that reaches it slept
/// through the notify meant for it.
const WAIT: Duration = Duration::from_secs(30);
const WAKE_BOUND: Duration = Duration::from_secs(5);
/// The timer armed from `invoke`.
const TIMER: TimeMs = TimeMs(5);
/// Well under the idle worker's 100 ms poll, well over the 4 ms wheel tick.
const FIRE_BOUND: Duration = Duration::from_millis(70);

/// Counts what reaches it: frames and timer fires.
struct Counter {
    id: PartyId,
    received: u32,
    fired: u32,
}

impl NetNode for Counter {
    fn id(&self) -> PartyId {
        self.id.clone()
    }
    fn on_message(&mut self, _from: &PartyId, _payload: &[u8], _ctx: &mut NodeCtx) {
        self.received += 1;
    }
    fn on_timer(&mut self, _timer: u64, _ctx: &mut NodeCtx) {
        self.fired += 1;
    }
}

fn party(id: &str) -> PartyId {
    PartyId::new(id)
}

/// A payload in a frame header naming the context's group: a socket
/// carrying many groups demultiplexes on it.
fn framed(ctx: &NodeCtx, body: &[u8]) -> Vec<u8> {
    b2b_net::reliable::data_frame(ctx.group(), 0, 0, body)
}

fn groups(n: u64) -> Vec<(GroupId, Vec<Counter>)> {
    (0..n)
        .map(|g| {
            let node = |id: &str| Counter {
                id: party(id),
                received: 0,
                fired: 0,
            };
            (GroupId(g), vec![node("a"), node("b")])
        })
        .collect()
}

/// In every group, `EVENTS` waiters on `b` wait for the k-th frame from
/// `a`, and `EVENTS` waiters on `a` for the k-th fire of a timer `a` arms;
/// `a` then sends and arms one at a time.
fn every_waiter_wakes(handle: impl Fn(GroupId, &str) -> GroupHandle<Counter>) {
    let waiters = (GROUPS * u64::from(EVENTS) * 2) as usize;
    let barrier = Arc::new(Barrier::new(waiters + 1));
    let mut threads = Vec::with_capacity(waiters);
    for g in 0..GROUPS {
        for k in 1..=EVENTS {
            for on_timer in [false, true] {
                let h = handle(GroupId(g), if on_timer { "a" } else { "b" });
                let barrier = Arc::clone(&barrier);
                threads.push(std::thread::spawn(move || {
                    barrier.wait();
                    let woke =
                        h.wait_until(WAIT, |n| (if on_timer { n.fired } else { n.received }) >= k);
                    (woke, Instant::now())
                }));
            }
        }
    }
    barrier.wait();
    std::thread::sleep(Duration::from_millis(20));
    for k in 1..=EVENTS {
        for g in 0..GROUPS {
            handle(GroupId(g), "a").invoke(|_n, ctx| {
                ctx.send(party("b"), framed(ctx, &[k as u8]));
                ctx.set_timer(u64::from(k), TimeMs(1));
            });
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let last_event = Instant::now();
    for t in threads {
        let (woke, at) = t.join().expect("waiter thread");
        assert!(woke, "a waiter's predicate never held");
        let late = at.saturating_duration_since(last_event);
        assert!(
            late < WAKE_BOUND,
            "a waiter woke {late:?} after the last event"
        );
    }
}

/// Arms `TIMER` from `by`'s `invoke` (sending to `b` alongside when
/// `send`) right after `by`'s worker went idle on a frame from `kick`,
/// and requires the fire within [`FIRE_BOUND`].
fn timer_fires_on_time(by: &GroupHandle<Counter>, kick: &GroupHandle<Counter>, send: bool) {
    for round in 1..=3u32 {
        // A frame for `by` makes its worker run, then restart its idle poll.
        kick.invoke(|_n, ctx| ctx.send(party("a"), framed(ctx, b"kick")));
        assert!(by.wait_until(WAIT, |n| n.received == round));
        std::thread::sleep(Duration::from_millis(10));
        let armed = Instant::now();
        by.invoke(|_n, ctx| {
            if send {
                ctx.send(party("b"), framed(ctx, b"over"));
            }
            ctx.set_timer(u64::from(round), TIMER);
        });
        assert!(by.wait_until(WAIT, |n| n.fired == round));
        let took = armed.elapsed();
        assert!(
            took < FIRE_BOUND,
            "round {round}: a {TIMER:?} timer fired after {took:?}"
        );
    }
}

#[test]
fn in_process_waiters_all_wake() {
    let mut builder = ShardedNet::builder().shards(2);
    for (gid, nodes) in groups(GROUPS) {
        builder = builder.add_group(gid, nodes);
    }
    let net = builder.spawn().expect("spawn worker pool");
    every_waiter_wakes(|g, p| net.handle(g, &party(p)));
    net.shutdown();
}

#[test]
fn tcp_waiters_all_wake() {
    let config = ShardedTcpConfig::new().shards(2);
    let net = ShardedTcpNet::spawn_loopback_with(groups(GROUPS), config).expect("spawn endpoints");
    every_waiter_wakes(|g, p| net.handle(g, &party(p)));
    net.shutdown();
}

#[test]
fn timer_armed_by_a_call_with_no_send_fires_on_time() {
    let (gid, nodes) = groups(1).pop().expect("one group");
    let net = ShardedNet::builder()
        .shards(1)
        .add_group(gid, nodes)
        .spawn()
        .expect("spawn worker pool");
    let (a, b) = (
        net.handle(GroupId(0), &party("a")),
        net.handle(GroupId(0), &party("b")),
    );
    timer_fires_on_time(&a, &b, false);
    net.shutdown();
}

#[test]
fn timer_armed_beside_a_send_over_tcp_fires_on_time() {
    let config = ShardedTcpConfig::new().shards(1);
    let net = ShardedTcpNet::spawn_loopback_with(groups(1), config).expect("spawn endpoints");
    let (a, b) = (
        net.handle(GroupId(0), &party("a")),
        net.handle(GroupId(0), &party("b")),
    );
    timer_fires_on_time(&a, &b, true);
    net.shutdown();
}
