//! The sampled shard queue depth stays a queue length under load.
//!
//! Every shard counts the events in its inbox for the `shard_queue_depth`
//! histogram: a sender adds one per event, the worker subtracts one per
//! event it takes. If the sender counted *after* its send landed, a worker
//! could take the event (and subtract) first, and the sample wrapped to
//! `usize::MAX`. Here many groups rally frames across two worker pools —
//! in process, and between two endpoints over loopback TCP, where the
//! socket reactor is the sender — and no sample may exceed what an inbox
//! can hold.

use b2b_crypto::PartyId;
use b2b_net::reliable::{data_body, data_frame};
use b2b_net::{GroupId, NetNode, NodeCtx, ShardedNet, ShardedTcpConfig, ShardedTcpNet};
use b2b_telemetry::{names, Telemetry};
use std::time::Duration;

const GROUPS: u64 = 64;
const BALLS: u8 = 4;
const BOUNCES: u32 = 1000;
const INBOX: usize = 1024;

/// Returns every ball to its sender until the ball's count runs out; `a`
/// serves `BALLS` balls when it starts.
struct Rally {
    id: PartyId,
    peer: PartyId,
    landed: u32,
}

/// A ball in a frame header naming the group: the receiving socket
/// demultiplexes on it.
fn ball(ctx: &NodeCtx, count: u32) -> Vec<u8> {
    data_frame(ctx.group(), 0, 0, &count.to_le_bytes())
}

impl NetNode for Rally {
    fn id(&self) -> PartyId {
        self.id.clone()
    }
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        if self.id == PartyId::new("a") {
            for _ in 0..BALLS {
                ctx.send(self.peer.clone(), ball(ctx, BOUNCES));
            }
        }
    }
    fn on_message(&mut self, from: &PartyId, payload: &[u8], ctx: &mut NodeCtx) {
        let body = data_body(payload).expect("a framed ball");
        let count = u32::from_le_bytes(body.try_into().expect("a ball"));
        if count == 0 {
            self.landed += 1;
        } else {
            ctx.send(from.clone(), ball(ctx, count - 1));
        }
    }
}

fn groups() -> Vec<(GroupId, Vec<Rally>)> {
    (0..GROUPS)
        .map(|g| {
            let party = |id: &str, peer: &str| Rally {
                id: PartyId::new(id),
                peer: PartyId::new(peer),
                landed: 0,
            };
            (GroupId(g), vec![party("a", "b"), party("b", "a")])
        })
        .collect()
}

/// `a` serves each ball to `b` with an even count, so the ball lands at `b`:
/// every group is done when `b` has seen all its balls land.
fn all_landed(landed: impl Fn(GroupId) -> u32) -> bool {
    (0..GROUPS).all(|g| landed(GroupId(g)) == u32::from(BALLS))
}

fn assert_depths_bounded(telemetry: &Telemetry) {
    let snap = telemetry.metrics().snapshot();
    let depth = snap
        .histogram(names::SHARD_QUEUE_DEPTH)
        .expect("the workers sampled their queue depth");
    assert!(depth.count > 0);
    assert!(
        depth.max <= INBOX as u64,
        "a shard_queue_depth sample of {} exceeds the inbox capacity {INBOX}",
        depth.max
    );
}

#[test]
fn in_process_queue_depth_never_exceeds_the_inbox() {
    let telemetry = Telemetry::new();
    let mut builder = ShardedNet::builder()
        .shards(2)
        .inbox_capacity(INBOX)
        .telemetry(telemetry.clone());
    for (gid, nodes) in groups() {
        builder = builder.add_group(gid, nodes);
    }
    let net = builder.spawn().expect("spawn worker pool");
    let b = PartyId::new("b");
    assert!(
        b2b_net::poll::wait_for(Duration::from_secs(60), || all_landed(|g| net
            .handle(g, &b)
            .read(|n| n.landed))),
        "every rally finishes"
    );
    net.shutdown();
    assert_depths_bounded(&telemetry);
}

#[test]
fn tcp_queue_depth_never_exceeds_the_inbox() {
    let telemetry = Telemetry::new();
    let config = ShardedTcpConfig::new()
        .shards(2)
        .inbox_capacity(INBOX)
        .telemetry(telemetry.clone());
    let net = ShardedTcpNet::spawn_loopback_with(groups(), config).expect("spawn endpoints");
    let b = PartyId::new("b");
    assert!(
        b2b_net::poll::wait_for(Duration::from_secs(60), || all_landed(|g| net
            .handle(g, &b)
            .read(|n| n.landed))),
        "every rally finishes"
    );
    net.shutdown();
    assert_depths_bounded(&telemetry);
}
