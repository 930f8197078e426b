//! What one signed round costs beyond its protocol: heap allocations and
//! bytes, frames on the wire, standalone acks and retransmit timers.
//!
//! Two-party and four-party `OrderObject` groups on `SimNet` (1 ms links)
//! run one-update rounds after a warm-up, the customer proposing each. A
//! round is measured from the submit until every party has installed it
//! and every frame of it is acked. Acks ride on the replies, so a round is
//! its 3(n−1) protocol frames plus one standalone ack per recipient (for
//! m3); each peer holds at most one retransmit timer.
//!
//! This file is its own test binary on purpose: the allocator counts every
//! allocation in the process, so no other test may run beside it.

use b2b_apps::{OrderObject, OrderRoles, OrderUpdate};
use b2b_core::{Coordinator, CoordinatorConfig, ObjectId};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs};
use b2b_evidence::MemStore;
use b2b_net::intruder::{FnIntruder, InterceptAction};
use b2b_net::reliable::is_data_frame;
use b2b_net::SimNet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Frames on the wire, and the bare acks among them.
static FRAMES: AtomicU64 = AtomicU64::new(0);
static BARE_ACKS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counters are statistics
// on the side and never affect what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const ROLES: [&str; 4] = ["customer", "supplier", "approver", "dispatcher"];
const WARM_UP: u32 = 8;
const ROUNDS: u32 = 64;

/// What a round may cost, per group size. Frames and bare acks are exact.
/// Allocations and bytes are within 10 % of the figures measured on
/// x86-64 Linux in a debug build — 123 and 42 945 for two parties, 311
/// and 122 483 for four since a re-reply is the party's own evidence
/// record and no reply document is written (133 / 50 812 and 333 /
/// 147 034 while each reply was encoded once, straight into its
/// checkpoint document; 139 / 53 249 and 343 / 153 432 before that, see
/// `DESIGN.md` §15; 127 / 53 160 and 319 /
/// 153 141 before a bulk update cost its delta; 321 / 67 942 and 839 /
/// 196 409 before acks rode on data frames and names, signatures and
/// evidence stopped being copied, see `DESIGN.md` §16).
struct Budget {
    parties: usize,
    allocations: u64,
    bytes: u64,
    frames: u64,
    bare_acks: u64,
}

const BUDGETS: [Budget; 2] = [
    Budget {
        parties: 2,
        allocations: 135,
        bytes: 47_200,
        frames: 4,
        bare_acks: 1,
    },
    Budget {
        parties: 4,
        allocations: 342,
        bytes: 134_700,
        frames: 12,
        bare_acks: 3,
    },
];

fn oid() -> ObjectId {
    ObjectId::new("order")
}

/// An order group of `n` parties (customer, supplier, then approver and
/// dispatcher), every member joined through a sponsored connect.
fn build_group(n: usize) -> (SimNet<Coordinator>, Vec<PartyId>) {
    let keys: Vec<KeyPair> = (0..n)
        .map(|i| KeyPair::generate_from_seed(3000 + i as u64))
        .collect();
    let parties: Vec<PartyId> = ROLES[..n].iter().map(|r| PartyId::new(*r)).collect();
    let mut ring = KeyRing::new();
    for (party, kp) in parties.iter().zip(&keys) {
        ring.register(party.clone(), kp.public_key());
    }
    let ring = Arc::new(ring);
    let roles = if n == 2 {
        OrderRoles::two_party(parties[0].clone(), parties[1].clone())
    } else {
        OrderRoles::four_party(
            parties[0].clone(),
            parties[1].clone(),
            parties[2].clone(),
            parties[3].clone(),
        )
    };
    let factory =
        move || -> Box<dyn b2b_core::B2BObject> { Box::new(OrderObject::new(roles.clone())) };
    let mut net = SimNet::new(n as u64);
    net.set_intruder(FnIntruder::new(
        |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| {
            FRAMES.fetch_add(1, Ordering::Relaxed);
            if !is_data_frame(raw) {
                BARE_ACKS.fetch_add(1, Ordering::Relaxed);
            }
            InterceptAction::Deliver
        },
    ));
    for (i, party) in parties.iter().enumerate() {
        net.add_node(
            Coordinator::builder(party.clone(), keys[i].clone())
                .shared_ring(Arc::clone(&ring))
                .config(CoordinatorConfig::default())
                .store(Arc::new(MemStore::default()))
                .seed(20 + i as u64)
                .build(),
        );
    }
    let f = factory.clone();
    net.invoke(&parties[0], move |c, _| {
        c.register_object(oid(), Box::new(f))
            .expect("register order");
    });
    for j in 1..n {
        let (f, sponsor) = (factory.clone(), parties[j - 1].clone());
        net.invoke(&parties[j], move |c, ctx| {
            c.request_connect(oid(), Box::new(f), sponsor, ctx)
                .expect("request connect");
        });
        net.run_until_quiet(TimeMs(600_000));
        assert!(net.node(&parties[j]).is_member(&oid()));
    }
    (net, parties)
}

/// One round: the customer submits one update; the net steps until every
/// party has installed it and nothing any party sent is unacked.
fn round(net: &mut SimNet<Coordinator>, parties: &[PartyId], order: &ObjectId, k: u32) {
    let seq = net.node(&parties[0]).agreed_id(order).expect("agreed").seq;
    let update = OrderUpdate::SetQuantity {
        item: "widget".into(),
        qty: k % 50 + 1,
    }
    .to_bytes();
    let o = order.clone();
    net.invoke(&parties[0], move |c, ctx| {
        c.submit_updates(&o, vec![update], ctx).expect("submit");
    });
    let done = |net: &SimNet<Coordinator>| {
        parties.iter().all(|p| {
            let node = net.node(p);
            node.agreed_id(order).is_some_and(|id| id.seq > seq) && node.reliable().all_acked()
        })
    };
    while !done(net) {
        assert!(net.step(), "the round ran dry");
    }
}

#[test]
fn a_round_costs_its_protocol_frames_and_budgeted_allocations() {
    for budget in &BUDGETS {
        let n = budget.parties;
        let (mut net, parties) = build_group(n);
        let order = oid();
        for k in 0..WARM_UP {
            round(&mut net, &parties, &order, k);
        }
        let (allocations, bytes) = (
            ALLOCATIONS.load(Ordering::Relaxed),
            ALLOCATED_BYTES.load(Ordering::Relaxed),
        );
        let mut max_timers = 0;
        for k in 0..ROUNDS {
            let (frames, bare_acks) = (
                FRAMES.load(Ordering::Relaxed),
                BARE_ACKS.load(Ordering::Relaxed),
            );
            round(&mut net, &parties, &order, WARM_UP + k);
            let frames = FRAMES.load(Ordering::Relaxed) - frames;
            let bare_acks = BARE_ACKS.load(Ordering::Relaxed) - bare_acks;
            assert_eq!(frames, budget.frames, "{n} parties: frames in round {k}");
            assert_eq!(
                bare_acks, budget.bare_acks,
                "{n} parties: bare acks in round {k}"
            );
            for p in &parties {
                max_timers = max_timers.max(net.node(p).reliable().max_timers_per_peer());
            }
        }
        let per_round = |total: u64| total / u64::from(ROUNDS);
        let allocations = per_round(ALLOCATIONS.load(Ordering::Relaxed) - allocations);
        let bytes = per_round(ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes);
        eprintln!("{n} parties: {allocations} allocations, {bytes} bytes per round");
        assert!(
            max_timers <= 1,
            "{n} parties: {max_timers} timers for one peer"
        );
        assert!(
            allocations <= budget.allocations,
            "{n} parties: {allocations} allocations per round exceed {}",
            budget.allocations
        );
        assert!(
            bytes <= budget.bytes,
            "{n} parties: {bytes} bytes per round exceed {}",
            budget.bytes
        );
    }
}
