//! Resident heap bytes per coordination group stay under a fixed budget.
//!
//! A process that hosts thousands of groups pays, per group, for every
//! engine's replica, verification cache and evidence log. This builds 64
//! four-party `OrderObject` groups in the shape of the order service's
//! set-up — the customer registers the order, the other three roles join
//! through sponsored connects, and the customer's one 8-update bulk is
//! agreed in a batched round — and counts the live heap bytes they hold
//! with a counting global allocator. `SimNet` is single-threaded, so the
//! count is deterministic.
//!
//! This file is its own test binary on purpose: the allocator counts every
//! allocation in the process, so no other test may run beside it.

use b2b_apps::{Order, OrderObject, OrderRoles, OrderUpdate};
use b2b_core::{Coordinator, CoordinatorConfig, ObjectId};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs};
use b2b_evidence::MemStore;
use b2b_net::SimNet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Live heap bytes: allocated minus freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is a statistic
// on the side and never affects what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const GROUPS: usize = 64;
const ROLES: [&str; 4] = ["customer", "supplier", "approver", "dispatcher"];
/// Items in the customer's seed bulk: one batched round.
const CATALOGUE: usize = 8;
/// Live heap bytes one group may hold: within 10 % of the 70 985 bytes
/// measured on x86-64 Linux (77 064 before a re-reply was read back from
/// the evidence log instead of a reply document; 96 626 before each reply
/// was held once, cold engine state moved out of line and emptied tables
/// gave back their capacity; 153 630 before replica entries were boxed,
/// the verification cache made a fixed-size table and evidence kept as
/// frames; see `DESIGN.md` §15), so a regression in what a resident
/// engine keeps fails here before it reaches a fleet.
const BUDGET_PER_GROUP: usize = 78_000;

/// One group's simulated network: four engines, each with its own
/// in-memory store, the order object agreed among all four, and the seed
/// bulk installed.
fn build_group(g: usize, ring: &Arc<KeyRing>, keys: &[KeyPair]) -> SimNet<Coordinator> {
    let parties: Vec<PartyId> = ROLES.iter().map(|r| PartyId::new(*r)).collect();
    let roles = OrderRoles::four_party(
        parties[0].clone(),
        parties[1].clone(),
        parties[2].clone(),
        parties[3].clone(),
    );
    let factory =
        move || -> Box<dyn b2b_core::B2BObject> { Box::new(OrderObject::new(roles.clone())) };
    let oid = ObjectId::new("order");
    let mut net = SimNet::new(g as u64);
    for (i, party) in parties.iter().enumerate() {
        net.add_node(
            Coordinator::builder(party.clone(), keys[i].clone())
                .shared_ring(Arc::clone(ring))
                .config(CoordinatorConfig::default())
                .store(Arc::new(MemStore::default()))
                .seed(10 + (g * ROLES.len() + i) as u64)
                .build(),
        );
    }
    let (o, f) = (oid.clone(), factory.clone());
    net.invoke(&parties[0], move |c, _| {
        c.register_object(o, Box::new(f)).expect("register order");
    });
    for j in 1..parties.len() {
        let (o, f, sponsor) = (oid.clone(), factory.clone(), parties[j - 1].clone());
        net.invoke(&parties[j], move |c, ctx| {
            c.request_connect(o, Box::new(f), sponsor, ctx)
                .expect("request connect");
        });
        net.run_until_quiet(TimeMs(600_000));
        assert!(
            net.node(&parties[j]).is_member(&oid),
            "{} joins",
            parties[j]
        );
    }
    let updates = (0..CATALOGUE)
        .map(|k| {
            let qty = (g + k) as u32 % 7 + 1;
            OrderUpdate::SetQuantity {
                item: format!("item-{k}"),
                qty,
            }
            .to_bytes()
        })
        .collect();
    let o = oid.clone();
    net.invoke(&parties[0], move |c, ctx| {
        c.submit_updates(&o, updates, ctx)
            .expect("submit seed bulk");
    });
    net.run_until_quiet(TimeMs(600_000));
    for party in &parties {
        let state = net.node(party).agreed_state(&oid).expect("agreed state");
        let order = Order::from_bytes(&state).expect("an order");
        assert_eq!(order.lines.len(), CATALOGUE, "{party} installed the bulk");
    }
    net
}

#[test]
fn resident_bytes_per_group_stay_under_budget() {
    let keys: Vec<KeyPair> = (0..ROLES.len())
        .map(|i| KeyPair::generate_from_seed(2000 + i as u64))
        .collect();
    let mut ring = KeyRing::new();
    for (role, kp) in ROLES.iter().zip(&keys) {
        ring.register(PartyId::new(*role), kp.public_key());
    }
    let ring = Arc::new(ring);

    let before = LIVE.load(Ordering::Relaxed);
    let groups: Vec<SimNet<Coordinator>> =
        (0..GROUPS).map(|g| build_group(g, &ring, &keys)).collect();
    let live = LIVE.load(Ordering::Relaxed) - before;
    let per_group = live as usize / GROUPS;
    eprintln!("resident heap: {per_group} bytes per four-party group ({live} for {GROUPS})");
    assert!(
        per_group <= BUDGET_PER_GROUP,
        "{per_group} resident bytes per group exceed the budget of {BUDGET_PER_GROUP}"
    );
    drop(groups);
}
