//! Resident heap bytes per served order stay under a fixed budget.
//!
//! The order service hosts one four-party coordination group per order in
//! one process, so what a quiet group keeps resident bounds how many
//! orders a process can serve. This starts an `OrderServer` in the served
//! shape — four-party orders, each created over HTTP and seeded with one
//! 8-line deferred bulk whose tickets are long-polled to `installed` — lets
//! every group go quiet (all frames acked, retransmit timers run out) and
//! counts the live heap bytes with a counting global allocator.
//!
//! A second server with one order measures what does not scale with the
//! orders: the shard inboxes (two fixed buffers of about 1.18 MB), the
//! HTTP workers and the telemetry registry. The figure per order is the
//! difference between the two servers, divided by the extra orders.
//!
//! This file is its own test binary on purpose: the allocator counts every
//! allocation in the process, so no other test may run beside it.

use b2b_core::{CoordinatorConfig, ObjectId};
use b2b_net::HttpClient;
use b2b_server::{OrderServer, OrderServerOptions};
use b2b_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

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

const ORDERS: usize = 256;
const PARTIES: usize = 4;
/// Lines in each order's seed bulk: one batched round.
const CATALOGUE: usize = 8;
/// Orders whose seed bulks one long-poll waits for.
const CHUNK: usize = 8;
/// Live heap bytes one served order may hold: within 5 % of the 58 474
/// bytes measured on x86-64 Linux (64 553 before a re-reply was read back
/// from the evidence log instead of a reply document; 83 923 before each
/// reply was held once, cold engine state moved out of line and emptied
/// tables gave back their capacity; see `DESIGN.md` §15), so a regression
/// in what a quiet served group keeps fails here before it reaches a
/// fleet.
const BUDGET_PER_ORDER: usize = 61_300;

/// Starts a four-party server with `orders` orders, creates and seeds them
/// all over HTTP, and waits until every engine is quiet.
fn serve(orders: usize) -> OrderServer {
    let server = OrderServer::start(OrderServerOptions {
        orders,
        parties: PARTIES,
        shards: Some(2),
        http_workers: 4,
        config: CoordinatorConfig::default(),
        telemetry: Telemetry::new(),
        sync_timeout: Duration::from_secs(30),
        ..OrderServerOptions::default()
    })
    .expect("server boots");
    let mut http = HttpClient::connect(server.addr()).expect("connect");
    for _ in 0..orders {
        let (status, body) = http.post("/orders", "").expect("create");
        assert_eq!(status, 201, "{body}");
    }
    let all: Vec<usize> = (0..orders).collect();
    for chunk in all.chunks(CHUNK) {
        let mut tickets = Vec::new();
        for &o in chunk {
            let ops: Vec<String> = (0..CATALOGUE)
                .map(|k| {
                    let qty = 1 + (o * 7 + k * 13) % 50;
                    format!("{{\"op\":\"line\",\"item\":\"item{k}\",\"qty\":{qty}}}")
                })
                .collect();
            let body = format!("{{\"ops\":[{}]}}", ops.join(","));
            let (status, reply) = http
                .post(&format!("/orders/{o}/bulk?mode=deferred"), &body)
                .expect("seed bulk");
            assert_eq!(status, 202, "{reply}");
            let list = reply
                .split("\"tickets\":[")
                .nth(1)
                .and_then(|rest| rest.split(']').next())
                .expect("ticket list");
            tickets.extend(list.split(',').map(str::to_owned));
        }
        let (status, reply) = http
            .get(&format!("/tickets?ids={}&wait_ms=30000", tickets.join(",")))
            .expect("poll");
        let installed = reply.matches("\"status\":\"installed\"").count();
        assert!(
            status == 200 && installed == chunk.len() * CATALOGUE,
            "seeding orders {chunk:?}: {status} {reply}"
        );
    }
    drop(http);
    // Quiet: no run active, nothing queued, every frame acked, and the
    // retransmit timers that outlive the last ack (200 ms after the last
    // send) run out.
    let oid = ObjectId::new("order");
    let deadline = Instant::now() + Duration::from_secs(60);
    for g in 0..orders {
        for p in 0..PARTIES {
            let handle = server.handle(g, p);
            while !handle.read(|c| {
                !c.is_busy(&oid)
                    && c.pending_update_count(&oid) == 0
                    && c.reliable().all_acked()
                    && c.reliable().max_timers_per_peer() == 0
            }) {
                assert!(
                    Instant::now() < deadline,
                    "order {g} party {p} never went quiet"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    server
}

#[test]
fn resident_bytes_per_served_order_stay_under_budget() {
    let before = LIVE.load(Ordering::Relaxed);
    let one = serve(1);
    let fixed = LIVE.load(Ordering::Relaxed) - before;
    one.shutdown();

    let before = LIVE.load(Ordering::Relaxed);
    let many = serve(ORDERS + 1);
    let live = LIVE.load(Ordering::Relaxed) - before;
    let per_order = (live - fixed) as usize / ORDERS;
    eprintln!(
        "served resident heap: {per_order} bytes per four-party order \
         ({live} for {} orders, {fixed} for one)",
        ORDERS + 1
    );
    many.shutdown();
    assert!(
        per_order <= BUDGET_PER_ORDER,
        "{per_order} resident bytes per served order exceed the budget of {BUDGET_PER_ORDER}"
    );
}
