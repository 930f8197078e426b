//! Public tickets over HTTP: an id never issued — 0, `u64::MAX`, one past
//! the last one handed out — answers `unknown` on both ticket endpoints,
//! and tickets handed out to clients of several orders at once each
//! resolve to their own order's outcome.

use b2b_core::CoordinatorConfig;
use b2b_net::HttpClient;
use b2b_server::{OrderServer, OrderServerOptions};
use b2b_telemetry::Telemetry;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const ORDERS: u64 = 4;

fn boot() -> OrderServer {
    OrderServer::start(OrderServerOptions {
        orders: ORDERS as usize,
        parties: 2,
        shards: Some(2),
        http_workers: 4,
        config: CoordinatorConfig::default(),
        telemetry: Telemetry::new(),
        sync_timeout: Duration::from_secs(30),
        ..OrderServerOptions::default()
    })
    .expect("server boots")
}

/// The ids of a `{"tickets":[…]}` answer.
fn ticket_list(body: &str) -> Vec<u64> {
    body.strip_prefix("{\"tickets\":[")
        .and_then(|rest| rest.strip_suffix("]}"))
        .expect("ticket list")
        .split(',')
        .map(|t| t.parse().expect("ticket id"))
        .collect()
}

fn assert_unknown(client: &mut HttpClient, id: u64) {
    let (status, body) = client.get(&format!("/tickets/{id}")).expect("poll");
    assert_eq!((status, body.as_str()), (404, "{\"status\":\"unknown\"}"));
    let (status, body) = client.get(&format!("/tickets?ids={id}")).expect("window");
    assert_eq!(
        (status, body),
        (
            200,
            format!("{{\"tickets\":[{{\"ticket\":{id},\"status\":\"unknown\"}}]}}")
        )
    );
}

#[test]
fn ids_never_issued_answer_unknown() {
    let server = boot();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    assert_unknown(&mut client, 0);
    assert_unknown(&mut client, u64::MAX);
    assert_unknown(&mut client, 1);
    let (status, body) = client.post("/orders", "").expect("create");
    assert_eq!(status, 201, "{body}");
    let (status, body) = client
        .post(
            "/orders/0/bulk?mode=deferred",
            "{\"ops\":[{\"op\":\"line\",\"item\":\"a\",\"qty\":1},{\"op\":\"line\",\"item\":\"b\",\"qty\":2}]}",
        )
        .expect("bulk");
    assert_eq!(status, 202, "{body}");
    assert_eq!(ticket_list(&body), [1, 2]);
    assert_unknown(&mut client, 0);
    assert_unknown(&mut client, 3);
    assert_unknown(&mut client, u64::MAX);
    let (status, body) = client.get("/tickets/2?wait_ms=20000").expect("poll");
    assert_eq!(
        (status, body.as_str()),
        (200, "{\"status\":\"installed\",\"seq\":1}")
    );
    server.shutdown();
}

#[test]
fn tickets_handed_out_at_once_resolve_to_their_own_orders() {
    let server = boot();
    let addr = server.addr();
    let mut client = HttpClient::connect(addr).expect("connect");
    for _ in 0..ORDERS {
        let (status, body) = client.post("/orders", "").expect("create");
        assert_eq!(status, 201, "{body}");
    }
    // Order `k` first installs `k` synchronous lines, so its later
    // rounds carry sequence numbers no other order's do at that point,
    // and its engine's tickets are numbered apart from the others'.
    for k in 0..ORDERS {
        for i in 0..k {
            let (status, body) = client
                .post(
                    &format!("/orders/{k}/lines?mode=sync"),
                    &format!("{{\"item\":\"pre{i}\",\"qty\":1}}"),
                )
                .expect("line");
            assert_eq!(status, 200, "{body}");
        }
    }
    let start = Arc::new(Barrier::new(ORDERS as usize));
    let clients: Vec<_> = (0..ORDERS)
        .map(|k| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                start.wait();
                let mut publics = Vec::new();
                for round in 0..6 {
                    let ops: Vec<String> = (0..3)
                        .map(|i| {
                            format!("{{\"op\":\"line\",\"item\":\"o{k}r{round}i{i}\",\"qty\":1}}")
                        })
                        .collect();
                    let (status, body) = client
                        .post(
                            &format!("/orders/{k}/bulk?mode=deferred"),
                            &format!("{{\"ops\":[{}]}}", ops.join(",")),
                        )
                        .expect("bulk");
                    assert_eq!(status, 202, "{body}");
                    publics.extend(ticket_list(&body));
                }
                publics
            })
        })
        .collect();
    let publics: Vec<Vec<u64>> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    let mut all: Vec<u64> = publics.iter().flatten().copied().collect();
    all.sort_unstable();
    assert!(all.iter().copied().eq(1..=all.len() as u64));
    for (k, ids) in publics.iter().enumerate() {
        let query: Vec<String> = ids.iter().map(u64::to_string).collect();
        let (status, body) = client
            .get(&format!("/tickets?ids={}&wait_ms=20000", query.join(",")))
            .expect("window");
        assert_eq!(status, 200, "{body}");
        // Every ticket of order `k` installed there, after its `k`
        // synchronous lines and within its own 18 deltas.
        let mut seqs = Vec::new();
        for entry in body.split("{\"ticket\":").skip(1) {
            let seq = entry
                .split_once("\"status\":\"installed\",\"seq\":")
                .map(|(_, rest)| rest.trim_end_matches(&['}', ']', ','][..]))
                .unwrap_or_else(|| panic!("order {k}: not installed: {body}"));
            seqs.push(seq.parse::<u64>().expect("seq"));
        }
        assert_eq!(seqs.len(), ids.len());
        assert!(seqs.windows(2).all(|w| w[0] <= w[1]), "{body}");
        let (first, last) = (seqs[0], *seqs.last().unwrap());
        assert!(
            first > k as u64 && last <= k as u64 + 18,
            "order {k}: {body}"
        );
        let (status, body) = client.get(&format!("/orders/{k}")).expect("read");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body.matches(&format!("\"item\":\"o{k}r")).count(),
            18,
            "{body}"
        );
        assert_eq!(body.matches("\"item\":\"o").count(), 18, "{body}");
    }
    let next = all.len() as u64 + 1;
    assert_unknown(&mut client, next);
    server.shutdown();
}
