//! Multi-client integration tests: concurrent conflicting updates on one
//! order exercise the validation-veto race over real HTTP, and the
//! fleet converges with a clean evidence audit.

use b2b_core::CoordinatorConfig;
use b2b_net::HttpClient;
use b2b_server::{OrderServer, OrderServerOptions};
use b2b_telemetry::Telemetry;
use std::time::Duration;

fn boot(orders: usize) -> OrderServer {
    OrderServer::start(OrderServerOptions {
        orders,
        parties: 2,
        shards: Some(2),
        http_workers: 8,
        config: CoordinatorConfig::default(),
        telemetry: Telemetry::new(),
        sync_timeout: Duration::from_secs(30),
        ..OrderServerOptions::default()
    })
    .expect("server boots")
}

/// Pulls the integer value of `"key":<n>` out of a JSON body.
fn int_field(body: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let at = body.find(&tag)? + tag.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[test]
fn scope_roundtrip_over_http() {
    // The README quickstart, as a test: enter → update → leave in
    // synchronous mode installs the line at both organisations.
    let server = boot(2);
    let mut client = HttpClient::connect(server.addr()).expect("connect");

    let (status, body) = client.post("/orders", "").expect("create");
    assert_eq!(status, 201, "{body}");
    let order = int_field(&body, "order").expect("order id");

    let (status, body) = client
        .post(&format!("/orders/{order}/enter?as=customer&mode=sync"), "")
        .expect("enter");
    assert_eq!(status, 200, "{body}");

    let (status, body) = client
        .post(
            &format!("/orders/{order}/update?as=customer"),
            "{\"op\":\"line\",\"item\":\"widget1\",\"qty\":2}",
        )
        .expect("update");
    assert_eq!(status, 200, "{body}");

    let (status, body) = client
        .post(&format!("/orders/{order}/leave?as=customer"), "")
        .expect("leave");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("installed"), "{body}");

    let (status, body) = client.get(&format!("/orders/{order}")).expect("read back");
    assert_eq!(status, 200);
    assert!(body.contains("widget1"), "{body}");

    // The supplier prices it through the one-shot endpoint.
    let (status, body) = client
        .post(
            &format!("/orders/{order}/price"),
            "{\"item\":\"widget1\",\"unit_price\":10}",
        )
        .expect("price");
    assert_eq!(status, 200, "{body}");

    let (clean, records) = server.audit();
    assert!(clean, "evidence audit must be clean");
    assert!(records > 0);
    server.shutdown();
}

#[test]
fn stale_scope_leave_is_vetoed_and_ticket_poll_is_idempotent() {
    // Deterministic veto: a scoped customer session snapshots the empty
    // order, a concurrent direct update installs widget1, then the stale
    // session proposes its own first line — rename from the peers' view,
    // vetoed with the validator's reason. Polling the ticket twice must
    // answer identically (idempotency over HTTP).
    let server = boot(2);
    let mut client = HttpClient::connect(server.addr()).expect("connect");

    let (status, body) = client.post("/orders", "").expect("create");
    assert_eq!(status, 201, "{body}");
    let order = int_field(&body, "order").expect("order id");

    // Open a deferred-mode scope — working copy snapshots the EMPTY order.
    let (status, _) = client
        .post(&format!("/orders/{order}/enter?mode=deferred"), "")
        .expect("enter");
    assert_eq!(status, 200);

    // A concurrent client (same customer org, no scope) installs widget1.
    let (status, body) = client
        .post(
            &format!("/orders/{order}/lines?mode=sync"),
            "{\"item\":\"widget1\",\"qty\":2}",
        )
        .expect("direct line");
    assert_eq!(status, 200, "{body}");

    // The stale session adds a DIFFERENT first line and leaves: its
    // proposal says lines[0] = widget9 where the group agreed widget1.
    let (status, body) = client
        .post(
            &format!("/orders/{order}/update"),
            "{\"op\":\"line\",\"item\":\"widget9\",\"qty\":1}",
        )
        .expect("stale update");
    assert_eq!(status, 200, "{body}");
    let (status, body) = client
        .post(&format!("/orders/{order}/leave"), "")
        .expect("stale leave");
    assert_eq!(status, 202, "deferred leave hands out a ticket: {body}");
    let ticket = int_field(&body, "ticket").expect("ticket id");

    // Poll to terminal.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let first = loop {
        let (status, body) = client
            .get(&format!("/tickets/{ticket}"))
            .expect("poll ticket");
        assert_eq!(status, 200, "{body}");
        if !body.contains("pending") {
            break body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "ticket never reached a terminal status"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(first.contains("invalidated"), "{first}");
    assert!(
        first.contains("items may not be renamed"),
        "veto reason must surface in the poll body: {first}"
    );
    assert!(first.contains("supplier"), "vetoer named: {first}");

    // Idempotency: the SAME body on every subsequent poll.
    for _ in 0..2 {
        let (status, again) = client
            .get(&format!("/tickets/{ticket}"))
            .expect("re-poll ticket");
        assert_eq!(status, 200);
        assert_eq!(again, first, "terminal ticket status must not change");
    }

    // The agreed order still carries widget1 — the stale proposal never
    // installed.
    let (_, body) = client.get(&format!("/orders/{order}")).expect("read");
    assert!(body.contains("widget1"), "{body}");
    assert!(!body.contains("widget9"), "{body}");

    assert!(server.wait_converged(Duration::from_secs(30)));
    let (clean, _) = server.audit();
    assert!(clean, "evidence audit must be clean after a veto");
    server.shutdown();
}

#[test]
fn concurrent_conflicting_updates_converge_with_clean_audit() {
    // The race itself: several client threads hammer ONE order from both
    // roles in mixed modes. Outcomes per request may install or veto —
    // the invariants are: every ticket resolves, no replica diverges,
    // the audit stays clean, and backpressure (429) never loses a
    // request silently.
    let server = boot(2);
    let addr = server.addr();
    let mut client = HttpClient::connect(addr).expect("connect");
    let (status, body) = client.post("/orders", "").expect("create");
    assert_eq!(status, 201);
    let order = int_field(&body, "order").expect("order id");

    // Seed lines the supplier can price.
    for i in 0..4 {
        let (status, body) = client
            .post(
                &format!("/orders/{order}/lines?mode=sync"),
                &format!("{{\"item\":\"seed{i}\",\"qty\":1}}"),
            )
            .expect("seed line");
        assert_eq!(status, 200, "{body}");
    }

    let threads: Vec<_> = (0..6)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                let mut tickets = Vec::new();
                let mut installed = 0u64;
                let mut vetoed = 0u64;
                for i in 0..10 {
                    // Even threads act as the customer adding/amending
                    // lines; odd threads as the supplier pricing seeds.
                    let (path, body) = if t % 2 == 0 {
                        (
                            format!(
                                "/orders/{order}/lines?mode={}",
                                ["sync", "deferred", "async"][i % 3]
                            ),
                            format!("{{\"item\":\"t{t}i{i}\",\"qty\":{}}}", i + 1),
                        )
                    } else {
                        (
                            format!(
                                "/orders/{order}/price?mode={}",
                                ["sync", "deferred", "async"][i % 3]
                            ),
                            format!("{{\"item\":\"seed{}\",\"unit_price\":{}}}", i % 4, 10 + i),
                        )
                    };
                    loop {
                        let (status, body) = client.post(&path, &body).expect("request");
                        match status {
                            200 => {
                                installed += 1;
                                break;
                            }
                            409 => {
                                vetoed += 1;
                                break;
                            }
                            202 => {
                                tickets.push(int_field(&body, "ticket").expect("ticket id in 202"));
                                break;
                            }
                            429 => std::thread::sleep(Duration::from_millis(5)),
                            other => panic!("unexpected status {other}: {body}"),
                        }
                    }
                }
                // Drain every deferred/async ticket to a terminal status.
                let deadline = std::time::Instant::now() + Duration::from_secs(60);
                for ticket in tickets {
                    loop {
                        let (status, body) =
                            client.get(&format!("/tickets/{ticket}")).expect("poll");
                        assert_eq!(status, 200, "{body}");
                        if body.contains("installed") {
                            installed += 1;
                            break;
                        }
                        if body.contains("invalidated") || body.contains("aborted") {
                            vetoed += 1;
                            break;
                        }
                        assert!(
                            std::time::Instant::now() < deadline,
                            "ticket {ticket} never resolved"
                        );
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                (installed, vetoed)
            })
        })
        .collect();

    let mut installed = 0u64;
    let mut vetoed = 0u64;
    for t in threads {
        let (i, v) = t.join().expect("client thread");
        installed += i;
        vetoed += v;
    }
    assert_eq!(installed + vetoed, 60, "every request reached an outcome");
    assert!(installed > 0, "some updates must install under the race");

    // Convergence: replicas agree, queues drained.
    assert!(server.wait_converged(Duration::from_secs(60)));

    // Non-repudiation survives the race: every store audits clean.
    let (clean, records) = server.audit();
    assert!(clean, "evidence audit must be clean after the race");
    assert!(records > 0);
    server.shutdown();
}

#[test]
fn ticket_windows_answer_in_request_order_across_orders() {
    // One `GET /tickets?ids=` spanning two orders' engines (one wait and
    // one read per engine) still answers one entry per id in request
    // order, unknown ids included; a synchronous bulk answers from one
    // wait over all its tickets, veto reasons included.
    let server = boot(2);
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let mut publics: Vec<Vec<u64>> = Vec::new();
    for lines in [3, 2] {
        let (status, body) = client.post("/orders", "").expect("create");
        assert_eq!(status, 201, "{body}");
        let order = int_field(&body, "order").expect("order id");
        let ops: Vec<String> = (0..lines)
            .map(|i| format!("{{\"op\":\"line\",\"item\":\"w{i}\",\"qty\":1}}"))
            .collect();
        let (status, body) = client
            .post(
                &format!("/orders/{order}/bulk?mode=deferred"),
                &format!("{{\"ops\":[{}]}}", ops.join(",")),
            )
            .expect("bulk");
        assert_eq!(status, 202, "{body}");
        let list = body
            .strip_prefix("{\"tickets\":[")
            .and_then(|rest| rest.strip_suffix("]}"))
            .expect("ticket list");
        publics.push(list.split(',').map(|t| t.parse().unwrap()).collect());
    }
    let (a, b) = (&publics[0], &publics[1]);
    let ids = [b[0], a[0], 999_999, a[1], b[1], a[2]];
    let query: Vec<String> = ids.iter().map(u64::to_string).collect();
    let (status, body) = client
        .get(&format!("/tickets?ids={}&wait_ms=20000", query.join(",")))
        .expect("poll window");
    assert_eq!(status, 200, "{body}");
    let entries: Vec<String> = ids
        .iter()
        .map(|&id| match id {
            999_999 => format!("{{\"ticket\":{id},\"status\":\"unknown\"}}"),
            _ => format!("{{\"ticket\":{id},\"status\":\"installed\",\"seq\":1}}"),
        })
        .collect();
    assert_eq!(body, format!("{{\"tickets\":[{}]}}", entries.join(",")));

    let (status, body) = client
        .post(
            "/orders/1/bulk?mode=sync",
            "{\"ops\":[{\"op\":\"line\",\"item\":\"w0\",\"qty\":5},{\"op\":\"line\",\"item\":\"w9\",\"qty\":1}]}",
        )
        .expect("sync bulk");
    assert_eq!(
        (status, body.as_str()),
        (200, "{\"outcome\":\"installed\",\"ops\":2,\"seq\":2}")
    );
    let (status, body) = client
        .post(
            "/orders/1/bulk?as=supplier&mode=sync",
            "{\"ops\":[{\"op\":\"line\",\"item\":\"w7\",\"qty\":1}]}",
        )
        .expect("vetoed bulk");
    assert_eq!(status, 409, "{body}");
    assert!(
        body.starts_with("{\"outcome\":\"invalidated\",\"vetoers\":[")
            && body.contains("only the customer may add items"),
        "{body}"
    );
    server.shutdown();
}

#[test]
fn sync_bulk_counts_every_ticket_outcome() {
    // Twenty customer ops ride two rounds (`batch_max` 16). The first
    // carries a customer `price`, which the supplier vetoes, sinking its
    // sixteen; the last four install. The answer is the veto, and every
    // ticket's outcome is counted once.
    let server = boot(1);
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let (status, body) = client.post("/orders", "").expect("create");
    assert_eq!(status, 201, "{body}");
    let mut ops = vec![
        "{\"op\":\"line\",\"item\":\"w0\",\"qty\":1}".to_string(),
        "{\"op\":\"price\",\"item\":\"w0\",\"unit_price\":3}".to_string(),
    ];
    ops.extend((2..20).map(|i| format!("{{\"op\":\"line\",\"item\":\"w{i}\",\"qty\":1}}")));
    let (status, body) = client
        .post(
            "/orders/0/bulk?mode=sync",
            &format!("{{\"ops\":[{}]}}", ops.join(",")),
        )
        .expect("bulk");
    assert_eq!(
        (status, body.as_str()),
        (
            409,
            "{\"outcome\":\"invalidated\",\"vetoers\":[{\"party\":\"supplier\",\"reason\":\"batch[1]: only the supplier may price items (customer priced w0)\"}]}"
        )
    );
    // Read back as the Prometheus exposition `GET /metrics` serves.
    let (status, metrics) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200, "{metrics}");
    for line in ["b2b_serve_installed 4", "b2b_serve_vetoed 16"] {
        assert!(metrics.lines().any(|l| l == line), "{line}:\n{metrics}");
    }
    server.shutdown();
}

#[test]
fn engine_event_buffers_do_not_grow_with_traffic() {
    // Nothing in the server reads the engines' event streams; every
    // mutation discards what the order's engines buffered before it, so
    // after any number of rounds an engine holds one round's events.
    let server = boot(1);
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let (status, body) = client.post("/orders", "").expect("create");
    assert_eq!(status, 201, "{body}");
    let order = int_field(&body, "order").expect("order id");
    for qty in 1..=40 {
        let (status, body) = client
            .post(
                &format!("/orders/{order}/lines"),
                &format!("{{\"item\":\"widget1\",\"qty\":{qty}}}"),
            )
            .expect("lines");
        assert_eq!(status, 200, "{body}");
    }
    assert!(server.wait_converged(Duration::from_secs(30)));
    for party in 0..2 {
        let buffered = server
            .handle(order as usize, party)
            .update(|c| c.take_events().len());
        assert!(
            buffered <= 4,
            "party {party} still buffers {buffered} events after 40 rounds"
        );
    }
    server.shutdown();
}
