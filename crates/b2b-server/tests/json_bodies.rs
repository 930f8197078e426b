//! Request bodies are read by the derive-generated JSON reader: any
//! spelling the JSON grammar allows installs as the canonical one would,
//! and a malformed body is answered exactly as before the reader — same
//! status, byte-identical error body (the golden strings below were
//! recorded from the tree-only decoder).

use b2b_apps::Order;
use b2b_core::CoordinatorConfig;
use b2b_net::HttpClient;
use b2b_server::{OrderServer, OrderServerOptions};
use b2b_telemetry::Telemetry;
use std::time::Duration;

fn boot() -> OrderServer {
    OrderServer::start(OrderServerOptions {
        orders: 1,
        parties: 2,
        shards: Some(1),
        http_workers: 2,
        config: CoordinatorConfig::default(),
        telemetry: Telemetry::new(),
        sync_timeout: Duration::from_secs(30),
        ..OrderServerOptions::default()
    })
    .expect("server boots")
}

fn agreed(client: &mut HttpClient) -> Order {
    let (status, body) = client.get("/orders/0").expect("read");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).expect("the agreed order is JSON")
}

#[test]
fn reordered_unknown_duplicate_and_spaced_members_install() {
    let server = boot();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let (status, body) = client.post("/orders", "").expect("create");
    assert_eq!(status, 201, "{body}");

    // Keys out of order, an unknown member, a repeated `qty` (the first
    // occurrence wins, as it always has) and whitespace everywhere.
    let (status, body) = client
        .post(
            "/orders/0/lines?mode=sync",
            " {\n \"qty\" : 3 ,\t\"note\" : {\"x\": [1, \"y\", null]} , \"item\" :\r\"widget-a\", \"qty\": 99 } ",
        )
        .expect("line");
    assert_eq!(status, 200, "{body}");
    let (status, body) = client
        .post(
            "/orders/0/price?mode=sync",
            "{\"unit_price\":10,\"extra\":null,\"item\":\"widget-a\",\"unit_price\":\"ignored\"}",
        )
        .expect("price");
    assert_eq!(status, 200, "{body}");

    // A bulk body whose `ops` is repeated (the first list wins) and whose
    // elements spell their members in any order.
    let (status, body) = client
        .post(
            "/orders/0/bulk?mode=sync",
            "{ \"other\" : [1, {\"a\": \"b\"}],\n\
             \"ops\" : [ {\"qty\":1 , \"item\":\"widget-b\",\"op\":\"line\"},\n\
             {\"op\" : \"line\", \"item\":\"widget-c\", \"qty\":2, \"op\":\"price\"} ],\n\
             \"ops\": [] }",
        )
        .expect("bulk");
    assert_eq!(status, 200, "{body}");

    let order = agreed(&mut client);
    let line = |item: &str| order.line(item).cloned().expect("line installed");
    assert_eq!(line("widget-a").qty, 3);
    assert_eq!(line("widget-a").unit_price, Some(10));
    assert_eq!(line("widget-b").qty, 1);
    assert_eq!(line("widget-c").qty, 2);
    assert_eq!(order.lines.len(), 3);
    server.shutdown();
}

#[test]
fn malformed_bodies_get_the_same_answers_as_before() {
    let server = boot();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let (status, body) = client.post("/orders", "").expect("create");
    assert_eq!(status, 201, "{body}");
    let golden = [
        // A type error: `from_value`'s message, with the field's path.
        (
            "/orders/0/lines",
            "{\"item\":\"widget\",\"qty\":-1}",
            "{\"error\":\"ActionBody.qty: expected unsigned integer, got I64(-1)\"}",
        ),
        // A syntax error after a well-typed prefix.
        (
            "/orders/0/lines",
            "{\"item\":\"widget\",\"qty\":2,}",
            "{\"error\":\"expected '\\\"' at offset 25\"}",
        ),
        // A type error *before* a syntax error: the tree path reports the
        // syntax error, so the answer does too.
        (
            "/orders/0/bulk",
            "{\"ops\":[{\"op\":\"line\",\"item\":7}],\"x\":[1,}",
            "{\"error\":\"unexpected Some(125) at offset 39\"}",
        ),
    ];
    for (path, request, response) in golden {
        let (status, body) = client.post(path, request).expect("post");
        assert_eq!((status, body.as_str()), (400, response), "{request}");
    }
    server.shutdown();
}

/// Every mutation shape — direct and bulk, sync and deferred, the scoped
/// `leave` — and the ticket window polled after each, answered with
/// exactly these status codes and body bytes. A direct action is a bulk
/// of one inside the server, but keeps its own response shapes: `seq`
/// without `ops`, `ticket` rather than `tickets`, no `index` on a 400.
#[test]
fn every_mutation_shape_answers_its_recorded_bytes() {
    let server = boot();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let script: &[(&str, &str, &str, u16, &str)] = &[
        ("POST", "/orders", "", 201, "{\"order\":0,\"parties\":[\"customer\",\"supplier\"]}"),
        // Direct, synchronous: installed, vetoed, malformed, inapplicable.
        (
            "POST",
            "/orders/0/lines?mode=sync",
            "{\"item\":\"w1\",\"qty\":2}",
            200,
            "{\"outcome\":\"installed\",\"seq\":1}",
        ),
        (
            "POST",
            "/orders/0/lines?as=supplier&mode=sync",
            "{\"item\":\"w2\",\"qty\":1}",
            409,
            "{\"outcome\":\"invalidated\",\"vetoers\":[{\"party\":\"customer\",\"reason\":\"only the customer may add items (supplier added w2)\"}]}",
        ),
        ("POST", "/orders/0/lines", "{\"item\":\"w3\"}", 400, "{\"error\":\"missing field: qty\"}"),
        (
            "POST",
            "/orders/0/price",
            "{\"item\":\"nope\",\"unit_price\":3}",
            400,
            "{\"error\":\"no line for item nope\"}",
        ),
        // Direct, deferred: one ticket, then its window.
        (
            "POST",
            "/orders/0/price?mode=deferred",
            "{\"item\":\"w1\",\"unit_price\":7}",
            202,
            "{\"ticket\":1}",
        ),
        (
            "GET",
            "/tickets?ids=1&wait_ms=20000",
            "",
            200,
            "{\"tickets\":[{\"ticket\":1,\"status\":\"installed\",\"seq\":2}]}",
        ),
        // Bulk, synchronous: installed, vetoed, and two 400s naming the op.
        (
            "POST",
            "/orders/0/bulk?mode=sync",
            "{\"ops\":[{\"op\":\"line\",\"item\":\"w4\",\"qty\":1},{\"op\":\"line\",\"item\":\"w5\",\"qty\":2}]}",
            200,
            "{\"outcome\":\"installed\",\"ops\":2,\"seq\":3}",
        ),
        (
            "POST",
            "/orders/0/bulk?mode=sync",
            "{\"ops\":[{\"op\":\"line\",\"item\":\"w6\",\"qty\":1},{\"op\":\"price\",\"item\":\"w6\",\"unit_price\":5}]}",
            409,
            "{\"outcome\":\"invalidated\",\"vetoers\":[{\"party\":\"supplier\",\"reason\":\"batch[1]: only the supplier may price items (customer priced w6)\"}]}",
        ),
        (
            "POST",
            "/orders/0/bulk",
            "{\"ops\":[{\"op\":\"line\",\"item\":\"w7\",\"qty\":1},{\"op\":\"price\",\"item\":\"w8\",\"unit_price\":1}]}",
            400,
            "{\"error\":\"no line for item w8\",\"index\":1}",
        ),
        (
            "POST",
            "/orders/0/bulk",
            "{\"ops\":[{\"op\":\"line\",\"item\":\"w7\",\"qty\":1},{\"item\":\"w7\"}]}",
            400,
            "{\"error\":\"missing field: op\",\"index\":1}",
        ),
        // Bulk, deferred: a ticket per op, polled with an unknown id.
        (
            "POST",
            "/orders/0/bulk?mode=deferred",
            "{\"ops\":[{\"op\":\"line\",\"item\":\"w9\",\"qty\":1},{\"op\":\"price\",\"item\":\"w9\",\"unit_price\":4}]}",
            202,
            "{\"tickets\":[2,3]}",
        ),
        (
            "GET",
            "/tickets?ids=2,99,3&wait_ms=20000",
            "",
            200,
            "{\"tickets\":[{\"ticket\":2,\"status\":\"invalidated\",\"vetoers\":[{\"party\":\"supplier\",\"reason\":\"batch[1]: only the supplier may price items (customer priced w9)\"}]},{\"ticket\":99,\"status\":\"unknown\"},{\"ticket\":3,\"status\":\"invalidated\",\"vetoers\":[{\"party\":\"supplier\",\"reason\":\"batch[1]: only the supplier may price items (customer priced w9)\"}]}]}",
        ),
        // Scoped: a synchronous leave that installs …
        ("POST", "/orders/0/enter?mode=sync", "", 200, ""),
        (
            "POST",
            "/orders/0/update",
            "{\"op\":\"line\",\"item\":\"w10\",\"qty\":1}",
            200,
            "{\"ok\":true}",
        ),
        ("POST", "/orders/0/leave", "", 200, "{\"outcome\":\"installed\"}"),
        // … a deferred leave that hands out a ticket …
        ("POST", "/orders/0/enter?mode=deferred", "", 200, ""),
        (
            "POST",
            "/orders/0/update",
            "{\"op\":\"line\",\"item\":\"w11\",\"qty\":1}",
            200,
            "{\"ok\":true}",
        ),
        ("POST", "/orders/0/leave", "", 202, "{\"ticket\":4}"),
        (
            "GET",
            "/tickets?ids=4&wait_ms=20000",
            "",
            200,
            "{\"tickets\":[{\"ticket\":4,\"status\":\"installed\",\"seq\":5}]}",
        ),
        // … and a synchronous leave from a stale working copy: vetoed.
        ("POST", "/orders/0/enter?mode=sync", "", 200, ""),
        (
            "POST",
            "/orders/0/lines?mode=sync",
            "{\"item\":\"w12\",\"qty\":1}",
            200,
            "{\"outcome\":\"installed\",\"seq\":6}",
        ),
        (
            "POST",
            "/orders/0/update",
            "{\"op\":\"line\",\"item\":\"w13\",\"qty\":1}",
            200,
            "{\"ok\":true}",
        ),
        (
            "POST",
            "/orders/0/leave",
            "",
            409,
            "{\"outcome\":\"invalidated\",\"vetoers\":[{\"party\":\"supplier\",\"reason\":\"items may not be renamed\"}]}",
        ),
        (
            "GET",
            "/tickets?ids=1,2,3,4",
            "",
            200,
            "{\"tickets\":[{\"ticket\":1,\"status\":\"installed\",\"seq\":2},{\"ticket\":2,\"status\":\"invalidated\",\"vetoers\":[{\"party\":\"supplier\",\"reason\":\"batch[1]: only the supplier may price items (customer priced w9)\"}]},{\"ticket\":3,\"status\":\"invalidated\",\"vetoers\":[{\"party\":\"supplier\",\"reason\":\"batch[1]: only the supplier may price items (customer priced w9)\"}]},{\"ticket\":4,\"status\":\"installed\",\"seq\":5}]}",
        ),
    ];
    for &(method, path, request, status, response) in script {
        let (got_status, got_body) = match method {
            "GET" => client.get(path),
            _ => client.post(path, request),
        }
        .expect("exchange");
        // `enter` answers with the working copy; its bytes are the order
        // encoding's business, not this test's.
        if path.contains("/enter") {
            assert_eq!(got_status, status, "{path}: {got_body}");
            continue;
        }
        assert_eq!(
            (got_status, got_body.as_str()),
            (status, response),
            "{method} {path} {request}"
        );
    }
    server.shutdown();
}

#[test]
fn numbers_and_escapes_the_scanner_used_to_misread_are_refused() {
    let server = boot();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let (status, body) = client.post("/orders", "").expect("create");
    assert_eq!(status, 201, "{body}");
    // Both used to install: the quantity as 1, the item as "A".
    for request in [
        "{\"item\":\"widget\",\"qty\":-18446744073709551615}",
        "{\"item\":\"\\u+041\",\"qty\":1}",
    ] {
        let (status, body) = client.post("/orders/0/lines", request).expect("post");
        assert_eq!(status, 400, "{request} -> {body}");
    }
    assert!(agreed(&mut client).lines.is_empty());
    server.shutdown();
}
