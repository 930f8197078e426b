//! What `OrderServer::start` leaves behind: every order's engines have
//! installed every join and hold no buffered engine events, two-party and
//! four-party alike. Nothing in the service consumes those events, so any
//! left here would stay resident for as long as the order is quiet.

use b2b_core::CoordinatorConfig;
use b2b_server::{OrderServer, OrderServerOptions};
use b2b_telemetry::Telemetry;
use std::time::Duration;

#[test]
fn a_started_server_buffers_no_engine_events() {
    for parties in [2, 4] {
        let orders = 3;
        let server = OrderServer::start(OrderServerOptions {
            orders,
            parties,
            shards: Some(2),
            http_workers: 2,
            config: CoordinatorConfig::default(),
            telemetry: Telemetry::new(),
            sync_timeout: Duration::from_secs(30),
            ..OrderServerOptions::default()
        })
        .expect("server boots");
        for g in 0..orders {
            for p in 0..parties {
                let events = server.handle(g, p).update(|c| c.take_events());
                assert!(
                    events.is_empty(),
                    "order {g}, party {p} of {parties}: {} events buffered",
                    events.len()
                );
            }
        }
        server.shutdown();
    }
}
