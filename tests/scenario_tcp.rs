//! The Figure 7 (order processing) scenario script replayed over
//! multiplexed loopback sockets (`b2b-net::shard_tcp`).
//!
//! Beyond the script completing, the test replays the *same* script with
//! the *same* seeds on the deterministic simulator and asserts the
//! evidence logs are identical modulo the two time-dependent fields (TSA
//! token, local append time): the transport underneath changes nothing
//! about the evidence the parties accumulate — which is the paper's
//! layering claim (§4.2) made checkable. Figure 5 parity and the
//! socket-kill recovery run in `sharded_parity.rs`.

mod common;

use b2bobjects::apps::order::{Order, OrderObject, OrderRoles};
use b2bobjects::crypto::PartyId;
use b2bobjects::net::poll::wait_for;
use common::{evidence_projection, ShardedWorld, World, TCP_STEP};

fn order_roles() -> OrderRoles {
    OrderRoles::two_party(PartyId::new("customer"), PartyId::new("supplier"))
}

fn order_factory() -> Box<dyn b2bobjects::core::B2BObject> {
    Box::new(OrderObject::new(order_roles()))
}

/// The Figure 7 script: two valid updates each way, then the supplier's
/// mixed valid/invalid update that the customer vetoes.
macro_rules! figure7_script {
    ($world:expr) => {{
        $world.share("order", "customer", &["supplier"], order_factory);

        let mut order = Order::from_bytes(&$world.state("customer", "order")).unwrap();
        order.set_quantity("widget1", 2);
        assert!($world
            .propose("customer", "order", order.to_bytes())
            .1
            .is_installed());

        let mut order = Order::from_bytes(&$world.state("supplier", "order")).unwrap();
        assert!(order.set_price("widget1", 10));
        assert!($world
            .propose("supplier", "order", order.to_bytes())
            .1
            .is_installed());

        let mut order = Order::from_bytes(&$world.state("customer", "order")).unwrap();
        order.set_quantity("widget2", 10);
        assert!($world
            .propose("customer", "order", order.to_bytes())
            .1
            .is_installed());

        let before = $world.state("customer", "order");
        let mut order = Order::from_bytes(&$world.state("supplier", "order")).unwrap();
        assert!(order.set_price("widget2", 7));
        order.set_quantity("widget2", 99);
        let (_, outcome) = $world.propose("supplier", "order", order.to_bytes());
        assert!(!outcome.is_installed(), "mixed update must be vetoed");
        assert_eq!($world.state("customer", "order"), before);
    }};
}

#[test]
fn figure7_over_tcp_matches_inproc_evidence() {
    let mut sim = World::new(&["customer", "supplier"], 110);
    figure7_script!(sim);

    let mut tcp = ShardedWorld::new_tcp(&["customer", "supplier"], 110);
    figure7_script!(tcp);

    for who in ["customer", "supplier"] {
        let id = PartyId::new(who);
        let want = evidence_projection(&sim.stores[&id]);
        // The last protocol message may still be in flight when the script
        // returns; poll until the logs agree rather than sleeping.
        let store = tcp.stores[&id].clone();
        assert!(
            wait_for(TCP_STEP, || evidence_projection(&store) == want),
            "{who}'s evidence over TCP diverges from the in-proc run:\n\
             tcp has {} records, sim has {}",
            evidence_projection(&tcp.stores[&id]).len(),
            want.len()
        );
    }
    tcp.net.shutdown();
}
