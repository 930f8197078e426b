//! Figure 1b: indirect interaction through trusted agents with
//! *conditional state disclosure* — the agent relays only what the
//! disclosure policy allows between two sharing groups.

mod common;

use b2bobjects::apps::order::{Order, OrderObject, OrderRoles};
use b2bobjects::apps::ttp::BridgeAgent;
use b2bobjects::apps::SharedCell;
use b2bobjects::core::ObjectId;
use b2bobjects::crypto::PartyId;
use common::World;

#[test]
fn agent_relays_validated_state_with_conditional_disclosure() {
    // org1 shares a full order with the agent; org3 receives, via the
    // agent, only the *totals view* (item names and quantities — never
    // prices), in a second sharing group.
    let mut world = World::new(&["org1", "agent", "org3"], 140);

    let roles = OrderRoles::two_party(PartyId::new("org1"), PartyId::new("agent"));
    let order_factory = move || -> Box<dyn b2bobjects::core::B2BObject> {
        Box::new(OrderObject::new(roles.clone()))
    };
    world.share("full-order", "org1", &["agent"], order_factory);

    // The disclosed view is an unconstrained cell owned by the agent side.
    let view_factory = || -> Box<dyn b2bobjects::core::B2BObject> {
        Box::new(SharedCell::new(Vec::<(String, u32)>::new()))
    };
    world.net.invoke(&PartyId::new("agent"), move |c, _| {
        c.register_object(ObjectId::new("disclosed-view"), Box::new(view_factory))
            .unwrap();
    });
    world.join_with("disclosed-view", "org3", "agent", view_factory);

    // org1 places an order with prices.
    let mut order = Order::from_bytes(&world.state("org1", "full-order")).unwrap();
    order.set_quantity("widget", 3);
    assert!(world
        .propose("org1", "full-order", order.to_bytes())
        .1
        .is_installed());
    let mut order = Order::from_bytes(&world.state("agent", "full-order")).unwrap();
    order.set_price("widget", 10);
    // The agent itself is the "supplier" role in this pairing.
    assert!(world
        .propose("agent", "full-order", order.to_bytes())
        .1
        .is_installed());

    // The agent relays through its disclosure filter: quantities only.
    let bridge = BridgeAgent::new(
        ObjectId::new("full-order"),
        ObjectId::new("disclosed-view"),
        |full| {
            let order = Order::from_bytes(full)?;
            let view: Vec<(String, u32)> = order
                .lines
                .iter()
                .map(|l| (l.item.clone(), l.qty))
                .collect();
            serde_json::to_vec(&view).ok()
        },
    );
    let pumped = world.net.invoke(&PartyId::new("agent"), move |c, ctx| {
        bridge.pump_with(c, ctx).unwrap()
    });
    assert!(pumped);
    world.run();

    // org3 sees the quantities, and only the quantities.
    let view: Vec<(String, u32)> =
        serde_json::from_slice(&world.state("org3", "disclosed-view")).unwrap();
    assert_eq!(view, vec![("widget".to_string(), 3)]);
    let raw = String::from_utf8(world.state("org3", "disclosed-view")).unwrap();
    assert!(!raw.contains("10"), "prices are never disclosed to org3");
}

#[test]
fn agent_withholds_disclosure_when_filter_declines() {
    let mut world = World::new(&["org1", "agent", "org3"], 141);
    let cell_factory =
        || -> Box<dyn b2bobjects::core::B2BObject> { Box::new(SharedCell::new(String::new())) };
    world.share("src", "org1", &["agent"], cell_factory);
    world.net.invoke(&PartyId::new("agent"), move |c, _| {
        c.register_object(ObjectId::new("dst"), Box::new(cell_factory))
            .unwrap();
    });
    world.join_with("dst", "org3", "agent", cell_factory);

    let secret = serde_json::to_vec(&"SECRET: do not disclose".to_string()).unwrap();
    assert!(world.propose("org1", "src", secret).1.is_installed());

    let bridge = BridgeAgent::new(ObjectId::new("src"), ObjectId::new("dst"), |bytes| {
        let text: String = serde_json::from_slice(bytes).ok()?;
        if text.contains("SECRET") {
            None // disclosure withheld
        } else {
            Some(bytes.to_vec())
        }
    });
    let pumped = world.net.invoke(&PartyId::new("agent"), move |c, ctx| {
        bridge.pump_with(c, ctx).unwrap()
    });
    assert!(!pumped, "the filter withheld disclosure");
    world.run();
    let dst: String = serde_json::from_slice(&world.state("org3", "dst")).unwrap();
    assert_eq!(dst, "", "org3 never sees the withheld state");
}
