//! Figure 7 replay: customer/supplier order processing with asymmetric
//! validation rules, run over the in-process sharded runtime using the
//! synchronous controller API — the deployment-shaped way to use the
//! middleware.
//!
//! Run with: `cargo run --example order_processing`

use b2bobjects::apps::order::{Order, OrderObject, OrderRoles};
use b2bobjects::core::{Controller, CoordError, Coordinator, ObjectId};
use b2bobjects::crypto::{KeyPair, KeyRing, PartyId, Signer};
use b2bobjects::net::{GroupId, ShardedNet};
use std::time::Duration;

fn main() {
    let customer = PartyId::new("customer");
    let supplier = PartyId::new("supplier");
    let roles = OrderRoles::two_party(customer.clone(), supplier.clone());

    let kp_c = KeyPair::generate_from_seed(1);
    let kp_s = KeyPair::generate_from_seed(2);
    let mut ring = KeyRing::new();
    ring.register(customer.clone(), kp_c.public_key());
    ring.register(supplier.clone(), kp_s.public_key());

    let group = GroupId(1001);
    let net = ShardedNet::builder()
        .add_group(
            group,
            vec![
                Coordinator::builder(customer.clone(), kp_c)
                    .ring(ring.clone())
                    .seed(1)
                    .build(),
                Coordinator::builder(supplier.clone(), kp_s)
                    .ring(ring)
                    .seed(2)
                    .build(),
            ],
        )
        .spawn()
        .expect("spawn worker pool");

    // The customer creates the order object; the supplier connects.
    let r = roles.clone();
    net.handle(group, &customer).invoke(move |c, _| {
        c.register_object(
            ObjectId::new("order-1001"),
            Box::new(move || Box::new(OrderObject::new(r.clone()))),
        )
        .unwrap();
    });
    let supplier_ctrl = Controller::new(net.handle(group, &supplier), ObjectId::new("order-1001"))
        .timeout(Duration::from_secs(10));
    let r = roles;
    supplier_ctrl
        .connect(
            Box::new(move || Box::new(OrderObject::new(r.clone()))),
            customer.clone(),
        )
        .expect("supplier joins the order");

    let mut customer_ctrl =
        Controller::new(net.handle(group, &customer), ObjectId::new("order-1001"))
            .timeout(Duration::from_secs(10));
    let mut supplier_ctrl2 =
        Controller::new(net.handle(group, &supplier), ObjectId::new("order-1001"))
            .timeout(Duration::from_secs(10));

    let step = |ctrl: &mut Controller<_>, describe: &str, mutate: &dyn Fn(&mut Order)| {
        // A peer's synchronous call can return while this replica is still
        // installing the same run; wait for the object to go idle first.
        ctrl.wait_idle().unwrap();
        // The paper's wrapper pattern: enter → overwrite → mutate → leave.
        ctrl.enter().unwrap();
        ctrl.overwrite().unwrap();
        let mut order = Order::from_bytes(ctrl.state().unwrap()).unwrap();
        mutate(&mut order);
        ctrl.set_state(order.to_bytes()).unwrap();
        println!("== {describe}");
        match ctrl.leave() {
            Ok(_) => {
                let agreed = Order::from_bytes(&ctrl.current_state().unwrap()).unwrap();
                println!("   accepted; agreed order now:\n{agreed}");
            }
            Err(CoordError::Invalidated { vetoers }) => {
                println!("   REJECTED by {} — \"{}\"", vetoers[0].0, vetoers[0].1);
            }
            Err(e) => println!("   error: {e}"),
        }
    };

    step(&mut customer_ctrl, "customer orders 2 × widget1", &|o| {
        o.set_quantity("widget1", 2)
    });
    step(&mut supplier_ctrl2, "supplier prices widget1 at 10", &|o| {
        o.set_price("widget1", 10);
    });
    step(&mut customer_ctrl, "customer orders 10 × widget2", &|o| {
        o.set_quantity("widget2", 10)
    });
    step(
        &mut supplier_ctrl2,
        "supplier prices widget2 AND changes its quantity (invalid)",
        &|o| {
            o.set_price("widget2", 7);
            o.set_quantity("widget2", 99);
        },
    );

    // Wait for the customer's replica to hold the final agreed order.
    let final_order = Order::from_bytes(&customer_ctrl.current_state().unwrap()).unwrap();
    println!("final agreed order at the customer:\n{final_order}");
    net.shutdown();
}
