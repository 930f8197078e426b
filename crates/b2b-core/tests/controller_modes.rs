//! Tests of the `B2BObjectController` API (§5): scoping, the three
//! communication modes, and operation over both network drivers.

mod common;

use b2b_core::controller::Mode;
use b2b_core::{ConnectStatus, Controller, CoordError, Coordinator, ObjectId, SimAccess};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer};
use b2b_net::{GroupId, ShardedNet, SimNet};
use common::*;
use std::time::Duration;

fn sim_pair(seed: u64) -> (SimAccess, SimAccess) {
    let mut ring = KeyRing::new();
    let kp0 = KeyPair::generate_from_seed(1);
    let kp1 = KeyPair::generate_from_seed(2);
    ring.register(party(0), kp0.public_key());
    ring.register(party(1), kp1.public_key());
    let mut net = SimNet::new(seed);
    net.add_node(
        Coordinator::builder(party(0), kp0)
            .ring(ring.clone())
            .seed(seed)
            .build(),
    );
    net.add_node(
        Coordinator::builder(party(1), kp1)
            .ring(ring)
            .seed(seed + 1)
            .build(),
    );
    let shared = SimAccess::shared(net);
    (
        SimAccess::new(shared.clone(), party(0)),
        SimAccess::new(shared, party(1)),
    )
}

fn setup_counter(a: &SimAccess, b: &SimAccess) {
    a.with(|c, _| {
        c.register_object(ObjectId::new("counter"), Box::new(counter_factory))
            .unwrap();
    });
    let ctrl_b = Controller::new(b.clone(), ObjectId::new("counter"));
    ctrl_b
        .connect(Box::new(counter_factory), party(0))
        .expect("connect succeeds");
}

use b2b_core::controller::CoordAccess;

#[test]
fn sync_scope_roundtrip_installs_at_both() {
    let (a, b) = sim_pair(80);
    setup_counter(&a, &b);
    let mut ctrl = Controller::new(a.clone(), ObjectId::new("counter"));
    ctrl.enter().unwrap();
    ctrl.overwrite().unwrap();
    ctrl.set_state(enc(5)).unwrap();
    let ticket = ctrl.leave().unwrap();
    assert!(ticket.is_some());
    assert_eq!(dec(&ctrl.current_state().unwrap()), 5);
    // The proposer's sync call returns when *it* learns the outcome; the
    // recipient's decide may still be in flight — drive until it lands.
    let converged = b.wait(Duration::from_secs(5), |c| {
        c.agreed_state(&ObjectId::new("counter")) == Some(enc(5))
    });
    assert!(converged);
    let ctrl_b = Controller::new(b, ObjectId::new("counter"));
    assert_eq!(dec(&ctrl_b.current_state().unwrap()), 5);
}

#[test]
fn sync_scope_veto_surfaces_as_invalidated_error() {
    let (a, b) = sim_pair(81);
    setup_counter(&a, &b);
    let mut ctrl = Controller::new(a.clone(), ObjectId::new("counter"));
    ctrl.sync_coord(enc(10)).unwrap();
    let err = ctrl.sync_coord(enc(1)).unwrap_err();
    match err {
        CoordError::Invalidated { vetoers } => {
            assert_eq!(vetoers[0].0, party(1));
        }
        other => panic!("expected Invalidated, got {other:?}"),
    }
    // Working state rolled back to the agreed value.
    assert_eq!(dec(&ctrl.current_state().unwrap()), 10);
    drop(b);
}

#[test]
fn nested_scopes_roll_up_to_one_coordination() {
    let (a, b) = sim_pair(82);
    setup_counter(&a, &b);
    let before = a.with(|c, _| c.messages_sent());
    let mut ctrl = Controller::new(a.clone(), ObjectId::new("counter"));
    ctrl.enter().unwrap();
    ctrl.overwrite().unwrap();
    ctrl.set_state(enc(1)).unwrap();
    ctrl.enter().unwrap(); // nested
    ctrl.set_state(enc(2)).unwrap();
    assert!(
        ctrl.leave().unwrap().is_none(),
        "inner leave coordinates nothing"
    );
    let ticket = ctrl.leave().unwrap(); // outer leave coordinates once
    assert!(ticket.is_some());
    let after = a.with(|c, _| c.messages_sent());
    assert_eq!(
        after - before,
        2,
        "one propose + one decide from this party"
    );
    assert_eq!(dec(&ctrl.current_state().unwrap()), 2);
    drop(b);
}

#[test]
fn examine_scope_coordinates_nothing() {
    let (a, b) = sim_pair(83);
    setup_counter(&a, &b);
    let before = a.with(|c, _| c.messages_sent());
    let mut ctrl = Controller::new(a.clone(), ObjectId::new("counter"));
    ctrl.enter().unwrap();
    ctrl.examine().unwrap();
    let v = dec(ctrl.state().unwrap());
    assert_eq!(v, 0);
    assert!(ctrl.leave().unwrap().is_none());
    assert_eq!(a.with(|c, _| c.messages_sent()), before);
    drop(b);
}

#[test]
fn scope_misuse_is_rejected() {
    let (a, b) = sim_pair(84);
    setup_counter(&a, &b);
    let mut ctrl = Controller::new(a, ObjectId::new("counter"));
    assert!(matches!(ctrl.examine(), Err(CoordError::ScopeMisuse(_))));
    assert!(matches!(ctrl.overwrite(), Err(CoordError::ScopeMisuse(_))));
    assert!(matches!(ctrl.state(), Err(CoordError::ScopeMisuse(_))));
    assert!(matches!(
        ctrl.set_state(vec![]),
        Err(CoordError::ScopeMisuse(_))
    ));
    drop(b);
}

#[test]
fn deferred_mode_returns_ticket_then_commits() {
    let (a, b) = sim_pair(85);
    setup_counter(&a, &b);
    let mut ctrl =
        Controller::new(a.clone(), ObjectId::new("counter")).mode(Mode::DeferredSynchronous);
    let ticket = ctrl.sync_coord(enc(7)).unwrap().unwrap();
    // Not yet necessarily complete; commit drives to completion.
    ctrl.coord_commit(ticket).unwrap();
    assert_eq!(dec(&ctrl.current_state().unwrap()), 7);
    drop(b);
}

#[test]
fn async_mode_completion_arrives_via_events() {
    let (a, b) = sim_pair(86);
    setup_counter(&a, &b);
    let mut ctrl = Controller::new(a.clone(), ObjectId::new("counter")).mode(Mode::Asynchronous);
    let ticket = ctrl.sync_coord(enc(9)).unwrap().unwrap();
    // Drive the network by polling until the outcome lands.
    let done = a.wait(Duration::from_secs(5), move |c| {
        c.outcome_of_ticket(&ticket.ticket).is_some()
    });
    assert!(done);
    let events = ctrl.take_events();
    assert!(events.iter().any(|e| matches!(
        &e.event,
        b2b_core::CoordEventKind::Completed { outcome } if outcome.is_installed()
    )));
    drop(b);
}

#[test]
fn update_scope_uses_delta_coordination() {
    let (a, b) = sim_pair(87);
    a.with(|c, _| {
        c.register_object(ObjectId::new("log"), Box::new(append_log_factory))
            .unwrap();
    });
    let ctrl_b = Controller::new(b.clone(), ObjectId::new("log"));
    ctrl_b
        .connect(Box::new(append_log_factory), party(0))
        .unwrap();

    let mut ctrl = Controller::new(a.clone(), ObjectId::new("log"));
    ctrl.enter().unwrap();
    ctrl.update(serde_json::to_vec(&"entry-1".to_string()).unwrap())
        .unwrap();
    ctrl.leave().unwrap();
    let expected = ctrl.current_state().unwrap();
    let converged = b.wait(Duration::from_secs(5), move |c| {
        c.agreed_state(&ObjectId::new("log")).as_deref() == Some(&expected[..])
    });
    assert!(converged);
    let entries: Vec<String> = serde_json::from_slice(&ctrl_b.current_state().unwrap()).unwrap();
    assert_eq!(entries, vec!["entry-1".to_string()]);
}

#[test]
fn controller_disconnect_blocks_until_acked() {
    let (a, b) = sim_pair(88);
    setup_counter(&a, &b);
    let ctrl_b = Controller::new(b.clone(), ObjectId::new("counter"));
    ctrl_b.disconnect().unwrap();
    assert!(!b.with(|c, _| c.is_member(&ObjectId::new("counter"))));
    assert_eq!(
        a.with(|c, _| c.members(&ObjectId::new("counter")).unwrap().len()),
        1
    );
}

#[test]
fn threaded_net_full_lifecycle() {
    // The same engines over real threads: register, connect, coordinate,
    // veto, disconnect — driven by blocking controller calls.
    let mut ring = KeyRing::new();
    let kp0 = KeyPair::generate_from_seed(11);
    let kp1 = KeyPair::generate_from_seed(12);
    ring.register(PartyId::new("alpha"), kp0.public_key());
    ring.register(PartyId::new("beta"), kp1.public_key());
    let net = ShardedNet::builder()
        .shards(1)
        .add_group(
            GroupId(0),
            vec![
                Coordinator::builder(PartyId::new("alpha"), kp0)
                    .ring(ring.clone())
                    .seed(1)
                    .build(),
                Coordinator::builder(PartyId::new("beta"), kp1)
                    .ring(ring)
                    .seed(2)
                    .build(),
            ],
        )
        .spawn()
        .expect("spawn worker pool");

    let alpha = net.handle(GroupId(0), &PartyId::new("alpha"));
    let beta = net.handle(GroupId(0), &PartyId::new("beta"));
    alpha.invoke(|c, _| {
        c.register_object(ObjectId::new("counter"), Box::new(counter_factory))
            .unwrap();
    });
    let ctrl_beta =
        Controller::new(beta.clone(), ObjectId::new("counter")).timeout(Duration::from_secs(10));
    ctrl_beta
        .connect(Box::new(counter_factory), PartyId::new("alpha"))
        .expect("beta joins");

    let mut ctrl_alpha =
        Controller::new(alpha.clone(), ObjectId::new("counter")).timeout(Duration::from_secs(10));
    ctrl_alpha.sync_coord(enc(5)).expect("accepted");
    assert!(beta.wait_until(Duration::from_secs(10), |c| {
        c.agreed_state(&ObjectId::new("counter")) == Some(enc(5))
    }));
    assert_eq!(dec(&ctrl_beta.current_state().unwrap()), 5);

    // beta proposes an invalid decrease: vetoed by alpha.
    let mut ctrl_beta2 =
        Controller::new(beta.clone(), ObjectId::new("counter")).timeout(Duration::from_secs(10));
    assert!(matches!(
        ctrl_beta2.sync_coord(enc(1)),
        Err(CoordError::Invalidated { .. })
    ));
    assert_eq!(dec(&ctrl_alpha.current_state().unwrap()), 5);

    ctrl_beta.disconnect().expect("beta leaves");
    assert!(!beta.read(|c| c.is_member(&ObjectId::new("counter"))));
    net.shutdown();
}

#[test]
fn connect_rejection_status_visible_to_subject() {
    let (a, b) = sim_pair(89);
    a.with(|c, _| {
        struct Closed;
        impl b2b_core::B2BObject for Closed {
            fn get_state(&self) -> Vec<u8> {
                vec![]
            }
            fn apply_state(&mut self, _s: &[u8]) {}
            fn validate_state(&self, _w: &PartyId, _c: &[u8], _p: &[u8]) -> b2b_core::Decision {
                b2b_core::Decision::accept()
            }
            fn validate_connect(&self, _s: &PartyId) -> b2b_core::Decision {
                b2b_core::Decision::reject("closed")
            }
        }
        c.register_object(ObjectId::new("obj"), Box::new(|| Box::new(Closed)))
            .unwrap();
    });
    let ctrl_b = Controller::new(b.clone(), ObjectId::new("obj"));
    assert!(matches!(
        ctrl_b.connect(Box::new(counter_factory), party(0)),
        Err(CoordError::ConnectionRejected)
    ));
    assert_eq!(
        b.with(|c, _| c.connect_status(&ObjectId::new("obj")).cloned()),
        Some(ConnectStatus::Rejected)
    );
}

#[test]
fn sim_wait_times_out_instead_of_spinning_forever() {
    // The simulator's wait interprets the timeout as a virtual-time
    // budget: a predicate that never holds must not spin the event loop
    // forever (retransmission timers can keep the queue alive
    // indefinitely, e.g. across a partition).
    use b2b_core::controller::CoordAccess;
    let (a, b) = sim_pair(90);
    setup_counter(&a, &b);
    let done = a.wait(Duration::from_millis(500), |_c| false);
    assert!(!done, "wait must return false at its deadline");
    // The handles remain usable afterwards.
    let mut ctrl = Controller::new(a, ObjectId::new("counter"));
    ctrl.sync_coord(enc(1)).unwrap();
    drop(b);
}
