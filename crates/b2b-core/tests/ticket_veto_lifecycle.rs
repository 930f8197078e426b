//! Ticket lifecycle under a forced validation veto, in the two
//! non-blocking communication modes (§3.3/§5).
//!
//! Deferred-synchronous and asynchronous submissions are optimistic: the
//! caller's working state moves ahead of the group agreement, and a peer
//! veto must reconcile both modes to the SAME outcome — proposal
//! invalidated, agreed state unchanged on every member, vetoer and
//! reason observable by the submitter. These tests pin that shared
//! reconciliation outcome at unit level (no server, simulator network),
//! and the idempotency of [`Controller::poll_status`] that the HTTP
//! `/tickets/:id` endpoint builds on: draining the event stream consumes
//! a completion exactly once, polling the status never does.

mod common;

use b2b_core::controller::{CoordAccess, Mode};
use b2b_core::{
    Controller, CoordError, CoordEventKind, CoordTicket, Coordinator, ObjectId, SimAccess,
    TicketId, TicketStatus,
};
use b2b_crypto::{KeyPair, KeyRing, Signer};
use b2b_net::SimNet;
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

/// Registers the counter at party 0, joins party 1, and installs 10 so a
/// later proposal of 1 is a guaranteed decrease-veto from party 1.
fn setup_at_ten(a: &SimAccess, b: &SimAccess) {
    a.with(|c, _| {
        c.register_object(ObjectId::new("counter"), Box::new(counter_factory))
            .unwrap();
    });
    let ctrl_b = Controller::new(b.clone(), ObjectId::new("counter"));
    ctrl_b
        .connect(Box::new(counter_factory), party(0))
        .expect("connect succeeds");
    let mut ctrl = Controller::new(a.clone(), ObjectId::new("counter"));
    ctrl.sync_coord(enc(10)).expect("install 10");
}

/// Submits the forbidden decrease as an update delta in `mode` and
/// returns its ticket (queued through `submit_update`, the path real
/// concurrent clients exercise).
fn submit_decrease(a: &SimAccess, mode: Mode) -> (Controller<SimAccess>, CoordTicket) {
    let mut ctrl = Controller::new(a.clone(), ObjectId::new("counter")).mode(mode);
    ctrl.enter().unwrap();
    ctrl.update(enc(1)).unwrap();
    let ticket = ctrl.leave().unwrap().expect("update yields a ticket");
    (ctrl, ticket)
}

fn assert_vetoed_by_party1(status: &TicketStatus) {
    match status {
        TicketStatus::Invalidated { vetoers } => {
            assert_eq!(vetoers.len(), 1, "exactly one vetoer: {vetoers:?}");
            assert_eq!(vetoers[0].0, party(1));
            assert!(
                vetoers[0].1.contains("counter may not decrease"),
                "veto reason must carry the validator's words: {:?}",
                vetoers[0].1
            );
        }
        other => panic!("expected Invalidated, got {other:?}"),
    }
}

#[test]
fn deferred_veto_reports_reason_and_rolls_back() {
    let (a, b) = sim_pair(120);
    setup_at_ten(&a, &b);
    let (ctrl, ticket) = submit_decrease(&a, Mode::DeferredSynchronous);

    // Nothing has been driven yet: the ticket is in flight, not unknown.
    assert!(
        matches!(ctrl.poll_status(ticket), TicketStatus::Pending { .. }),
        "undriven ticket reports Pending"
    );

    // The commit reconciles: invalidated, with the vetoer's reason.
    match ctrl.coord_commit(ticket) {
        Err(CoordError::Invalidated { vetoers }) => {
            assert_eq!(vetoers[0].0, party(1));
            assert!(vetoers[0].1.contains("counter may not decrease"));
        }
        other => panic!("expected Invalidated, got {other:?}"),
    }

    // The agreed state never moved, on either member.
    assert_eq!(dec(&ctrl.current_state().unwrap()), 10);
    assert_eq!(
        b.with(|c, _| c.agreed_state(&ObjectId::new("counter"))),
        Some(enc(10))
    );

    // Polling after completion is idempotent: same terminal status,
    // veto reasons included, on every call.
    let first = ctrl.poll_status(ticket);
    assert_vetoed_by_party1(&first);
    assert_eq!(ctrl.poll_status(ticket), first);
    assert_eq!(ctrl.poll_status(ticket), first);
}

#[test]
fn async_veto_completes_via_events_and_status_stays_pollable() {
    let (a, b) = sim_pair(121);
    setup_at_ten(&a, &b);
    let (ctrl, ticket) = submit_decrease(&a, Mode::Asynchronous);

    // Asynchronous mode returned immediately; drive until the outcome
    // lands.
    let id = ticket.ticket;
    let done = a.wait(Duration::from_secs(5), move |c| {
        c.outcome_of_ticket(&id).is_some()
    });
    assert!(done, "async outcome must arrive");

    // Completion is signalled once through the coordCallback stream…
    let events = ctrl.take_events();
    assert!(events.iter().any(|e| matches!(
        &e.event,
        CoordEventKind::Completed { outcome } if !outcome.is_installed()
    )));
    // …and the stream is drained afterwards.
    assert!(ctrl.take_events().is_empty());

    // But the status poll keeps answering — the /tickets/:id contract.
    let first = ctrl.poll_status(ticket);
    assert_vetoed_by_party1(&first);
    assert_eq!(ctrl.poll_status(ticket), first);

    // Rollback: agreed state unchanged everywhere.
    assert_eq!(dec(&ctrl.current_state().unwrap()), 10);
    assert_eq!(
        b.with(|c, _| c.agreed_state(&ObjectId::new("counter"))),
        Some(enc(10))
    );
}

#[test]
fn deferred_and_async_share_the_reconciliation_outcome() {
    // The paper's modes differ in WHEN the caller learns the outcome,
    // never in WHAT the outcome is: the same vetoed update must
    // reconcile identically whichever mode submitted it.
    let (a, b) = sim_pair(122);
    setup_at_ten(&a, &b);

    let (ctrl_d, ticket_d) = submit_decrease(&a, Mode::DeferredSynchronous);
    let _ = ctrl_d.coord_commit(ticket_d);
    let status_d = ctrl_d.poll_status(ticket_d);

    let (ctrl_a, ticket_a) = submit_decrease(&a, Mode::Asynchronous);
    let id = ticket_a.ticket;
    assert!(a.wait(Duration::from_secs(5), move |c| {
        c.outcome_of_ticket(&id).is_some()
    }));
    let status_a = ctrl_a.poll_status(ticket_a);

    assert_vetoed_by_party1(&status_d);
    assert_eq!(
        status_d, status_a,
        "deferred and asynchronous must reconcile to the same outcome"
    );
    assert_eq!(dec(&ctrl_d.current_state().unwrap()), 10);
    assert_eq!(
        b.with(|c, _| c.agreed_state(&ObjectId::new("counter"))),
        Some(enc(10))
    );
}

#[test]
fn unknown_tickets_report_unknown_not_pending() {
    let (a, b) = sim_pair(123);
    setup_at_ten(&a, &b);
    let ctrl = Controller::new(a, ObjectId::new("counter"));
    let bogus = CoordTicket {
        ticket: TicketId(u64::MAX),
    };
    assert_eq!(ctrl.poll_status(bogus), TicketStatus::Unknown);
    assert!(!TicketStatus::Unknown.is_terminal());
    drop(b);
}
