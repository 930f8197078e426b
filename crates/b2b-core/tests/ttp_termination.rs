//! §7 TTP-certified termination: a deadline-blocked run is resolved by an
//! appointed trusted third party — certified abort when the response set
//! is incomplete, certified decision when it is complete — and the
//! resolution reaches *every* member.

mod common;

use b2b_core::messages::WireMsg;
use b2b_core::{ConnectStatus, Coordinator, CoordinatorConfig, ObjectId, Outcome, RunId};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs, TimeStampAuthority};
use b2b_evidence::MemStore;
use b2b_net::intruder::{FnIntruder, InterceptAction};
use b2b_net::reliable::{data_body, data_frame, with_body};
use b2b_net::SimNet;
use b2b_telemetry::names;
use common::{counter_factory, dec, enc};
use std::sync::{Arc, Mutex};

/// Builds `n` member orgs plus a separate TTP node ("notary") that is not
/// a group member but answers appeals.
struct TtpWorld {
    net: SimNet<Coordinator>,
    parties: Vec<PartyId>,
}

fn org(i: usize) -> PartyId {
    PartyId::new(format!("org{i}"))
}

fn notary() -> PartyId {
    PartyId::new("notary")
}

fn build(n: usize, seed: u64, deadline: u64) -> TtpWorld {
    let mut ring = KeyRing::new();
    let mut keys = Vec::new();
    for i in 0..n {
        let kp = KeyPair::generate_from_seed(100 + i as u64);
        ring.register(org(i), kp.public_key());
        keys.push(kp);
    }
    let ttp_kp = KeyPair::generate_from_seed(999);
    ring.register(notary(), ttp_kp.public_key());
    let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(888));

    let config = CoordinatorConfig::new()
        .run_deadline(TimeMs(deadline))
        .ttp(notary());

    let mut net = SimNet::new(seed);
    for (i, kp) in keys.into_iter().enumerate() {
        net.add_node(
            Coordinator::builder(org(i), kp)
                .ring(ring.clone())
                .tsa(tsa.clone())
                .config(config.clone())
                .store(Arc::new(MemStore::new()))
                .seed(seed + i as u64)
                .build(),
        );
    }
    net.add_node(
        Coordinator::builder(notary(), ttp_kp)
            .ring(ring)
            .tsa(tsa)
            .seed(seed + 100)
            .build(),
    );
    TtpWorld {
        net,
        parties: (0..n).map(org).collect(),
    }
}

fn setup_counter(world: &mut TtpWorld) {
    let n = world.parties.len();
    setup_group(world, n);
}

/// Forms the counter's group from the first `members` orgs, each joining
/// through the one before it, so the last of them is the sponsor.
fn setup_group(world: &mut TtpWorld, members: usize) {
    world.net.invoke(&org(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    for i in 1..members {
        let sponsor = org(i - 1);
        world.net.invoke(&org(i), move |c, ctx| {
            c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                .unwrap();
        });
        world.net.run_until_quiet(TimeMs(600_000));
    }
}

/// Decodes the protocol message inside a reliable-layer data frame.
fn peek(raw: &[u8]) -> Option<WireMsg> {
    WireMsg::from_bytes(data_body(raw)?)
}

/// Re-encodes a tampered protocol message into the original frame header.
fn replace_body(raw: &[u8], msg: &WireMsg) -> Vec<u8> {
    with_body(raw, &msg.to_bytes()).expect("a data frame")
}

/// Proposes from org0 while org2 is silent, so org0 appeals to the TTP at
/// its deadline with org1's response alone; `pad` rewrites that appeal's
/// (unsigned) response set in transit. Returns org0's outcome.
fn appeal_with_padded_responses(
    world: &mut TtpWorld,
    pad: impl Fn(&mut Vec<b2b_core::messages::RespondMsg>) + Send + 'static,
) -> Option<Outcome> {
    world
        .net
        .partition([org(2)], vec![org(0), org(1)], TimeMs(u64::MAX));
    world.net.set_intruder(FnIntruder::new(
        move |from: &PartyId, _t: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::TtpResolve(mut m)) if from.as_str() == "org0" => {
                pad(&mut m.responses);
                InterceptAction::Replace(replace_body(raw, &WireMsg::TtpResolve(m)))
            }
            _ => InterceptAction::Deliver,
        },
    ));
    let oid = ObjectId::new("c");
    let run = world.net.invoke(&org(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(9), ctx).unwrap()
    });
    drive_until_outcome(world, &org(0), &run, TimeMs(30_000))
}

fn drive_until_outcome(
    world: &mut TtpWorld,
    who: &PartyId,
    run: &RunId,
    budget: TimeMs,
) -> Option<Outcome> {
    let t0 = world.net.now();
    loop {
        if let Some(o) = world.net.node(who).outcome_of(run) {
            return Some(o.clone());
        }
        if world.net.now() - t0 > budget || !world.net.step() {
            return world.net.node(who).outcome_of(run).cloned();
        }
    }
}

#[test]
fn incomplete_responses_yield_certified_abort_at_every_member() {
    let mut world = build(3, 300, 500);
    setup_counter(&mut world);
    // org2 goes silent forever (but the TTP stays reachable).
    let t0 = world.net.now();
    let counts = |world: &TtpWorld, who: usize| {
        let metrics = world.net.node(&org(who)).telemetry().metrics().snapshot();
        let latencies = metrics
            .histogram(names::ROUND_LATENCY_MS)
            .map_or(0, |h| h.count);
        (metrics.counter(names::ROUNDS_ABORTED), latencies)
    };
    let before = [counts(&world, 0), counts(&world, 1)];
    world
        .net
        .partition([org(2)], vec![org(0), org(1)], TimeMs(u64::MAX));
    let oid = ObjectId::new("c");
    let run = world.net.invoke(&org(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(5), ctx).unwrap()
    });
    // The proposer aborts via the TTP…
    let outcome = drive_until_outcome(&mut world, &org(0), &run, TimeMs(30_000));
    assert_eq!(
        outcome,
        Some(Outcome::Aborted {
            reason: "TTP-certified abort".into()
        })
    );
    // …and so does the *recipient* org1, which would have stayed blocked
    // under the base protocol ("all honest parties terminate").
    let outcome1 = drive_until_outcome(&mut world, &org(1), &run, TimeMs(30_000));
    assert_eq!(
        outcome1,
        Some(Outcome::Aborted {
            reason: "TTP-certified abort".into()
        })
    );
    assert!(!world.net.node(&org(1)).is_busy(&ObjectId::new("c")));
    assert_eq!(
        dec(&world
            .net
            .node(&org(1))
            .agreed_state(&ObjectId::new("c"))
            .unwrap()),
        0
    );
    // The round the TTP ended is counted like any other: one abort and one
    // latency observation at each member that took part.
    for (who, (aborted, latencies)) in before.into_iter().enumerate() {
        assert_eq!(
            counts(&world, who),
            (aborted + 1, latencies + 1),
            "org{who}: (rounds_aborted, round_latency_ms count)"
        );
    }
    let _ = t0;
}

#[test]
fn complete_responses_yield_certified_decision() {
    // The decide (m3) is suppressed by the intruder, but the proposer
    // holds the full response set: the TTP certifies the decision and all
    // members install.
    let mut world = build(3, 301, 500);
    setup_counter(&mut world);
    world.net.set_intruder(FnIntruder::new(
        |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| {
            // Drop every decide frame.
            if let Some(WireMsg::Decide(_)) = data_body(raw).and_then(WireMsg::from_bytes) {
                return InterceptAction::Drop;
            }
            InterceptAction::Deliver
        },
    ));
    let oid = ObjectId::new("c");
    let run = world.net.invoke(&org(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(7), ctx).unwrap()
    });
    // Proposer finalises locally when responses arrive (it installed), but
    // the recipients never see m3 — the deadline appeal covers them.
    for who in 0..3 {
        let outcome = drive_until_outcome(&mut world, &org(who), &run, TimeMs(60_000));
        assert!(
            outcome.map(|o| o.is_installed()).unwrap_or(false),
            "org{who} must install via the certified decision"
        );
        assert_eq!(
            dec(&world
                .net
                .node(&org(who))
                .agreed_state(&ObjectId::new("c"))
                .unwrap()),
            7
        );
    }
}

#[test]
fn a_decide_stripped_in_flight_is_certified_valid_at_its_victim() {
    // The network strips org2's response from every decide to org1. With a
    // TTP the proposer never sends a partial set, so org1 refuses it and
    // stays busy rather than aborting; at its deadline it appeals, and the
    // TTP certifies the proposer's complete set. Every member installs.
    let mut world = build(3, 302, 500);
    setup_counter(&mut world);
    world.net.set_intruder(FnIntruder::new(
        |_f: &PartyId, to: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::Decide(mut m)) if to.as_str() == "org1" => {
                m.responses
                    .retain(|r| r.response.responder.as_str() == "org1");
                InterceptAction::Replace(replace_body(raw, &WireMsg::Decide(m)))
            }
            _ => InterceptAction::Deliver,
        },
    ));
    let oid = ObjectId::new("c");
    let run = world.net.invoke(&org(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(8), ctx).unwrap()
    });
    for who in 0..3 {
        let outcome = drive_until_outcome(&mut world, &org(who), &run, TimeMs(60_000));
        assert!(
            outcome.as_ref().is_some_and(Outcome::is_installed),
            "org{who} must install, got {outcome:?}"
        );
    }
    world.net.run_until_quiet(TimeMs(600_000));
    for who in 0..3 {
        let node = world.net.node(&org(who));
        assert!(!node.is_busy(&ObjectId::new("c")), "org{who} idle");
        assert_eq!(dec(&node.agreed_state(&ObjectId::new("c")).unwrap()), 8);
    }
}

#[test]
fn appeal_with_a_duplicated_responder_is_certified_abort() {
    // Two copies of org1's response are as many responses as the group
    // owes, but one responder short: the TTP must count responders.
    let mut world = build(3, 303, 500);
    setup_counter(&mut world);
    let outcome = appeal_with_padded_responses(&mut world, |responses| {
        let copy = responses[0].clone();
        responses.push(copy);
    });
    assert_eq!(
        outcome,
        Some(Outcome::Aborted {
            reason: "TTP-certified abort".into()
        })
    );
    assert_eq!(
        dec(&world
            .net
            .node(&org(0))
            .agreed_state(&ObjectId::new("c"))
            .unwrap()),
        0
    );
}

#[test]
fn appeal_with_a_response_from_another_run_is_certified_abort() {
    // org2's accepting response to an earlier run fills its slot in the
    // appeal: signed and from the right party, but about another run.
    let mut world = build(3, 304, 500);
    setup_counter(&mut world);
    let recorded = Arc::new(Mutex::new(None));
    let rec = recorded.clone();
    world.net.set_intruder(FnIntruder::new(
        move |from: &PartyId, _t: &PartyId, raw: &[u8], _n| {
            if let Some(WireMsg::Respond(m)) = peek(raw) {
                if from.as_str() == "org2" {
                    rec.lock().unwrap().get_or_insert(m);
                }
            }
            InterceptAction::Deliver
        },
    ));
    let oid = ObjectId::new("c");
    let earlier = world.net.invoke(&org(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(1), ctx).unwrap()
    });
    let installed = drive_until_outcome(&mut world, &org(0), &earlier, TimeMs(30_000));
    assert!(installed.is_some_and(|o| o.is_installed()));
    world.net.run_until_quiet(TimeMs(600_000));
    let stale = recorded.lock().unwrap().clone().expect("org2 responded");
    let outcome = appeal_with_padded_responses(&mut world, move |responses| {
        responses.push(stale.clone());
    });
    assert_eq!(
        outcome,
        Some(Outcome::Aborted {
            reason: "TTP-certified abort".into()
        })
    );
    assert_eq!(
        dec(&world
            .net
            .node(&org(0))
            .agreed_state(&ObjectId::new("c"))
            .unwrap()),
        1
    );
}

#[test]
fn resolution_from_anyone_but_the_appointed_ttp_is_rejected() {
    use b2b_core::messages::{responses_digest, TtpResolution, TtpResolutionMsg, TtpVerdict};
    use b2b_crypto::CanonicalEncode;
    // org2 forges a "certified abort" signed with its own key and delivers
    // it to org0, whose run is blocked on the partitioned org1.
    let mut world = build(3, 302, 100_000);
    setup_counter(&mut world);
    let oid = ObjectId::new("c");
    world
        .net
        .partition([org(1)], vec![org(0), org(2)], TimeMs(u64::MAX));
    let run = world.net.invoke(&org(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(3), ctx).unwrap()
    });
    world.net.run_until(world.net.now() + TimeMs(1_000));
    assert!(world.net.node(&org(0)).outcome_of(&run).is_none());

    let forged = TtpResolution {
        object: ObjectId::new("c"),
        run,
        verdict: TtpVerdict::CertifiedAbort,
        responses_digest: responses_digest(&[]),
    };
    let kp2 = KeyPair::generate_from_seed(102); // org2's key
    let sig = kp2.sign(&forged.canonical_bytes());
    let msg = TtpResolutionMsg {
        resolution: forged,
        responses: vec![],
        sig,
    };
    // Frame it manually (fresh reliable-layer epoch) and send from org2.
    let frame = data_frame(0, 0xbeef_u64, 0, &WireMsg::TtpResolution(msg).to_bytes());
    world.net.invoke(&org(2), move |_c, ctx| {
        ctx.send(PartyId::new("org0"), frame);
    });
    world.net.run_until(world.net.now() + TimeMs(2_000));
    // The forged resolution did not count: the run is still blocked and a
    // bad-signature detection was recorded.
    assert!(world.net.node(&org(0)).outcome_of(&run).is_none());
    assert!(world.net.node(&org(0)).is_busy(&ObjectId::new("c")));
    assert!(world
        .net
        .node(&org(0))
        .detected()
        .iter()
        .any(|m| m.tag() == "bad-signature"));
}

#[test]
fn certified_abort_resolves_two_link_delays_after_the_deadline() {
    // E9: with one of five parties silent, the proposer appeals at its
    // deadline and the notary's certified abort comes back one round trip
    // later.
    for deadline in [500u64, 2_000] {
        let mut world = build(5, 9, deadline);
        setup_counter(&mut world);
        let t0 = world.net.now();
        let others: Vec<_> = (0..4).map(org).collect();
        world.net.partition([org(4)], others, TimeMs(u64::MAX));
        let oid = ObjectId::new("c");
        let run = world.net.invoke(&org(0), move |c, ctx| {
            c.propose_overwrite(&oid, enc(5), ctx).unwrap()
        });
        while world.net.node(&org(0)).outcome_of(&run).is_none() {
            assert!(world.net.step(), "simulator ran dry before resolution");
        }
        assert_eq!(world.net.now() - t0, TimeMs(deadline + 2), "{deadline} ms");
        assert_eq!(
            world.net.node(&org(0)).outcome_of(&run),
            Some(&Outcome::Aborted {
                reason: "TTP-certified abort".into()
            })
        );
    }
}

/// Drops every `Propose` of a membership round addressed to `silent`: that
/// member never answers the connect or eviction. The returned cell names
/// the dropped round.
fn silence_on_membership(world: &mut TtpWorld, silent: PartyId) -> Arc<Mutex<Option<RunId>>> {
    let dropped = Arc::new(Mutex::new(None));
    let cell = dropped.clone();
    world.net.set_intruder(FnIntruder::new(
        move |_from: &PartyId, to: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::Propose(m)) if *to == silent && m.proposal.kind.is_membership() => {
                *cell.lock().unwrap() = Some(m.run_id());
                InterceptAction::Drop
            }
            _ => InterceptAction::Deliver,
        },
    ));
    dropped
}

/// Whether `who` has an outcome for the dropped round.
fn ended_at(world: &TtpWorld, dropped: &Mutex<Option<RunId>>, who: usize) -> bool {
    let run = *dropped.lock().unwrap();
    run.is_some_and(|run| world.net.node(&org(who)).outcome_of(&run).is_some())
}

/// Each org in `who` ended the dropped round by the TTP's certified abort.
fn certified_abort_at(world: &TtpWorld, dropped: &Mutex<Option<RunId>>, who: &[usize]) {
    let run = dropped.lock().unwrap().expect("the round was proposed");
    for &m in who {
        assert_eq!(
            world.net.node(&org(m)).outcome_of(&run),
            Some(&Outcome::Aborted {
                reason: "TTP-certified abort".into()
            }),
            "org{m}"
        );
    }
}

/// Steps the simulator until `done` holds, within `budget` of virtual time.
fn step_until(world: &mut TtpWorld, budget: TimeMs, done: impl Fn(&TtpWorld) -> bool) -> bool {
    let t0 = world.net.now();
    while !done(world) {
        if world.net.now() - t0 > budget || !world.net.step() {
            return done(world);
        }
    }
    true
}

/// An overwrite from `who` after a membership round ended must install at
/// every org in `members`.
fn next_update_installs(world: &mut TtpWorld, who: usize, members: &[usize], value: u64) {
    let oid = ObjectId::new("c");
    let run = world
        .net
        .invoke(&org(who), move |c, ctx| {
            c.propose_overwrite(&oid, enc(value), ctx)
        })
        .expect("the object is idle again");
    for &m in members {
        let outcome = drive_until_outcome(world, &org(m), &run, TimeMs(30_000));
        assert!(
            outcome.as_ref().is_some_and(Outcome::is_installed),
            "org{m}: the next update must install, got {outcome:?}"
        );
        let state = world.net.node(&org(m)).agreed_state(&ObjectId::new("c"));
        assert_eq!(state.map(|s| dec(&s)), Some(value), "org{m}");
    }
}

#[test]
fn silent_member_on_a_connect_is_certified_abort_and_the_subject_is_rejected() {
    // org0..org2 share the counter; org2, the newest, sponsors org3's
    // admission. org1 never receives the connect's proposal. The sponsor's
    // deadline appeals to the TTP, whose certified abort ends the run at
    // every member that took part, and the subject hears a rejection.
    let deadline = 500;
    let mut world = build(4, 310, deadline);
    setup_group(&mut world, 3);
    let dropped = silence_on_membership(&mut world, org(1));
    let oid = ObjectId::new("c");
    let t0 = world.net.now();
    world.net.invoke(&org(3), move |c, ctx| {
        c.request_connect(oid, Box::new(counter_factory), org(2), ctx)
            .unwrap()
    });
    let resolved = step_until(&mut world, TimeMs(30_000), |w| ended_at(w, &dropped, 2));
    assert!(resolved, "the sponsor must not stay busy for ever");
    // One link delay for the request, then the E9 figure: the deadline
    // plus the appeal's round trip to the TTP.
    assert_eq!(world.net.now() - t0, TimeMs(1 + deadline + 2));
    let rejected = step_until(&mut world, TimeMs(30_000), |w| {
        w.net.node(&org(3)).connect_status(&ObjectId::new("c")) == Some(&ConnectStatus::Rejected)
    });
    assert!(rejected, "the subject must get a ConnectReject");
    world.net.run_until_quiet(TimeMs(600_000));
    for m in 0..3 {
        let node = world.net.node(&org(m));
        assert_eq!(node.members(&ObjectId::new("c")).map(|v| v.len()), Some(3));
        assert!(!node.is_busy(&ObjectId::new("c")), "org{m} idle");
    }
    certified_abort_at(&world, &dropped, &[0, 2]);
    next_update_installs(&mut world, 2, &[0, 1, 2], 11);
}

#[test]
fn silent_member_on_an_eviction_is_certified_abort() {
    // org3, the sponsor of a four-party group, evicts org0; org1 and org2
    // are polled, and org1 never receives the proposal.
    let deadline = 500;
    let mut world = build(4, 311, deadline);
    setup_group(&mut world, 4);
    let dropped = silence_on_membership(&mut world, org(1));
    let t0 = world.net.now();
    world.net.invoke(&org(3), move |c, ctx| {
        c.request_evict(&ObjectId::new("c"), vec![org(0)], ctx)
            .unwrap()
    });
    let resolved = step_until(&mut world, TimeMs(30_000), |w| ended_at(w, &dropped, 3));
    assert!(resolved, "the sponsor must not stay busy for ever");
    assert_eq!(world.net.now() - t0, TimeMs(deadline + 2));
    world.net.run_until_quiet(TimeMs(600_000));
    for m in 0..4 {
        let node = world.net.node(&org(m));
        assert_eq!(node.members(&ObjectId::new("c")).map(|v| v.len()), Some(4));
        assert!(!node.is_busy(&ObjectId::new("c")), "org{m} idle");
    }
    certified_abort_at(&world, &dropped, &[2, 3]);
    next_update_installs(&mut world, 3, &[0, 1, 2, 3], 12);
}

#[test]
fn an_eviction_whose_decide_is_lost_is_certified_valid_at_every_polled_member() {
    // Every polled member answers and the sponsor installs the new group,
    // but no decide arrives. The polled members appeal at their deadlines;
    // the TTP pulls the sponsor's complete set — the evictee owes no
    // response — and certifies the eviction, so no replica diverges.
    let mut world = build(4, 312, 500);
    setup_group(&mut world, 4);
    world.net.set_intruder(FnIntruder::new(
        |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::Decide(_)) => InterceptAction::Drop,
            _ => InterceptAction::Deliver,
        },
    ));
    world.net.invoke(&org(3), move |c, ctx| {
        c.request_evict(&ObjectId::new("c"), vec![org(0)], ctx)
            .unwrap()
    });
    let settled = step_until(&mut world, TimeMs(30_000), |w| {
        (1..4).all(|m| {
            w.net
                .node(&org(m))
                .members(&ObjectId::new("c"))
                .map(|v| v.len())
                == Some(3)
        })
    });
    assert!(settled, "every remaining member installs the eviction");
    world.net.run_until_quiet(TimeMs(600_000));
    let group = world.net.node(&org(3)).group(&ObjectId::new("c"));
    for m in 1..4 {
        let node = world.net.node(&org(m));
        assert_eq!(node.group(&ObjectId::new("c")), group, "org{m}");
        assert!(!node.is_busy(&ObjectId::new("c")), "org{m} idle");
    }
    next_update_installs(&mut world, 3, &[1, 2, 3], 13);
}
