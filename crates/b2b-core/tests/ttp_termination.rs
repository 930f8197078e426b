//! §7 TTP-certified termination: a deadline-blocked run is resolved by an
//! appointed trusted third party — certified abort when the response set
//! is incomplete, certified decision when it is complete — and the
//! resolution reaches *every* member.

mod common;

use b2b_core::messages::WireMsg;
use b2b_core::{Coordinator, CoordinatorConfig, ObjectId, Outcome};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs, TimeStampAuthority};
use b2b_evidence::MemStore;
use b2b_net::intruder::{FnIntruder, InterceptAction};
use b2b_net::reliable::{data_body, data_frame, with_body};
use b2b_net::SimNet;
use common::{counter_factory, dec, enc};
use std::sync::Arc;

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
    world.net.invoke(&org(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    for i in 1..world.parties.len() {
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
    run: &b2b_core::RunId,
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
    use std::sync::Mutex;
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
