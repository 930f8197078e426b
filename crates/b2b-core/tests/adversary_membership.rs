//! Adversarial tests of the connection/disconnection protocols: the §4.4
//! analysis applied to §4.5 — tampered welcomes, illegitimate sponsors,
//! and replayed membership proposals are all detected, and no honest party
//! ever installs inconsistent membership or state.

mod common;

use b2b_core::messages::WireMsg;
use b2b_core::{ConnectStatus, Misbehaviour, ObjectId};
use b2b_crypto::{PartyId, Signature, TimeMs};
use b2b_net::intruder::{FnIntruder, Injection, InterceptAction, Intruder};
use b2b_net::reliable::{data_body, data_frame, reframe, with_body};
use common::*;

fn peek(raw: &[u8]) -> Option<WireMsg> {
    WireMsg::from_bytes(data_body(raw)?)
}

fn replace_body(raw: &[u8], msg: &WireMsg) -> Vec<u8> {
    with_body(raw, &msg.to_bytes()).expect("a data frame")
}

fn has_detection(cluster: &Cluster, who: usize, tag: &str) -> bool {
    cluster
        .net
        .node(&party(who))
        .detected()
        .iter()
        .any(|m| m.tag() == tag)
}

/// Builds the three-member group `c` (org0, org1, then org2, its sponsor)
/// and runs org3's admission under `intruder`. org0 and org1 are polled,
/// so each receives the member decide; org3 receives the welcome.
fn admit_org3_under(seed: u64, intruder: impl Intruder + 'static) -> Cluster {
    let mut cluster = Cluster::new(4, seed);
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    for i in 1..3 {
        let sponsor = party(i - 1);
        cluster.net.invoke(&party(i), move |c, ctx| {
            c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                .unwrap();
        });
        cluster.run();
    }
    cluster.net.set_intruder(intruder);
    let sponsor = party(2);
    cluster.net.invoke(&party(3), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    cluster.run();
    cluster
}

/// Rewrites the member decide sent to `victim` with `tamper`; every other
/// frame is delivered as sent.
fn tamper_member_decide_to(
    victim: &'static str,
    tamper: fn(&mut b2b_core::messages::DecideMsg),
) -> impl Intruder {
    FnIntruder::new(
        move |_f: &PartyId, to: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::Decide(mut m)) if to.as_str() == victim => {
                tamper(&mut m);
                InterceptAction::Replace(replace_body(raw, &WireMsg::Decide(m)))
            }
            _ => InterceptAction::Deliver,
        },
    )
}

/// `who` still holds the three-member group and the membership run is
/// still open there: nothing was installed on the tampered decide.
fn assert_not_installed(cluster: &Cluster, who: usize) {
    assert_eq!(
        cluster.members(who, "c"),
        vec![party(0), party(1), party(2)]
    );
    assert!(cluster.net.node(&party(who)).is_busy(&ObjectId::new("c")));
}

#[test]
fn forged_authenticator_in_member_decide_is_detected() {
    let cluster = admit_org3_under(
        706,
        FnIntruder::new(
            |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| match peek(raw) {
                Some(WireMsg::Decide(mut m)) => {
                    m.authenticator = [0xAB; 32];
                    InterceptAction::Replace(replace_body(raw, &WireMsg::Decide(m)))
                }
                _ => InterceptAction::Deliver,
            },
        ),
    );
    // The sponsor installed and welcomed org3; the polled members refuse
    // the forged decide and keep the old group.
    assert_eq!(cluster.members(2, "c").len(), 4);
    assert!(cluster.net.node(&party(3)).is_member(&ObjectId::new("c")));
    for who in 0..2 {
        assert_not_installed(&cluster, who);
        assert!(has_detection(&cluster, who, "authenticator-mismatch"));
    }
    assert_golden(
        &cluster,
        "c",
        "b032c35d99895dcec5b76f352645bc09eba2827627e9839b8e3ebccf4d393950",
    );
    assert_shape(
        &cluster,
        "c",
        "140a3b89c242261e79690620e342718a2e128c87e3d5429d8f0dbe0184de56ba",
    );
}

#[test]
fn response_removed_from_member_decide_aggregation_is_detected() {
    let cluster = admit_org3_under(
        707,
        tamper_member_decide_to("org1", |m| {
            m.responses
                .retain(|r| r.response.responder.as_str() == "org1");
        }),
    );
    assert_eq!(cluster.members(0, "c").len(), 4);
    assert_not_installed(&cluster, 1);
    assert!(has_detection(&cluster, 1, "inconsistent-decide"));
    assert_golden(
        &cluster,
        "c",
        "5a8af4065cd9ff033cf641ac4a6ae557b9ba52aedd814510d3bf13d115b22206",
    );
    assert_shape(
        &cluster,
        "c",
        "d8ccbfb8e0cbe8295920dfece5aaec227ffe3f64f44c5fc4f762ebc534ff5525",
    );
}

#[test]
fn own_response_swapped_in_member_decide_is_detected() {
    // org0's validly signed response fills org1's slot too.
    let cluster = admit_org3_under(
        708,
        tamper_member_decide_to("org1", |m| {
            let donor = m
                .responses
                .iter()
                .find(|r| r.response.responder.as_str() == "org0")
                .cloned()
                .expect("org0 was polled");
            m.responses = vec![donor.clone(), donor];
        }),
    );
    assert_eq!(cluster.members(0, "c").len(), 4);
    assert_not_installed(&cluster, 1);
    assert!(has_detection(&cluster, 1, "inconsistent-decide"));
    assert_golden(
        &cluster,
        "c",
        "b852ebaeaf92e5863d4fd2da83e026ecaea0e41d06aa5c552d171860a5ef109a",
    );
    assert_shape(
        &cluster,
        "c",
        "3551f91e0e9ffafbb6c18728fbd74948be7df5d3539a55f817dd9d6995f0f562",
    );
}

#[test]
fn flipped_signature_byte_in_member_decide_names_its_signer() {
    let cluster = admit_org3_under(
        709,
        tamper_member_decide_to("org1", |m| {
            for r in &mut m.responses {
                if r.response.responder.as_str() == "org0" {
                    let mut bytes = r.sig.as_bytes().to_vec();
                    bytes[0] ^= 0x01;
                    r.sig = Signature::new(r.sig.scheme(), bytes);
                }
            }
        }),
    );
    assert_eq!(cluster.members(0, "c").len(), 4);
    assert_not_installed(&cluster, 1);
    assert!(cluster
        .net
        .node(&party(1))
        .detected()
        .iter()
        .any(|m| matches!(m, Misbehaviour::BadSignature { claimed, .. } if *claimed == party(0))));
    assert_golden(
        &cluster,
        "c",
        "2b2a3531701b28b62ec762798564e5dfe2cd9676284e73f20275c3297cf738bd",
    );
    assert_shape(
        &cluster,
        "c",
        "07e5dc57ac5176578a0c30955cc51e09e9f813cb0d3b1161bd72f885b3d1c2b7",
    );
}

#[test]
fn welcome_missing_a_prior_members_response_is_rejected() {
    // The welcome's signature covers the welcome, not the aggregated
    // responses beside it: dropping org0's response leaves the sponsor's
    // signature intact, and the subject must notice the gap itself.
    let cluster = admit_org3_under(
        710,
        FnIntruder::new(
            |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| match peek(raw) {
                Some(WireMsg::Welcome(mut w)) => {
                    w.decide
                        .responses
                        .retain(|r| r.response.responder.as_str() != "org0");
                    InterceptAction::Replace(replace_body(raw, &WireMsg::Welcome(w)))
                }
                _ => InterceptAction::Deliver,
            },
        ),
    );
    // The group admitted org3, but org3 itself refuses the welcome.
    assert_eq!(cluster.members(0, "c").len(), 4);
    assert!(!cluster.net.node(&party(3)).is_member(&ObjectId::new("c")));
    assert_eq!(
        cluster
            .net
            .node(&party(3))
            .connect_status(&ObjectId::new("c")),
        Some(&ConnectStatus::Pending)
    );
    assert!(has_detection(&cluster, 3, "inconsistent-decide"));
    assert_golden(
        &cluster,
        "c",
        "773cd517b7a5e96ab911015a561422a967c3bd6feda5d7fbf21007cffb14547f",
    );
    assert_shape(
        &cluster,
        "c",
        "a2fa651e2634e055def7b45fe9f8d47340f2e36ce7476cb0e5c1bf097dcfec7e",
    );
}

#[test]
fn tampered_welcome_state_is_rejected_by_the_subject() {
    // The intruder swaps the agreed state bytes inside the welcome; the
    // subject detects the hash mismatch against the signed agreed tuple
    // and refuses to install.
    let mut cluster = Cluster::new(2, 700);
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    cluster.net.set_intruder(FnIntruder::new(
        |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::Welcome(mut w)) => {
                w.state = enc(999_999); // forged state
                InterceptAction::Replace(replace_body(raw, &WireMsg::Welcome(w)))
            }
            _ => InterceptAction::Deliver,
        },
    ));
    let sponsor = party(0);
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    cluster.run();
    // The subject never installs the forged state: it stays pending with
    // evidence of the inconsistency.
    assert_eq!(
        cluster
            .net
            .node(&party(1))
            .connect_status(&ObjectId::new("c")),
        Some(&ConnectStatus::Pending)
    );
    assert!(!cluster.net.node(&party(1)).is_member(&ObjectId::new("c")));
    assert!(has_detection(&cluster, 1, "inconsistent-decide"));
    assert_golden(
        &cluster,
        "c",
        "fef5467d7fa3f876caaf46f1e2bf38e2f3ab0c4ffb4e96371e3957d1145cc82c",
    );
    assert_shape(
        &cluster,
        "c",
        "50055ff14cf0dc1aeb27afe801ceea457c02b04fa4816335b12ba83d8bb716ff",
    );
}

#[test]
fn tampered_welcome_member_list_is_rejected() {
    // Smuggling an extra member into the welcome's member list breaks the
    // group identifier check (or the signature, if gid is also patched —
    // the intruder cannot re-sign).
    let mut cluster = Cluster::new(2, 701);
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    cluster.net.set_intruder(FnIntruder::new(
        |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::Welcome(mut w)) => {
                w.welcome.members.insert(0, PartyId::new("mallory"));
                InterceptAction::Replace(replace_body(raw, &WireMsg::Welcome(w)))
            }
            _ => InterceptAction::Deliver,
        },
    ));
    let sponsor = party(0);
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    cluster.run();
    assert!(!cluster.net.node(&party(1)).is_member(&ObjectId::new("c")));
    // Tampering the signed part breaks the sponsor's signature.
    assert!(has_detection(&cluster, 1, "bad-signature"));
    assert_golden(
        &cluster,
        "c",
        "669e4059144aa6d3d390e88ecac4f2c3a80e8b150d793021d6eecc5cd601c407",
    );
    assert_shape(
        &cluster,
        "c",
        "a95aac9c056ac2bc10135806585320db0944e8e86965eac194d02b7c6989034e",
    );
}

#[test]
fn illegitimate_sponsor_proposal_is_vetoed() {
    // org0 (not the sponsor — org2 is) forges a connection proposal for a
    // fourth party. Members detect the illegitimate sponsor.
    let mut cluster = Cluster::new(4, 702);
    // Build a 3-member group (org0, org1, org2; sponsor = org2).
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    for i in 1..3 {
        let sponsor = party(i - 1);
        cluster.net.invoke(&party(i), move |c, ctx| {
            c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                .unwrap();
        });
        cluster.run();
    }
    // org3 asks org0 — which is NOT the sponsor. Under the forwarding
    // rule org0 relays to org2; but here the intruder rewrites the relay
    // so it looks like org0 itself sponsors the admission.
    cluster.net.set_intruder(FnIntruder::new(
        |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::Propose(mut m)) => {
                // Claim org0 as sponsor: breaks either legitimacy (if the
                // group really has org2 as sponsor) or the signature.
                m.proposal.proposer = PartyId::new("org0");
                InterceptAction::Replace(replace_body(raw, &WireMsg::Propose(m)))
            }
            _ => InterceptAction::Deliver,
        },
    ));
    let sponsor = party(2);
    cluster.net.invoke(&party(3), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    cluster.run();
    // No admission happened; the tampering was detected (as a bad
    // signature, since the sponsor field is inside the signed part).
    assert_eq!(cluster.members(0, "c").len(), 3);
    assert!(
        has_detection(&cluster, 0, "bad-signature") || has_detection(&cluster, 1, "bad-signature")
    );
    assert_golden(
        &cluster,
        "c",
        "c4bf942669929d7dea15aae7188be6a3bd3c4b490ed4a1a02cbf5e408503a86e",
    );
    assert_shape(
        &cluster,
        "c",
        "562142d7a1aa7a73388b735b773c5bd1a966cf9c8f9f142ab920681f10b57b81",
    );
}

#[test]
fn replayed_connect_proposal_is_detected() {
    use std::sync::{Arc, Mutex};
    // Record the connect-propose of org2's admission, then replay it to a
    // member after the group has moved on.
    let recorded: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let rec = recorded.clone();
    let mut cluster = Cluster::new(3, 703);
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    let sponsor = party(0);
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    cluster.run();
    cluster.net.set_intruder(FnIntruder::new(
        move |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| {
            if let Some(WireMsg::Propose(_)) = peek(raw) {
                rec.lock().unwrap().get_or_insert_with(|| raw.to_vec());
            }
            InterceptAction::Deliver
        },
    ));
    let sponsor = party(1);
    cluster.net.invoke(&party(2), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    cluster.run();
    assert_eq!(cluster.members(0, "c").len(), 3);

    // Replay the recorded proposal to org0 under a fresh transport epoch.
    let frame = recorded.lock().unwrap().clone().expect("recorded");
    // A wholesale replay keeps the recorded trace context and body.
    let replay = reframe(&frame, 0xfeed_beef_u64, 0).expect("a data frame");
    cluster.net.set_intruder(FnIntruder::new(
        move |_f: &PartyId, to: &PartyId, _raw: &[u8], _n| {
            if to.as_str() == "org0" {
                InterceptAction::Inject(vec![Injection {
                    from: PartyId::new("org1"),
                    to: to.clone(),
                    payload: replay.clone(),
                    after: TimeMs(1),
                }])
            } else {
                InterceptAction::Deliver
            }
        },
    ));
    // Trigger traffic toward org0 so the injection fires.
    let run = cluster.propose(1, "c", enc(5));
    cluster.run();
    assert!(cluster.outcome(1, &run).unwrap().is_installed());
    // The replay was flagged; membership unchanged.
    assert!(has_detection(&cluster, 0, "replayed-proposal"));
    assert_eq!(cluster.members(0, "c").len(), 3);
    assert_golden(
        &cluster,
        "c",
        "24796cdd5741bcc13a3eecc5b03017b3d51f95d053a0f873b03cae97f639050e",
    );
    assert_shape(
        &cluster,
        "c",
        "64ee10065b1875665ad8b361f7bbc5ef2ffcc4d35373b53cbd77b1c974dbbe35",
    );
}

#[test]
fn forged_disconnect_request_cannot_evict_anyone() {
    // The intruder fabricates a "voluntary disconnect" for org1 (who never
    // asked). The signature cannot verify; nothing changes.
    let mut cluster = Cluster::new(3, 704);
    cluster.setup_object("c", counter_factory);
    use b2b_core::messages::{DisconnectRequest, DisconnectRequestMsg};
    use b2b_crypto::{sha256, CanonicalEncode, KeyPair, Signer};
    let request = DisconnectRequest {
        object: ObjectId::new("c"),
        proposer: party(1),
        subjects: vec![party(1)],
        eviction: false,
        nonce_hash: sha256(b"forged"),
    };
    // Signed with the WRONG key (an outsider's).
    let outsider = KeyPair::generate_from_seed(31337);
    let sig = outsider.sign(&request.canonical_bytes());
    let msg = WireMsg::DisconnectRequest(DisconnectRequestMsg { request, sig });
    let frame = data_frame(0, 0xabcd_u64, 0, &msg.to_bytes());
    // Deliver to the disconnect sponsor (org2).
    cluster.net.invoke(&party(0), move |_c, ctx| {
        ctx.send(party(2), frame);
    });
    cluster.run();
    assert_eq!(cluster.members(0, "c").len(), 3);
    assert!(cluster.net.node(&party(1)).is_member(&ObjectId::new("c")));
    assert!(has_detection(&cluster, 2, "bad-signature"));
    assert_golden(
        &cluster,
        "c",
        "c336f772ec18e5ea7610e3fe70b3d993edf0147ddbe4137d45a78e76eae425b8",
    );
    assert_shape(
        &cluster,
        "c",
        "b193b716fc3bfa5ded3f37100f60fe8102cb02446b2183b91d0ab06da25b5cc4",
    );
}

#[test]
fn detached_leaver_refuses_its_former_sponsors_proposal() {
    use b2b_evidence::{EvidenceKind, EvidenceStore};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    // org1 leaves a three-party group and detaches, holding the post-leave
    // group {org0, org2}. When org2 then sponsors org3's admission, the
    // intruder hands org1 a copy of the genuine proposal. It passes every
    // consistency check against org1's last view, but org1 is no longer a
    // member: it must refuse, not sign a response for a group it left.
    let mut cluster = Cluster::new(4, 705);
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    for i in 1..3 {
        let sponsor = party(i - 1);
        cluster.net.invoke(&party(i), move |c, ctx| {
            c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                .unwrap();
        });
        cluster.run();
    }
    cluster.net.invoke(&party(1), |c, ctx| {
        c.request_disconnect(&ObjectId::new("c"), ctx).unwrap();
    });
    cluster.run();
    assert!(!cluster.net.node(&party(1)).is_member(&ObjectId::new("c")));
    assert_eq!(cluster.members(1, "c"), vec![party(0), party(2)]);

    let logged_before = cluster.stores[&party(1)].records().len();

    let copied = Arc::new(AtomicBool::new(false));
    let once = copied.clone();
    cluster.net.set_intruder(FnIntruder::new(
        move |from: &PartyId, to: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::Propose(_))
                if from.as_str() == "org2"
                    && to.as_str() == "org0"
                    && !once.swap(true, Ordering::SeqCst) =>
            {
                let payload = reframe(raw, 0x1eaf, 0).expect("data frame");
                InterceptAction::Inject(vec![Injection {
                    from: party(2),
                    to: party(1),
                    payload,
                    after: TimeMs(1),
                }])
            }
            _ => InterceptAction::Deliver,
        },
    ));
    let sponsor = party(2);
    cluster.net.invoke(&party(3), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    cluster.run();
    assert!(copied.load(Ordering::SeqCst), "the proposal was copied");

    // The admission itself is unaffected.
    assert_eq!(cluster.members(0, "c"), vec![party(0), party(2), party(3)]);
    // The leaver signed nothing and tracks no run: its only new record is
    // the refusal.
    let node = cluster.net.node(&party(1));
    assert!(!node.is_busy(&ObjectId::new("c")), "no parked member run");
    let logged: Vec<EvidenceKind> = cluster.stores[&party(1)].records()[logged_before..]
        .iter()
        .map(|r| r.kind)
        .collect();
    assert_eq!(logged, vec![EvidenceKind::Misbehaviour]);
    assert!(has_detection(&cluster, 1, "unexpected-message"));
    // The sponsor heard nothing from the leaver.
    assert!(!has_detection(&cluster, 2, "unexpected-message"));
}

#[test]
fn non_sponsor_connect_proposal_is_vetoed_without_holding_the_member() {
    use b2b_core::messages::{
        ConnectRequest, ConnectRequestMsg, Proposal, ProposalKind, ProposeMsg,
    };
    use b2b_core::{members_digest, GroupId};
    use b2b_crypto::{sha256, CanonicalEncode, KeyPair, Signer};
    // org0 is a member but not the sponsor (org2 is). It signs a
    // connection proposal for org3 naming itself as sponsor, coherent in
    // every other respect, and sends it to org1. org1 must veto it, record
    // the illegitimate sponsor, and not hold the object for it: a
    // membership round has no deadline and no TTP, so a tracked bogus
    // proposal would lock org1 for good and veto the sponsor's next update
    // as a concurrent run.
    let mut cluster = Cluster::new(4, 711);
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    for i in 1..3 {
        let sponsor = party(i - 1);
        cluster.net.invoke(&party(i), move |c, ctx| {
            c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                .unwrap();
        });
        cluster.run();
    }
    let oid = ObjectId::new("c");
    let node = cluster.net.node(&party(0));
    let (group, agreed) = (node.group(&oid).unwrap(), node.agreed_id(&oid).unwrap());
    let request = ConnectRequest {
        object: oid.clone(),
        subject: party(3),
        nonce_hash: sha256(b"n"),
    };
    let request = ConnectRequestMsg {
        sig: KeyPair::generate_from_seed(1003).sign(&request.canonical_bytes()),
        request,
    };
    let proposal = Proposal {
        object: oid.clone(),
        proposer: party(0),
        group,
        prev: agreed,
        proposed: agreed,
        auth_commit: sha256(b"auth"),
        kind: ProposalKind::Connect {
            request_digest: request.request.canonical_digest(),
            subject: party(3),
            new_group: GroupId {
                seq: group.seq + 1,
                rand_hash: sha256(b"g"),
                members_hash: members_digest(&[party(0), party(1), party(2), party(3)]),
            },
        },
    };
    let msg = WireMsg::Propose(ProposeMsg {
        sig: KeyPair::generate_from_seed(1000).sign(&proposal.canonical_bytes()),
        proposal,
        body: request.canonical_bytes(),
        memo: Default::default(),
    });
    let frame = data_frame(0, 0x5eed_u64, 0, &msg.to_bytes());
    cluster
        .net
        .invoke(&party(0), move |_c, ctx| ctx.send(party(1), frame));
    cluster.run();

    assert!(has_detection(&cluster, 1, "illegitimate-sponsor"));
    assert!(
        !cluster.net.node(&party(1)).is_busy(&oid),
        "the vetoed proposal holds the member"
    );
    assert_eq!(cluster.members(1, "c"), vec![party(0), party(1), party(2)]);
    let run = cluster.propose(2, "c", enc(4));
    for who in 0..3 {
        let outcome = cluster.outcome(who, &run);
        assert!(
            outcome.as_ref().is_some_and(|o| o.is_installed()),
            "org{who}: {outcome:?}"
        );
    }
}
