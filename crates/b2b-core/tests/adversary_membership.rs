//! Adversarial tests of the connection/disconnection protocols: the §4.4
//! analysis applied to §4.5 — tampered answers and illegitimate sponsors
//! are detected, a replayed membership proposal changes nothing, and no
//! honest party ever installs inconsistent membership or state.

mod common;

use b2b_core::messages::{MemberVerdict, WireMsg};
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
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "d0d99c2d7997ebdf3b522d35c6cb9331a4f93c2875183e61fd24be3c7d12cdc1",
    );
    assert_shape(
        &cluster,
        "c",
        "b7824159119e008e3e8a825e0cb125de6717126efeaae10e29ed341d02945d90",
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
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "0a79f359df64fd02f31a54651b40e9511191ca600c18bc880a1080c97ad9057f",
    );
    assert_shape(
        &cluster,
        "c",
        "6d6fd816f2604aceb00ad6a5672a2b3926633792302b7d3a266f6bb266a98097",
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
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "0aaacb58d74b2446a0a0157611083069a5a1c948fc04744842e17f0444dedf0f",
    );
    assert_shape(
        &cluster,
        "c",
        "92b9b3c41c653b360c2f6e5807d77d1f13438ed37eeaa5ca1b31532bdf476dd3",
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
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "1b4c82848b1952be1ec8454ec8c2b55ecd0c522f69999c398f5f51112636bdcc",
    );
    assert_shape(
        &cluster,
        "c",
        "90f8cb538e57697d17a0268a2341de9985deff1605ddf05b0cc1a92ddc73e0e4",
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
                Some(WireMsg::MemberAnswer(mut w)) if w.decide.is_some() => {
                    if let Some(d) = &mut w.decide {
                        d.responses
                            .retain(|r| r.response.responder.as_str() != "org0");
                    }
                    InterceptAction::Replace(replace_body(raw, &WireMsg::MemberAnswer(w)))
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
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "3af4f82ba96f97f8967253bfa8a291573cdbd994fa52349d75e5016f8b63f712",
    );
    assert_shape(
        &cluster,
        "c",
        "7259680c10e5ab3f84343b58fd987f40cb8df4adb81d1b1e81642e6df3b1cd6c",
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
            Some(WireMsg::MemberAnswer(mut w)) if w.state.is_some() => {
                w.state = Some(enc(999_999)); // forged state
                InterceptAction::Replace(replace_body(raw, &WireMsg::MemberAnswer(w)))
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
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "69e16d164229a39ff6909f7145c96dae24f572ef4a4fa08bdaa7b6b54c5393a7",
    );
    assert_shape(
        &cluster,
        "c",
        "0fd61bef842eeea9bce861e7653d88b0c4b5581e3e2feb20f0ff981aafd37690",
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
            Some(WireMsg::MemberAnswer(mut w)) => {
                if let MemberVerdict::Accepted { members, .. } = &mut w.answer.verdict {
                    members.insert(0, PartyId::new("mallory"));
                }
                InterceptAction::Replace(replace_body(raw, &WireMsg::MemberAnswer(w)))
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
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "ccc1d57e907efc8be6fab9bb117be4e37f418894a82af66c36eca758fd3e1765",
    );
    assert_shape(
        &cluster,
        "c",
        "b474b15cf49c1148aa616a353bf76b6334ead4a96cb54bb8dcbc35dd6999bb66",
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
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "f3ed94a0e9a84a722a60f46c9bc2482f49429fcaf41f91ba6122709fd8d002a0",
    );
    assert_shape(
        &cluster,
        "c",
        "d4a009b9352990d8837f18d0967bd0ac90f6b0231b9bda8af4857ccfa9166809",
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
    // The replayed m1 belongs to a run org0 completed, so — as for a state
    // round — it is answered with org0's original signed response rather
    // than flagged: a replay and an honest redelivery after recovery are
    // indistinguishable. It cannot change the membership.
    assert_eq!(cluster.members(0, "c").len(), 3);
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "b2f0bd97afb89f5b4f423d31a3ffca2bd3fd338e774712112fcbbdc83de8bb4d",
    );
    assert_shape(
        &cluster,
        "c",
        "e0896be0ea59bcd99693215fb5d3bb45d10308ab20c56b6e250d7c9cc8de89be",
    );
}

#[test]
fn forged_disconnect_request_cannot_evict_anyone() {
    // The intruder fabricates a "voluntary disconnect" for org1 (who never
    // asked). The signature cannot verify; nothing changes.
    let mut cluster = Cluster::new(3, 704);
    cluster.setup_object("c", counter_factory);
    use b2b_core::messages::{MemberChange, MemberRequest, MemberRequestMsg};
    use b2b_crypto::{sha256, CanonicalEncode, KeyPair, Signer};
    let request = MemberRequest {
        object: ObjectId::new("c"),
        requester: party(1),
        change: MemberChange::Leave,
        nonce_hash: sha256(b"forged"),
    };
    // Signed with the WRONG key (an outsider's).
    let outsider = KeyPair::generate_from_seed(31337);
    let sig = outsider.sign(&request.canonical_bytes());
    let msg = WireMsg::MemberRequest(MemberRequestMsg { request, sig });
    let frame = data_frame(0, 0xabcd_u64, 0, &msg.to_bytes());
    // Deliver to the disconnect sponsor (org2).
    cluster.net.invoke(&party(0), move |_c, ctx| {
        ctx.send(party(2), frame);
    });
    cluster.run();
    assert_eq!(cluster.members(0, "c").len(), 3);
    assert!(cluster.net.node(&party(1)).is_member(&ObjectId::new("c")));
    assert!(has_detection(&cluster, 2, "bad-signature"));
    assert_history(&cluster, "c");
    assert_golden(
        &cluster,
        "c",
        "fc863a048be1d799a005bd349c7db7742f07d1e2b22ee51ff272f11662ac6bb5",
    );
    assert_shape(
        &cluster,
        "c",
        "492bce5589e4b88c790d85fa727fcdc1c2c887543df91a695a4246b481a87c64",
    );
}

#[test]
fn forged_rejection_cannot_cancel_a_join() {
    // While org1's join is pending, the intruder answers it first with a
    // rejection that names org0 as sponsor and the request's digest, but
    // is signed with an outsider's key. org1 refuses it, and the genuine
    // answer admits org1.
    use b2b_core::messages::{MemberAnswer, MemberAnswerMsg};
    use b2b_crypto::{CanonicalEncode, KeyPair, Signer};
    let mut cluster = Cluster::new(2, 712);
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    cluster.net.set_intruder(FnIntruder::new(
        |from: &PartyId, to: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::MemberRequest(m)) => {
                let answer = MemberAnswer {
                    object: m.request.object.clone(),
                    sponsor: to.clone(),
                    request_digest: m.request.canonical_digest(),
                    verdict: MemberVerdict::Rejected,
                };
                let outsider = KeyPair::generate_from_seed(31337);
                let forged = WireMsg::MemberAnswer(MemberAnswerMsg {
                    sig: outsider.sign(&answer.canonical_bytes()),
                    answer,
                    decide: None,
                    state: None,
                });
                InterceptAction::Inject(vec![Injection {
                    from: to.clone(),
                    to: from.clone(),
                    payload: data_frame(0, 0xf0f0, 0, &forged.to_bytes()),
                    after: TimeMs(0),
                }])
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
    assert!(has_detection(&cluster, 1, "bad-signature"));
    assert!(cluster.net.node(&party(1)).is_member(&ObjectId::new("c")));
    assert_eq!(cluster.members(0, "c"), vec![party(0), party(1)]);
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
        MemberChange, MemberRequest, MemberRequestMsg, Proposal, ProposalKind, ProposeMsg,
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
    let request = MemberRequest {
        object: oid.clone(),
        requester: party(3),
        change: MemberChange::Join,
        nonce_hash: sha256(b"n"),
    };
    let request = MemberRequestMsg {
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
        kind: ProposalKind::Member {
            request_digest: request.request.canonical_digest(),
            requester: party(3),
            change: MemberChange::Join,
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

#[test]
fn an_insider_s_proposal_that_polls_nobody_at_its_recipient_leaves_its_recovery_alone() {
    use b2b_core::messages::{
        MemberChange, MemberRequest, MemberRequestMsg, Proposal, ProposalKind, ProposeMsg,
    };
    use b2b_core::{members_digest, GroupId};
    use b2b_crypto::{sha256, CanonicalEncode, KeyPair, Signer};
    use b2b_evidence::{EvidenceKind, EvidenceStore};
    use b2b_net::NetNode;
    // org2, the sponsor, signs an eviction of every other member under a
    // group id that is not the group's, and sends it to org0. The eviction
    // polls nobody in org0's group: logged by org0 as a proposal of its
    // own history, it would install there and fault that history, and
    // org0 would never be restored. org0 records the misbehaviour alone,
    // and a crash later it comes back and takes part.
    let mut cluster = Cluster::new(3, 712);
    cluster.setup_object("c", counter_factory);
    let oid = ObjectId::new("c");
    let node = cluster.net.node(&party(0));
    let (group, agreed) = (node.group(&oid).unwrap(), node.agreed_id(&oid).unwrap());
    let change = MemberChange::Evict {
        subjects: vec![party(0), party(1)],
    };
    let request = MemberRequest {
        object: oid.clone(),
        requester: party(2),
        change: change.clone(),
        nonce_hash: sha256(b"n"),
    };
    let insider = KeyPair::generate_from_seed(1002);
    let request = MemberRequestMsg {
        sig: insider.sign(&request.canonical_bytes()),
        request,
    };
    let proposal = Proposal {
        object: oid.clone(),
        proposer: party(2),
        group: GroupId {
            seq: group.seq + 7,
            ..group
        },
        prev: agreed,
        proposed: agreed,
        auth_commit: sha256(b"auth"),
        kind: ProposalKind::Member {
            request_digest: request.request.canonical_digest(),
            requester: party(2),
            change,
            new_group: GroupId {
                seq: group.seq + 1,
                rand_hash: sha256(b"g"),
                members_hash: members_digest(&[party(2)]),
            },
        },
    };
    let msg = WireMsg::Propose(ProposeMsg {
        sig: insider.sign(&proposal.canonical_bytes()),
        proposal,
        body: request.canonical_bytes(),
        memo: Default::default(),
    });
    let frame = data_frame(0, 0x5eed_u64, 0, &msg.to_bytes());
    cluster
        .net
        .invoke(&party(2), move |_c, ctx| ctx.send(party(0), frame));
    cluster.run();
    assert!(has_detection(&cluster, 0, "unexpected-message"));
    let proposals = cluster.stores[&party(0)].records().into_iter();
    let logged = proposals.filter(|r| r.kind == EvidenceKind::StatePropose && r.origin == party(2));
    assert_eq!(logged.count(), 0, "org0 logged the eviction");

    cluster.net.invoke(&party(0), |c, ctx| {
        c.on_crash();
        c.on_recover(ctx);
    });
    cluster.run();
    let org0 = cluster.net.node(&party(0));
    assert!(org0.replica(&oid).is_some(), "org0 is not restored");
    let refused = |m: &Misbehaviour| format!("{m:?}").contains("refused");
    assert!(!org0.detected().iter().any(refused));
    assert_eq!(cluster.members(0, "c"), vec![party(0), party(1), party(2)]);
    assert_history(&cluster, "c");
    let run = cluster.propose(2, "c", enc(4));
    for who in 0..3 {
        let outcome = cluster.outcome(who, &run);
        assert!(
            outcome.as_ref().is_some_and(|o| o.is_installed()),
            "org{who}: {outcome:?}"
        );
    }
}
