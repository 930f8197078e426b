//! Properties of the one binary codec (`b2b_crypto::canonical`) as the
//! protocol uses it: wire frames, replica checkpoints and misbehaviour
//! evidence payloads.
//!
//! * round trip — `decode(encode(x)) == x` for every [`WireMsg`] variant,
//!   for the checkpoint documents ([`CoreDoc`], [`ReplyDoc`]) in every
//!   shape recovery has to restore, and for every [`Misbehaviour`];
//! * totality — truncated, extended, bit-flipped and random input decodes
//!   to `None`/`Err`, never a panic;
//! * strictness — whatever mutated frame *is* accepted re-encodes to
//!   exactly the bytes it was decoded from, which is what licenses seeding
//!   the signed part's memo from the received slice;
//! * a golden vector, so accidental format drift fails a test.

use b2b_core::messages::*;
use b2b_core::replica::{
    ActiveRun, CoreDoc, LeavingRun, MemberRun, MembershipChange, ProposerRun, QueuedRequest,
    RecipientRun, ReplyDoc, SeenEntry, SponsorRun, SNAPSHOT_FORMAT,
};
use b2b_core::{Decision, GroupId, Misbehaviour, ObjectId, RunId, StateId};
use b2b_crypto::DecodeError;
use b2b_crypto::{sha256, CanonicalDecode, CanonicalEncode, KeyPair, PartyId, Signer, TimeMs};
use b2b_evidence::{EvidenceKind, EvidenceRecord};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn state_id(n: u64) -> StateId {
    StateId {
        seq: n,
        rand_hash: sha256(&n.to_be_bytes()),
        state_hash: sha256(format!("state{n}").as_bytes()),
    }
}

fn group_id(n: u64) -> GroupId {
    GroupId {
        seq: n,
        rand_hash: sha256(b"g"),
        members_hash: sha256(format!("members{n}").as_bytes()),
    }
}

fn oid() -> ObjectId {
    ObjectId::new("order-7")
}

fn run() -> RunId {
    RunId(sha256(b"run"))
}

fn kp() -> KeyPair {
    KeyPair::generate_from_seed(1)
}

fn propose(kind: ProposalKind, body: &[u8]) -> ProposeMsg {
    let proposal = Proposal {
        object: oid(),
        proposer: PartyId::new("customer"),
        group: group_id(3),
        prev: state_id(4),
        proposed: state_id(5),
        auth_commit: sha256(b"auth"),
        kind,
    };
    ProposeMsg {
        sig: kp().sign(&proposal.canonical_bytes()),
        proposal,
        body: body.to_vec(),
        memo: Default::default(),
    }
}

fn respond(who: &str, decision: Decision) -> RespondMsg {
    let response = Response {
        object: oid(),
        responder: PartyId::new(who),
        group: group_id(3),
        run: run(),
        prev: state_id(4),
        proposed: state_id(5),
        body_ok: decision.is_accept(),
        decision,
    };
    RespondMsg {
        sig: kp().sign(&response.canonical_bytes()),
        response,
        memo: Default::default(),
    }
}

fn decide() -> DecideMsg {
    DecideMsg {
        object: oid(),
        run: run(),
        authenticator: [7; 32],
        responses: vec![
            respond("supplier", Decision::accept()),
            respond(
                "approver",
                Decision::reject_update(2, "not your turn — ünïcode"),
            ),
        ],
    }
}

fn connect_request() -> ConnectRequestMsg {
    let request = ConnectRequest {
        object: oid(),
        subject: PartyId::new("dispatcher"),
        nonce_hash: sha256(b"nonce"),
    };
    ConnectRequestMsg {
        sig: kp().sign(&request.canonical_bytes()),
        request,
    }
}

fn connect_propose() -> ConnectProposeMsg {
    let proposal = ConnectProposal {
        object: oid(),
        sponsor: PartyId::new("approver"),
        request_digest: sha256(b"req"),
        subject: PartyId::new("dispatcher"),
        group: group_id(3),
        new_group: group_id(4),
        agreed: state_id(5),
        auth_commit: sha256(b"auth2"),
    };
    ConnectProposeMsg {
        sig: kp().sign(&proposal.canonical_bytes()),
        proposal,
        request: connect_request(),
    }
}

fn member_respond(who: &str) -> MemberRespondMsg {
    let response = MemberResponse {
        object: oid(),
        responder: PartyId::new(who),
        run: run(),
        group: group_id(3),
        agreed: state_id(5),
        decision: Decision::accept(),
    };
    MemberRespondMsg {
        sig: kp().sign(&response.canonical_bytes()),
        response,
    }
}

fn member_decide(connecting: bool) -> MemberDecideMsg {
    MemberDecideMsg {
        object: oid(),
        run: run(),
        authenticator: [9; 32],
        responses: vec![member_respond("customer"), member_respond("supplier")],
        connecting,
    }
}

fn disconnect_request() -> DisconnectRequestMsg {
    let request = DisconnectRequest {
        object: oid(),
        proposer: PartyId::new("customer"),
        subjects: vec![PartyId::new("approver"), PartyId::new("dispatcher")],
        eviction: true,
        nonce_hash: sha256(b"n2"),
    };
    DisconnectRequestMsg {
        sig: kp().sign(&request.canonical_bytes()),
        request,
    }
}

fn disconnect_propose() -> DisconnectProposeMsg {
    let proposal = DisconnectProposal {
        object: oid(),
        sponsor: PartyId::new("supplier"),
        request_digest: sha256(b"dreq"),
        subjects: vec![PartyId::new("approver"), PartyId::new("dispatcher")],
        eviction: true,
        group: group_id(4),
        new_group: group_id(5),
        agreed: state_id(5),
        auth_commit: sha256(b"auth3"),
    };
    DisconnectProposeMsg {
        sig: kp().sign(&proposal.canonical_bytes()),
        proposal,
        request: disconnect_request(),
    }
}

/// One message of every [`WireMsg`] variant (two for `Propose`: an
/// overwrite and a batch).
fn every_variant() -> Vec<WireMsg> {
    let links = vec![
        BatchLink {
            update_hash: sha256(b"u0"),
            state_hash: sha256(b"s0"),
        },
        BatchLink {
            update_hash: sha256(b"u1"),
            state_hash: sha256(b"s1"),
        },
    ];
    let batch_body = encode_batch_body(&[b"u0".to_vec(), b"u1".to_vec()]);
    let welcome = Welcome {
        object: oid(),
        run: run(),
        group: group_id(4),
        members: vec![PartyId::new("customer"), PartyId::new("dispatcher")],
        agreed: state_id(5),
    };
    let reject = ConnectReject {
        object: oid(),
        sponsor: PartyId::new("approver"),
        request_digest: sha256(b"req"),
    };
    let ack = DisconnectAck {
        object: oid(),
        run: run(),
        sponsor: PartyId::new("supplier"),
        subject: PartyId::new("approver"),
        group: group_id(5),
        agreed: state_id(5),
    };
    let dreject = DisconnectReject {
        object: oid(),
        sponsor: PartyId::new("supplier"),
        request_digest: sha256(b"dreq"),
    };
    let resolve = TtpResolveRequest {
        object: oid(),
        run: run(),
        appellant: PartyId::new("supplier"),
        members: vec![PartyId::new("customer"), PartyId::new("supplier")],
    };
    let ev_request = TtpEvidenceRequest {
        object: oid(),
        run: run(),
        ttp: PartyId::new("ttp"),
    };
    let responses = vec![respond("supplier", Decision::accept())];
    let evidence = TtpEvidence {
        object: oid(),
        run: run(),
        proposer: PartyId::new("customer"),
        responses_digest: responses_digest(&responses),
    };
    let resolution = TtpResolution {
        object: oid(),
        run: run(),
        verdict: TtpVerdict::CertifiedInvalid,
        responses_digest: responses_digest(&responses),
    };
    vec![
        WireMsg::Propose(propose(ProposalKind::Overwrite, b"{\"lines\":[]}")),
        WireMsg::Propose(propose(ProposalKind::Batch { links }, &batch_body)),
        WireMsg::Respond(respond("supplier", Decision::reject("no"))),
        WireMsg::Decide(decide()),
        WireMsg::ConnectRequest(connect_request()),
        WireMsg::ConnectPropose(connect_propose()),
        WireMsg::MemberRespond(member_respond("customer")),
        WireMsg::MemberDecide(member_decide(true)),
        WireMsg::Welcome(WelcomeMsg {
            sig: kp().sign(&welcome.canonical_bytes()),
            welcome,
            state: b"agreed state bytes".to_vec(),
            decide: member_decide(true),
        }),
        WireMsg::ConnectReject(ConnectRejectMsg {
            sig: kp().sign(&reject.canonical_bytes()),
            reject,
        }),
        WireMsg::DisconnectRequest(disconnect_request()),
        WireMsg::DisconnectPropose(disconnect_propose()),
        WireMsg::DisconnectAck(DisconnectAckMsg {
            sig: kp().sign(&ack.canonical_bytes()),
            ack,
            decide: member_decide(false),
        }),
        WireMsg::DisconnectReject(DisconnectRejectMsg {
            sig: kp().sign(&dreject.canonical_bytes()),
            reject: dreject,
        }),
        WireMsg::TtpResolve(TtpResolveMsg {
            sig: kp().sign(&resolve.canonical_bytes()),
            request: resolve,
            propose: propose(
                ProposalKind::Update {
                    update_hash: sha256(b"u"),
                },
                b"u",
            ),
            responses: responses.clone(),
        }),
        WireMsg::TtpEvidenceRequest(TtpEvidenceRequestMsg {
            sig: kp().sign(&ev_request.canonical_bytes()),
            request: ev_request,
        }),
        WireMsg::TtpEvidence(TtpEvidenceMsg {
            sig: kp().sign(&evidence.canonical_bytes()),
            evidence,
            responses: responses.clone(),
        }),
        WireMsg::TtpResolution(TtpResolutionMsg {
            sig: kp().sign(&resolution.canonical_bytes()),
            resolution,
            responses,
        }),
    ]
}

#[test]
fn every_wire_variant_round_trips() {
    let msgs = every_variant();
    let mut kinds: Vec<&str> = msgs.iter().map(WireMsg::kind_name).collect();
    kinds.dedup();
    assert_eq!(kinds.len(), 17, "one sample per variant");
    for msg in msgs {
        let bytes = msg.to_bytes();
        assert_eq!(bytes[0], WIRE_FORMAT);
        let back = WireMsg::from_bytes(&bytes).unwrap_or_else(|| panic!("{}", msg.kind_name()));
        assert_eq!(back, msg);
        assert_eq!(back.to_bytes(), bytes);
    }
}

/// The receiver's memo of a signed part is the slice it arrived in, and
/// that slice is what the sender signed.
#[test]
fn received_signed_parts_are_memoised_from_the_wire() {
    let sent = propose(ProposalKind::Overwrite, b"body");
    let Some(WireMsg::Propose(got)) =
        WireMsg::from_bytes(&WireMsg::Propose(sent.clone()).to_bytes())
    else {
        panic!("m1 decodes");
    };
    assert!(got.memo.is_cached());
    assert_eq!(
        &got.proposal_bytes()[..],
        &sent.proposal.canonical_bytes()[..]
    );
    assert_eq!(got.run_id(), sent.proposal.run_id());

    let Some(WireMsg::Decide(m3)) = WireMsg::from_bytes(&WireMsg::Decide(decide()).to_bytes())
    else {
        panic!("m3 decodes");
    };
    for r in &m3.responses {
        assert!(r.memo.is_cached());
        assert_eq!(&r.response_bytes()[..], &r.response.canonical_bytes()[..]);
    }
}

#[test]
fn truncated_and_extended_frames_are_rejected() {
    for msg in every_variant() {
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                WireMsg::from_bytes(&bytes[..cut]).is_none(),
                "{} truncated at {cut}/{} decoded",
                msg.kind_name(),
                bytes.len()
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(WireMsg::from_bytes(&longer).is_none(), "trailing byte");
    }
}

/// Every single-byte mutation of every sample frame either fails to decode
/// or — strictness — decodes to a message that re-encodes to exactly the
/// mutated bytes. Covers every tag byte (format, variant, `Option`, `bool`,
/// enum discriminants, signature scheme) along with everything else.
#[test]
fn mutated_frames_are_rejected_or_reencode_identically() {
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for msg in every_variant() {
        let bytes = msg.to_bytes();
        for at in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut mutated = bytes.clone();
                mutated[at] ^= flip;
                match WireMsg::from_bytes(&mutated) {
                    None => rejected += 1,
                    Some(m) => {
                        accepted += 1;
                        assert_eq!(
                            m.to_bytes(),
                            mutated,
                            "{} byte {at} ^ {flip:#x}: accepted but not canonical",
                            msg.kind_name()
                        );
                    }
                }
            }
        }
    }
    // Digest, signature and string bytes mutate freely; tags and length
    // prefixes must not.
    assert!(accepted > 0 && rejected > 0);
    // The leading format byte and the variant tag in particular.
    let frame = WireMsg::Respond(respond("supplier", Decision::accept())).to_bytes();
    for (at, value) in [(0, 0u8), (0, 2), (0, b'{'), (1, 17), (1, 255)] {
        let mut bad = frame.clone();
        bad[at] = value;
        assert!(WireMsg::from_bytes(&bad).is_none(), "byte {at} = {value}");
    }
}

#[test]
fn random_buffers_never_decode_or_panic() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for i in 0..10_000u32 {
        let len = rng.gen_range(0..=600usize);
        let mut buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
        // Half the buffers get past the two leading tags, so the field
        // decoders see random input too.
        if i % 2 == 0 && buf.len() >= 2 {
            buf[0] = WIRE_FORMAT;
            buf[1] %= 17;
        }
        if let Some(m) = WireMsg::from_bytes(&buf) {
            assert_eq!(
                m.to_bytes(),
                buf,
                "accepted random buffer must be canonical"
            );
        }
        // Likewise past the checkpoint documents' format byte.
        if i % 4 == 1 && !buf.is_empty() {
            buf[0] = SNAPSHOT_FORMAT;
        }
        for doc in CHECKPOINT_CODECS {
            if let Ok(bytes) = doc(&buf) {
                assert_eq!(bytes, buf);
            }
        }
    }
    // A length prefix far beyond the buffer must not size an allocation.
    let mut huge = vec![WIRE_FORMAT, 2];
    huge.extend_from_slice(&oid().canonical_bytes());
    huge.extend_from_slice(&run().canonical_bytes());
    huge.extend_from_slice(&[0; 32]);
    huge.extend_from_slice(&u64::MAX.to_be_bytes()); // response count
    assert!(WireMsg::from_bytes(&huge).is_none());
}

/// Decodes a checkpoint document and encodes it again.
type Recode = fn(&[u8]) -> Result<Vec<u8>, DecodeError>;

/// One [`Recode`] per checkpoint document kind.
const CHECKPOINT_CODECS: [Recode; 2] = [
    |b| CoreDoc::from_bytes(b).map(|d| d.to_bytes()),
    |b| ReplyDoc::from_bytes(b).map(|d| d.to_bytes()),
];

fn core_doc(active: Option<ActiveRun>) -> CoreDoc {
    CoreDoc {
        members: vec![PartyId::new("customer"), PartyId::new("supplier")],
        group: group_id(3),
        agreed: state_id(5),
        agreed_state: b"{\"lines\":[{\"item\":\"a\",\"qty\":1}]}".to_vec(),
        active,
        queued: vec![
            QueuedRequest::Connect(connect_request()),
            QueuedRequest::Disconnect(disconnect_request()),
        ],
        loose_seen: vec![
            SeenEntry {
                run: run(),
                seen_at: 4,
                tuple: Some((5, sha256(b"rand"))),
            },
            SeenEntry {
                run: RunId(sha256(b"membership run")),
                seen_at: 5,
                tuple: None,
            },
        ],
        reply_slots: 1_234,
        detached: false,
    }
}

fn core_docs() -> Vec<CoreDoc> {
    let m1 = propose(ProposalKind::Overwrite, b"next");
    let proposer = ProposerRun {
        run: m1.run_id(),
        propose: m1.clone(),
        authenticator: [3; 32],
        new_state: b"next".to_vec(),
        responses: [
            ("supplier", Decision::accept()),
            ("approver", Decision::reject("no")),
        ]
        .into_iter()
        .map(|(who, d)| (PartyId::new(who), respond(who, d)))
        .collect(),
        decided: Some(decide()),
    };
    let recipient = RecipientRun {
        run: m1.run_id(),
        propose: m1,
        my_response: respond("supplier", Decision::accept()),
        pending_state: Some(b"next".to_vec()),
    };
    let connect = MembershipChange::Connect {
        subject: PartyId::new("dispatcher"),
        request: connect_request(),
        propose: connect_propose(),
    };
    let disconnect = MembershipChange::Disconnect {
        subjects: vec![PartyId::new("approver")],
        eviction: true,
        request: disconnect_request(),
        propose: disconnect_propose(),
    };
    let sponsor = SponsorRun {
        run: run(),
        change: connect,
        authenticator: [4; 32],
        new_members: vec![PartyId::new("customer"), PartyId::new("dispatcher")],
        new_group: group_id(4),
        polled: vec![PartyId::new("customer"), PartyId::new("supplier")],
        responses: [(PartyId::new("customer"), member_respond("customer"))]
            .into_iter()
            .collect(),
        decided: None,
    };
    let member = MemberRun {
        run: run(),
        change: disconnect,
        my_response: member_respond("supplier"),
    };
    let leaving = LeavingRun {
        request: disconnect_request(),
        sponsor: PartyId::new("supplier"),
    };
    let fresh = CoreDoc {
        queued: Vec::new(),
        loose_seen: Vec::new(),
        reply_slots: 0,
        ..core_doc(None)
    };
    let detached = CoreDoc {
        agreed_state: Vec::new(),
        detached: true,
        ..fresh.clone()
    };
    vec![
        core_doc(None),
        core_doc(Some(ActiveRun::Proposer(proposer))),
        core_doc(Some(ActiveRun::Recipient(recipient))),
        core_doc(Some(ActiveRun::Sponsor(sponsor))),
        core_doc(Some(ActiveRun::Member(member))),
        core_doc(Some(ActiveRun::Leaving(leaving))),
        fresh,
        detached,
    ]
}

fn reply_docs() -> Vec<ReplyDoc> {
    let state_run = ReplyDoc {
        n: 1_233,
        run: run(),
        seen_at: Some(4),
        tuple: Some((5, sha256(b"rand"))),
        wire: WireMsg::Decide(decide()).to_bytes(),
    };
    let membership_run = ReplyDoc {
        tuple: None,
        wire: WireMsg::MemberRespond(member_respond("supplier")).to_bytes(),
        ..state_run.clone()
    };
    let past_the_window = ReplyDoc {
        seen_at: None,
        ..membership_run.clone()
    };
    vec![state_run, membership_run, past_the_window]
}

/// Every checkpoint document's bytes, with the index of its codec.
fn every_checkpoint_blob() -> Vec<(usize, Vec<u8>)> {
    let mut blobs = Vec::new();
    blobs.extend(core_docs().iter().map(|d| (0, d.to_bytes())));
    blobs.extend(reply_docs().iter().map(|d| (1, d.to_bytes())));
    blobs
}

#[test]
fn every_checkpoint_document_round_trips() {
    for doc in core_docs() {
        assert_eq!(CoreDoc::from_bytes(&doc.to_bytes()), Ok(doc));
    }
    for doc in reply_docs() {
        assert_eq!(ReplyDoc::from_bytes(&doc.to_bytes()), Ok(doc));
    }
    for (codec, bytes) in every_checkpoint_blob() {
        assert_eq!(CHECKPOINT_CODECS[codec](&bytes), Ok(bytes));
    }
}

#[test]
fn damaged_checkpoint_documents_are_rejected_not_misread() {
    for (codec, bytes) in every_checkpoint_blob() {
        let decode = CHECKPOINT_CODECS[codec];
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err());
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode(&longer).is_err());
        // A blob in another format is refused at the first byte: the
        // format-1 whole-replica snapshots of the previous layout, and the
        // JSON snapshots before those (they start with `{`).
        for other_format in [1, b'{'] {
            let mut other = bytes.clone();
            other[0] = other_format;
            assert!(decode(&other).is_err());
        }
        for at in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut mutated = bytes.clone();
                mutated[at] ^= flip;
                if let Ok(again) = decode(&mutated) {
                    assert_eq!(again, mutated, "byte {at}: accepted but not canonical");
                }
            }
        }
    }
}

/// One value of each of the 13 variants, with empty, ASCII and non-ASCII
/// strings and extreme integers.
fn every_misbehaviour() -> Vec<Misbehaviour> {
    vec![
        Misbehaviour::BadSignature {
            claimed: PartyId::new("supplier"),
            message: "m1".into(),
        },
        Misbehaviour::BodyHashMismatch { run: run() },
        Misbehaviour::GroupIdMismatch {
            theirs: group_id(2),
            ours: group_id(3),
        },
        Misbehaviour::PredecessorMismatch {
            theirs: state_id(4),
            ours: state_id(5),
        },
        Misbehaviour::SequenceNotGreater {
            proposed: 0,
            agreed: u64::MAX,
        },
        Misbehaviour::ReplayedProposal { run: run() },
        Misbehaviour::NullTransition { run: run() },
        Misbehaviour::BatchedUpdateMismatch {
            run: run(),
            index: 63,
        },
        Misbehaviour::AuthenticatorMismatch { run: run() },
        Misbehaviour::ResponseMisrepresented { run: run() },
        Misbehaviour::InconsistentDecide {
            run: run(),
            detail: "duplicate responder «customer»".into(),
        },
        Misbehaviour::IllegitimateSponsor {
            claimed: PartyId::new("a"),
            expected: PartyId::new("b"),
        },
        Misbehaviour::UnexpectedMessage {
            detail: String::new(),
        },
    ]
}

#[test]
fn every_misbehaviour_payload_round_trips_and_rejects_damage() {
    let all = every_misbehaviour();
    let mut tags: Vec<_> = all.iter().map(Misbehaviour::tag).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), 13, "one sample per variant");
    for m in all {
        let bytes = m.canonical_bytes();
        assert_eq!(Misbehaviour::from_canonical(&bytes), Ok(m.clone()));
        for cut in 0..bytes.len() {
            assert!(
                Misbehaviour::from_canonical(&bytes[..cut]).is_err(),
                "{m}: cut at {cut}"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            Misbehaviour::from_canonical(&longer).unwrap_err().what,
            "trailing bytes",
            "{m}"
        );
        // A JSON payload starts with `{`, which is no variant tag.
        let mut json = bytes.clone();
        json[0] = b'{';
        assert_eq!(
            Misbehaviour::from_canonical(&json),
            DecodeError::at("unknown misbehaviour tag", 0),
            "{m}"
        );
        for at in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut mutated = bytes.clone();
                mutated[at] ^= flip;
                if let Ok(again) = Misbehaviour::from_canonical(&mutated) {
                    assert_eq!(again.canonical_bytes(), mutated, "{m}: byte {at}");
                }
            }
        }
    }
    // The JSON payload an older log carries is refused, not repaired.
    let old = format!(r#"{{"ReplayedProposal":{{"run":"{}"}}}}"#, run().to_hex());
    assert!(Misbehaviour::from_canonical(old.as_bytes()).is_err());
}

/// Golden vector: the exact wire bytes of a fixed `m1` and the exact WAL
/// record body of its evidence. A change to either file is a format break:
/// bump `WIRE_FORMAT` / `RECORD_FORMAT` and say so in KNOWN_FAILURES.md.
#[test]
fn golden_m1_and_its_wal_record() {
    let m1 = propose(
        ProposalKind::Update {
            update_hash: sha256(b"{\"SetQuantity\":{\"item\":\"a\",\"qty\":2}}"),
        },
        b"{\"SetQuantity\":{\"item\":\"a\",\"qty\":2}}",
    );
    let wire = WireMsg::Propose(m1.clone()).to_bytes();
    let mut record = EvidenceRecord::new(
        EvidenceKind::StatePropose,
        oid().as_str(),
        m1.run_id().to_hex(),
        m1.proposal.proposer.clone(),
        m1.proposal_bytes().to_vec(),
        Some(m1.sig.clone()),
        None,
        TimeMs(1_700_000_000_000),
    );
    record.seq = 42;
    let golden = |name: &str, fixture: &str, actual: &[u8]| {
        assert_eq!(
            hex::encode(actual),
            fixture.trim(),
            "{name} drifted from tests/fixtures/{name}.hex"
        );
    };
    golden("m1.wire", include_str!("fixtures/m1.wire.hex"), &wire);
    golden(
        "m1.wal-record",
        include_str!("fixtures/m1.wal-record.hex"),
        &record.canonical_bytes(),
    );
}
