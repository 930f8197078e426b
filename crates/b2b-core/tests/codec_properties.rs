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
    ActiveRun, CoreDoc, LeavingRun, ProposerRun, QueuedRequest, RecipientRun, ReplyDoc, SeenEntry,
    SNAPSHOT_FORMAT,
};
use b2b_core::{Decision, GroupId, Misbehaviour, ObjectId, RunId, StateId};
use b2b_crypto::DecodeError;
use b2b_crypto::{
    sha256, CanonicalDecode, CanonicalEncode, Encoder, KeyPair, PartyId, Signer, TimeMs,
};
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

/// A signed `m1` of any kind by `proposer`, from `prev` to `proposed`.
fn propose_by(
    proposer: &str,
    prev: StateId,
    proposed: StateId,
    kind: ProposalKind,
    body: &[u8],
) -> ProposeMsg {
    let proposal = Proposal {
        object: oid(),
        proposer: PartyId::new(proposer),
        group: group_id(3),
        prev,
        proposed,
        auth_commit: sha256(b"auth2"),
        kind,
    };
    ProposeMsg {
        sig: kp().sign(&proposal.canonical_bytes()),
        proposal,
        body: body.to_vec(),
        memo: Default::default(),
    }
}

fn connect_propose() -> ProposeMsg {
    let request = connect_request();
    let kind = ProposalKind::Connect {
        request_digest: request.request.canonical_digest(),
        subject: PartyId::new("dispatcher"),
        new_group: group_id(4),
    };
    propose_by(
        "approver",
        state_id(5),
        state_id(5),
        kind,
        &request.canonical_bytes(),
    )
}

/// A member's response to a membership proposal: it echoes the agreed
/// tuple the proposal keeps.
fn member_respond(who: &str) -> RespondMsg {
    let response = Response {
        object: oid(),
        responder: PartyId::new(who),
        group: group_id(3),
        run: run(),
        prev: state_id(5),
        proposed: state_id(5),
        body_ok: true,
        decision: Decision::accept(),
    };
    RespondMsg {
        sig: kp().sign(&response.canonical_bytes()),
        response,
        memo: Default::default(),
    }
}

fn member_decide() -> DecideMsg {
    DecideMsg {
        object: oid(),
        run: run(),
        authenticator: [9; 32],
        responses: vec![member_respond("customer"), member_respond("supplier")],
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

fn disconnect_propose() -> ProposeMsg {
    let request = disconnect_request();
    let kind = ProposalKind::Disconnect {
        request_digest: request.request.canonical_digest(),
        subjects: vec![PartyId::new("approver"), PartyId::new("dispatcher")],
        eviction: true,
        new_group: group_id(5),
    };
    propose_by(
        "supplier",
        state_id(5),
        state_id(5),
        kind,
        &request.canonical_bytes(),
    )
}

/// One message of every [`WireMsg`] variant: `Propose` in every
/// [`ProposalKind`] (the update inside the TTP appeal), `Respond` and
/// `Decide` of a state and of a membership round.
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
        WireMsg::Propose(connect_propose()),
        WireMsg::Respond(member_respond("customer")),
        WireMsg::Decide(member_decide()),
        WireMsg::Welcome(WelcomeMsg {
            sig: kp().sign(&welcome.canonical_bytes()),
            welcome,
            state: b"agreed state bytes".to_vec(),
            decide: member_decide(),
        }),
        WireMsg::ConnectReject(ConnectRejectMsg {
            sig: kp().sign(&reject.canonical_bytes()),
            reject,
        }),
        WireMsg::DisconnectRequest(disconnect_request()),
        WireMsg::Propose(disconnect_propose()),
        WireMsg::DisconnectAck(DisconnectAckMsg {
            sig: kp().sign(&ack.canonical_bytes()),
            ack,
            decide: member_decide(),
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
    let kinds: std::collections::BTreeSet<&str> = msgs.iter().map(WireMsg::kind_name).collect();
    assert_eq!(kinds.len(), 13, "a sample of every variant");
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
    for (at, value) in [(0, 0u8), (0, 1), (0, 3), (0, b'{'), (1, 13), (1, 255)] {
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
            buf[1] %= 13;
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

/// Every [`ProposalKind`] round-trips inside a signed proposal, with its
/// tag (0–4) as the first byte of the kind's encoding, and a tag past the
/// last is refused.
#[test]
fn every_proposal_kind_round_trips() {
    let link = |tag: &[u8]| BatchLink {
        update_hash: sha256(tag),
        state_hash: sha256(tag),
    };
    let kinds = vec![
        ProposalKind::Overwrite,
        ProposalKind::Update {
            update_hash: sha256(b"u"),
        },
        ProposalKind::Batch {
            links: vec![link(b"a"), link(b"b")],
        },
        connect_propose().proposal.kind,
        disconnect_propose().proposal.kind,
        ProposalKind::Disconnect {
            request_digest: sha256(b"leave"),
            subjects: vec![PartyId::new("supplier")],
            eviction: false,
            new_group: group_id(6),
        },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let bytes = kind.canonical_bytes();
        assert_eq!(bytes[0] as usize, i.min(4), "{kind:?}");
        assert_eq!(ProposalKind::from_canonical(&bytes), Ok(kind.clone()));
        let m1 = propose_by("customer", state_id(4), state_id(5), kind, b"body");
        let frame = WireMsg::Propose(m1.clone()).to_bytes();
        assert_eq!(WireMsg::from_bytes(&frame), Some(WireMsg::Propose(m1)));
    }
    for tag in [5u8, 0xff] {
        assert!(ProposalKind::from_canonical(&[tag]).is_err(), "tag {tag}");
    }
}

/// The frames of the previous layout are refused, never repaired: a
/// format-1 frame of any message, and — under the current format — the
/// variant tags past the last (the previous layout's 17 variants became
/// 13 when the membership round's own propose, respond and decide went).
/// The retired membership variants, encoded as the previous layout laid
/// them out, are refused too.
#[test]
fn previous_format_frames_and_retired_tags_are_refused() {
    for msg in every_variant() {
        let mut old = msg.to_bytes();
        old[0] = 1;
        assert!(WireMsg::from_bytes(&old).is_none(), "{}", msg.kind_name());
        for tag in 13..=16u8 {
            let mut retired = msg.to_bytes();
            retired[1] = tag;
            assert!(WireMsg::from_bytes(&retired).is_none(), "tag {tag}");
        }
    }
    // The previous layout's four membership-round frames, byte for byte
    // as it encoded them: `[1][tag][message]`.
    let frame = |tag: u8, body: &dyn Fn(&mut Encoder)| {
        let mut enc = Encoder::new();
        enc.put_u8(1);
        enc.put_u8(tag);
        body(&mut enc);
        enc.finish()
    };
    let sig = kp().sign(b"signed part");
    let member_response = |enc: &mut Encoder| {
        oid().encode(enc);
        PartyId::new("customer").encode(enc);
        run().encode(enc);
        group_id(3).encode(enc);
        state_id(5).encode(enc);
        Decision::accept().encode(enc);
        sig.encode(enc);
    };
    let connect_propose = frame(4, &|enc| {
        oid().encode(enc);
        PartyId::new("approver").encode(enc);
        enc.put_digest(&sha256(b"req"));
        PartyId::new("dispatcher").encode(enc);
        group_id(3).encode(enc);
        group_id(4).encode(enc);
        state_id(5).encode(enc);
        enc.put_digest(&sha256(b"auth"));
        connect_request().encode(enc);
        sig.encode(enc);
    });
    let member_respond = frame(5, &member_response);
    let member_decide = frame(6, &|enc| {
        oid().encode(enc);
        run().encode(enc);
        enc.put_raw(&[9; 32]);
        enc.put_u64(1);
        member_response(enc);
        enc.put_bool(true);
    });
    let disconnect_propose = frame(10, &|enc| {
        oid().encode(enc);
        PartyId::new("supplier").encode(enc);
        enc.put_digest(&sha256(b"dreq"));
        b2b_crypto::canonical::encode_seq(&[PartyId::new("approver")], enc);
        enc.put_bool(true);
        group_id(4).encode(enc);
        group_id(5).encode(enc);
        state_id(5).encode(enc);
        enc.put_digest(&sha256(b"auth"));
        disconnect_request().encode(enc);
        sig.encode(enc);
    });
    for old in [
        connect_propose,
        member_respond,
        member_decide,
        disconnect_propose,
    ] {
        assert!(WireMsg::from_bytes(&old).is_none());
        // Nor does the old body decode under its old tag in this format.
        let mut relabelled = old.clone();
        relabelled[0] = WIRE_FORMAT;
        assert!(WireMsg::from_bytes(&relabelled).is_none(), "tag {}", old[1]);
    }
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
    };
    let recipient = RecipientRun {
        run: m1.run_id(),
        propose: m1,
        my_response: respond("supplier", Decision::accept()),
        pending_state: Some(b"next".to_vec()),
    };
    let connect = connect_propose();
    let sponsor = ProposerRun {
        run: connect.run_id(),
        propose: connect,
        authenticator: [4; 32],
        new_state: Vec::new(),
        responses: [(PartyId::new("customer"), member_respond("customer"))]
            .into_iter()
            .collect(),
    };
    let disconnect = disconnect_propose();
    let member = RecipientRun {
        run: disconnect.run_id(),
        propose: disconnect,
        my_response: member_respond("customer"),
        pending_state: None,
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
        core_doc(Some(ActiveRun::Proposer(Box::new(proposer)))),
        core_doc(Some(ActiveRun::Recipient(Box::new(recipient)))),
        core_doc(Some(ActiveRun::Proposer(Box::new(sponsor)))),
        core_doc(Some(ActiveRun::Recipient(Box::new(member)))),
        core_doc(Some(ActiveRun::Leaving(Box::new(leaving)))),
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
        wire: WireMsg::Respond(member_respond("supplier")).to_bytes(),
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
        // format-2 documents whose active run could be a sponsor or member
        // run, the format-1 whole-replica snapshots before those, and the
        // JSON snapshots before those (they start with `{`).
        for other_format in [2, 1, b'{'] {
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
    // The state round's m1 moved only its format byte when the membership
    // round's own messages went: with byte 0 set back to 1 the fixture is
    // the previous layout's vector (pinned by its digest), and that frame
    // is refused.
    assert_eq!(wire[0], WIRE_FORMAT);
    let mut previous = wire.clone();
    previous[0] = 1;
    assert_eq!(
        sha256(hex::encode(&previous).as_bytes()).to_string(),
        "6a67bc12b9b6a8b6690c8eea707da841f84594a9c6b7782902e4d9ab8f5d7934",
        "the format-1 m1.wire.hex vector"
    );
    assert!(WireMsg::from_bytes(&previous).is_none());
    golden(
        "m1.wal-record",
        include_str!("fixtures/m1.wal-record.hex"),
        &record.canonical_bytes(),
    );
}
