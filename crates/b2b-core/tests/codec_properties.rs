//! Properties of the one binary codec (`b2b_crypto::canonical`) as the
//! protocol uses it: wire frames, replica checkpoints and misbehaviour
//! evidence payloads.
//!
//! * round trip — `decode(encode(x)) == x` for every [`WireMsg`] variant,
//!   for the checkpoint document ([`CoreDoc`]) in every shape recovery
//!   has to restore, and for every [`Misbehaviour`];
//! * totality — truncated, extended, bit-flipped and random input decodes
//!   to `None`/`Err`, never a panic;
//! * strictness — whatever mutated frame *is* accepted re-encodes to
//!   exactly the bytes it was decoded from, which is what licenses seeding
//!   the signed part's memo from the received slice;
//! * a golden vector, so accidental format drift fails a test.

use b2b_core::messages::*;
use b2b_core::replica::{
    ActiveRun, CoreDoc, LeavingRun, ProposerRun, RecipientRun, SNAPSHOT_FORMAT,
};
use b2b_core::{Decision, GroupId, Misbehaviour, ObjectId, RunId, StateId};
use b2b_crypto::DecodeError;
use b2b_crypto::{
    sha256, CanonicalDecode, CanonicalEncode, Encoder, KeyPair, PartyId, Signer, TimeMs,
};
use b2b_evidence::record::RECORD_FORMAT;
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

/// A signed request by `requester` for `change`.
fn member_request(requester: &str, change: MemberChange) -> MemberRequestMsg {
    let request = MemberRequest {
        object: oid(),
        requester: PartyId::new(requester),
        change,
        nonce_hash: sha256(b"nonce"),
    };
    MemberRequestMsg {
        sig: kp().sign(&request.canonical_bytes()),
        request,
    }
}

fn join_request() -> MemberRequestMsg {
    member_request("dispatcher", MemberChange::Join)
}

fn leave_request() -> MemberRequestMsg {
    member_request("approver", MemberChange::Leave)
}

fn evict_request() -> MemberRequestMsg {
    let subjects = vec![PartyId::new("approver"), PartyId::new("dispatcher")];
    member_request("customer", MemberChange::Evict { subjects })
}

/// The membership proposal of `request`, by `sponsor`.
fn member_propose(sponsor: &str, request: MemberRequestMsg, new_group: GroupId) -> ProposeMsg {
    let kind = ProposalKind::Member {
        request_digest: request.request.canonical_digest(),
        requester: request.request.requester.clone(),
        change: request.request.change.clone(),
        new_group,
    };
    propose_by(
        sponsor,
        state_id(5),
        state_id(5),
        kind,
        &request.canonical_bytes(),
    )
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

fn join_propose() -> ProposeMsg {
    member_propose("approver", join_request(), group_id(4))
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

fn evict_propose() -> ProposeMsg {
    member_propose("supplier", evict_request(), group_id(5))
}

/// The sponsor's signed answer with `verdict`, and with `decide` and
/// `state` riding beside it as given.
fn member_answer(
    verdict: MemberVerdict,
    decide: Option<DecideMsg>,
    state: Option<Vec<u8>>,
) -> MemberAnswerMsg {
    let answer = MemberAnswer {
        object: oid(),
        sponsor: PartyId::new("approver"),
        request_digest: sha256(b"req"),
        verdict,
    };
    MemberAnswerMsg {
        sig: kp().sign(&answer.canonical_bytes()),
        answer,
        decide,
        state,
    }
}

fn accepted(members: &[&str]) -> MemberVerdict {
    MemberVerdict::Accepted {
        run: run(),
        group: group_id(4),
        members: members.iter().map(|m| PartyId::new(*m)).collect(),
        agreed: state_id(5),
    }
}

/// An answer of both verdicts: an accepted join (decide and state), an
/// accepted leave (decide only) and a rejection (neither).
fn every_answer() -> Vec<MemberAnswerMsg> {
    vec![
        member_answer(
            accepted(&["customer", "dispatcher"]),
            Some(member_decide()),
            Some(b"agreed state bytes".to_vec()),
        ),
        member_answer(accepted(&["customer"]), Some(member_decide()), None),
        member_answer(MemberVerdict::Rejected, None, None),
    ]
}

/// One message of every [`WireMsg`] variant: `Propose` in every
/// [`ProposalKind`] (the update inside the TTP appeal), `Respond` and
/// `Decide` of a state and of a membership round, a `MemberRequest` for
/// every change and a `MemberAnswer` of both verdicts.
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
    let mut msgs = vec![
        WireMsg::Propose(propose(ProposalKind::Overwrite, b"{\"lines\":[]}")),
        WireMsg::Propose(propose(ProposalKind::Batch { links }, &batch_body)),
        WireMsg::Respond(respond("supplier", Decision::reject("no"))),
        WireMsg::Decide(decide()),
        WireMsg::MemberRequest(join_request()),
        WireMsg::MemberRequest(leave_request()),
        WireMsg::MemberRequest(evict_request()),
        WireMsg::Propose(join_propose()),
        WireMsg::Respond(member_respond("customer")),
        WireMsg::Decide(member_decide()),
        WireMsg::Propose(evict_propose()),
    ];
    msgs.extend(every_answer().into_iter().map(WireMsg::MemberAnswer));
    msgs.extend([
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
    ]);
    msgs
}

#[test]
fn every_wire_variant_round_trips() {
    let msgs = every_variant();
    let kinds: std::collections::BTreeSet<&str> = msgs.iter().map(WireMsg::kind_name).collect();
    assert_eq!(kinds.len(), WIRE_TAGS, "a sample of every variant");
    assert_eq!(WIRE_TAGS, 9);
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
    for (at, value) in [
        (0, 0u8),
        (0, 1),
        (0, 2),
        (0, 4),
        (0, b'{'),
        (1, 9),
        (1, 255),
    ] {
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
            buf[1] %= WIRE_TAGS as u8;
        }
        if let Some(m) = WireMsg::from_bytes(&buf) {
            assert_eq!(
                m.to_bytes(),
                buf,
                "accepted random buffer must be canonical"
            );
        }
        // Likewise past the checkpoint document's format byte.
        if i % 4 == 1 && !buf.is_empty() {
            buf[0] = SNAPSHOT_FORMAT;
        }
        if let Ok(bytes) = recode(&buf) {
            assert_eq!(bytes, buf);
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
/// tag (0–3) as the first byte of the kind's encoding, and a tag past the
/// last is refused — 4 among them, the retired disconnection kind.
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
        join_propose().proposal.kind,
        evict_propose().proposal.kind,
        member_propose("customer", leave_request(), group_id(6))
            .proposal
            .kind,
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let bytes = kind.canonical_bytes();
        assert_eq!(bytes[0] as usize, i.min(3), "{kind:?}");
        assert_eq!(ProposalKind::from_canonical(&bytes), Ok(kind.clone()));
        let m1 = propose_by("customer", state_id(4), state_id(5), kind, b"body");
        let frame = WireMsg::Propose(m1.clone()).to_bytes();
        assert_eq!(WireMsg::from_bytes(&frame), Some(WireMsg::Propose(m1)));
    }
    for tag in [4u8, 5, 0xff] {
        assert!(ProposalKind::from_canonical(&[tag]).is_err(), "tag {tag}");
    }
}

/// A request round-trips for every change, and an answer for both
/// verdicts; a rejection that carries a decide or a state, and an
/// acceptance without a decide, are refused at decode.
#[test]
fn member_request_and_answer_round_trip_and_refuse_misplaced_payloads() {
    for m in [join_request(), leave_request(), evict_request()] {
        let bytes = m.canonical_bytes();
        assert_eq!(MemberRequestMsg::from_canonical(&bytes), Ok(m));
    }
    for m in every_answer() {
        let bytes = m.canonical_bytes();
        assert_eq!(MemberAnswerMsg::from_canonical(&bytes), Ok(m));
    }
    let state = Some(b"agreed state bytes".to_vec());
    for misplaced in [
        member_answer(MemberVerdict::Rejected, Some(member_decide()), None),
        member_answer(MemberVerdict::Rejected, None, state.clone()),
        member_answer(
            MemberVerdict::Rejected,
            Some(member_decide()),
            state.clone(),
        ),
        member_answer(accepted(&["customer"]), None, None),
        member_answer(accepted(&["customer"]), None, state),
    ] {
        let frame = WireMsg::MemberAnswer(misplaced.clone()).to_bytes();
        assert!(WireMsg::from_bytes(&frame).is_none(), "{misplaced:?}");
    }
}

/// The frames of earlier layouts are refused, never repaired: a format-1
/// or format-2 frame of any message, and — under the current format — the
/// variant tags past the last (format 1 had 17 variants, format 2 had 13;
/// the subject's six messages of format 2 became the request and the
/// answer). The retired membership frames, encoded as those layouts laid
/// them out, are refused too.
#[test]
fn previous_format_frames_and_retired_tags_are_refused() {
    for msg in every_variant() {
        for format in [1, 2] {
            let mut old = msg.to_bytes();
            old[0] = format;
            assert!(WireMsg::from_bytes(&old).is_none(), "{}", msg.kind_name());
        }
        for tag in 9..=16u8 {
            let mut retired = msg.to_bytes();
            retired[1] = tag;
            assert!(WireMsg::from_bytes(&retired).is_none(), "tag {tag}");
        }
    }
    let frame = |format: u8, tag: u8, body: &dyn Fn(&mut Encoder)| {
        let mut enc = Encoder::new();
        enc.put_u8(format);
        enc.put_u8(tag);
        body(&mut enc);
        enc.finish()
    };
    let sig = kp().sign(b"signed part");
    // The subject's messages of both earlier layouts: a connection request
    // and a voluntary disconnection request.
    let connect_request = |enc: &mut Encoder| {
        oid().encode(enc);
        PartyId::new("dispatcher").encode(enc);
        enc.put_digest(&sha256(b"nonce"));
        sig.encode(enc);
    };
    let disconnect_request = |enc: &mut Encoder| {
        oid().encode(enc);
        PartyId::new("approver").encode(enc);
        b2b_crypto::canonical::encode_seq(&[PartyId::new("approver")], enc);
        enc.put_bool(false);
        enc.put_digest(&sha256(b"n2"));
        sig.encode(enc);
    };
    // Format 2: the welcome (tag 4) and the disconnect ack (tag 7).
    let welcome = frame(2, 4, &|enc| {
        oid().encode(enc);
        run().encode(enc);
        group_id(4).encode(enc);
        b2b_crypto::canonical::encode_seq(&[PartyId::new("dispatcher")], enc);
        state_id(5).encode(enc);
        enc.put_bytes(b"agreed state bytes");
        member_decide().encode(enc);
        sig.encode(enc);
    });
    let ack = frame(2, 7, &|enc| {
        oid().encode(enc);
        run().encode(enc);
        PartyId::new("supplier").encode(enc);
        PartyId::new("approver").encode(enc);
        group_id(5).encode(enc);
        state_id(5).encode(enc);
        member_decide().encode(enc);
        sig.encode(enc);
    });
    // Format 1: the membership round's own propose, respond and decide.
    let member_response = |enc: &mut Encoder| {
        oid().encode(enc);
        PartyId::new("customer").encode(enc);
        run().encode(enc);
        group_id(3).encode(enc);
        state_id(5).encode(enc);
        Decision::accept().encode(enc);
        sig.encode(enc);
    };
    let connect_propose = frame(1, 4, &|enc| {
        oid().encode(enc);
        PartyId::new("approver").encode(enc);
        enc.put_digest(&sha256(b"req"));
        PartyId::new("dispatcher").encode(enc);
        group_id(3).encode(enc);
        group_id(4).encode(enc);
        state_id(5).encode(enc);
        enc.put_digest(&sha256(b"auth"));
        connect_request(enc);
        sig.encode(enc);
    });
    let member_respond = frame(1, 5, &member_response);
    let member_decide = frame(1, 6, &|enc| {
        oid().encode(enc);
        run().encode(enc);
        enc.put_raw(&[9; 32]);
        enc.put_u64(1);
        member_response(enc);
        enc.put_bool(true);
    });
    let disconnect_propose = frame(1, 10, &|enc| {
        oid().encode(enc);
        PartyId::new("supplier").encode(enc);
        enc.put_digest(&sha256(b"dreq"));
        b2b_crypto::canonical::encode_seq(&[PartyId::new("approver")], enc);
        enc.put_bool(true);
        group_id(4).encode(enc);
        group_id(5).encode(enc);
        state_id(5).encode(enc);
        enc.put_digest(&sha256(b"auth"));
        disconnect_request(enc);
        sig.encode(enc);
    });
    for old in [
        frame(2, 3, &connect_request),
        frame(2, 6, &disconnect_request),
        welcome,
        ack,
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
fn recode(bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
    CoreDoc::from_bytes(bytes).map(|d| d.to_bytes())
}

fn core_doc(active: Option<ActiveRun>) -> CoreDoc {
    CoreDoc {
        logged: 4_321,
        founding: None,
        welcome: None,
        agreed_state: b"{\"lines\":[{\"item\":\"a\",\"qty\":1}]}".to_vec(),
        active,
        queued: vec![join_request(), evict_request()],
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
        responded: Some(1_233),
        pending_state: Some(b"next".to_vec()),
    };
    let connect = join_propose();
    let sponsor = ProposerRun {
        run: connect.run_id(),
        propose: connect,
        authenticator: [4; 32],
        new_state: Vec::new(),
        responses: [(PartyId::new("customer"), member_respond("customer"))]
            .into_iter()
            .collect(),
    };
    let disconnect = evict_propose();
    let member = RecipientRun {
        run: disconnect.run_id(),
        propose: disconnect,
        my_response: member_respond("customer"),
        responded: None,
        pending_state: None,
    };
    let leaving = LeavingRun {
        request: leave_request(),
        sponsor: PartyId::new("supplier"),
    };
    let fresh = CoreDoc {
        logged: 0,
        founding: Some((group_id(0), state_id(0))),
        queued: Vec::new(),
        ..core_doc(None)
    };
    let detached = CoreDoc {
        agreed_state: Vec::new(),
        detached: true,
        ..fresh.clone()
    };
    let welcome = member_answer(accepted(&["customer", "dispatcher"]), None, None);
    let joined = CoreDoc {
        logged: 7,
        welcome: Some((welcome.answer, welcome.sig)),
        queued: Vec::new(),
        ..core_doc(None)
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
        joined,
    ]
}

#[test]
fn every_checkpoint_document_round_trips() {
    for doc in core_docs() {
        let bytes = doc.to_bytes();
        assert_eq!(CoreDoc::from_bytes(&bytes), Ok(doc));
        assert_eq!(recode(&bytes), Ok(bytes));
    }
}

#[test]
fn damaged_checkpoint_documents_are_rejected_not_misread() {
    for bytes in core_docs().iter().map(CoreDoc::to_bytes) {
        let decode = recode;
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err());
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode(&longer).is_err());
        // A blob in another format is refused at the first byte: the
        // format-5 documents that counted the reply documents the log's
        // records replaced, the format-4 documents that carried the
        // members, the group, the agreed tuple and replay-window entries
        // the log now holds, the format-3 documents whose queue and leaving
        // run held the subject's earlier request messages, the format-2
        // documents whose active run could be a sponsor or member run, the
        // format-1 whole-replica snapshots before those, and the JSON
        // snapshots before those (they start with `{`).
        for other_format in [5, 4, 3, 2, 1, b'{'] {
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
    // The state round's m1 has moved only its format byte since format 1
    // (when the membership round's own messages went, and again when the
    // subject's six became two): with byte 0 set back to 1 the fixture is
    // the format-1 vector (pinned by its digest), and that frame is
    // refused, as is the format-2 one.
    assert_eq!(wire[0], WIRE_FORMAT);
    let mut previous = wire.clone();
    previous[0] = 1;
    assert_eq!(
        sha256(hex::encode(&previous).as_bytes()).to_string(),
        "6a67bc12b9b6a8b6690c8eea707da841f84594a9c6b7782902e4d9ab8f5d7934",
        "the format-1 m1.wire.hex vector"
    );
    assert!(WireMsg::from_bytes(&previous).is_none());
    previous[0] = 2;
    assert!(WireMsg::from_bytes(&previous).is_none());
    let bytes = record.canonical_bytes();
    golden(
        "m1.wal-record",
        include_str!("fixtures/m1.wal-record.hex"),
        &bytes,
    );
    // Its record moved only its format byte when the membership kinds
    // folded into the round's: the format-1 record is refused.
    assert_eq!(bytes[0], RECORD_FORMAT);
    let mut previous = bytes.clone();
    previous[0] = 1;
    assert!(EvidenceRecord::from_canonical(&previous).is_err());
}
