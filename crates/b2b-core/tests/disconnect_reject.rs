//! Regression test for the stuck-`Leaving` leaver (DESIGN.md §7, closed).
//!
//! A voluntary disconnection cannot be vetoed (§4.5.4), but the run can
//! still fail a *consistency* check at a polled member — here, the member
//! is busy with its own coordination run when the sponsor's poll arrives,
//! so it answers "concurrent coordination run active" and the sponsor
//! invalidates the run. Before the fix the sponsor sent nothing back and
//! the leaver's replica hung in `Leaving` forever; now the sponsor sends a
//! signed rejecting `MemberAnswer` and the leaver returns to ordinary membership
//! and may retry.

mod common;

use b2b_core::messages::{MemberAnswer, MemberVerdict};
use b2b_core::ObjectId;
use b2b_crypto::{CanonicalDecode, TimeMs};
use b2b_evidence::{EvidenceKind, EvidenceRecord, EvidenceStore};
use common::{assert_golden, assert_history, assert_shape, counter_factory, party, Cluster, QUIET};

/// Whether `r` is a signed rejecting answer.
fn is_rejection(r: &EvidenceRecord) -> bool {
    r.kind == EvidenceKind::MemberAnswer
        && MemberAnswer::from_canonical(&r.payload)
            .is_ok_and(|a| a.verdict == MemberVerdict::Rejected)
}

#[test]
fn rejected_voluntary_leave_returns_replica_to_member() {
    let mut cluster = Cluster::new(3, 7);
    cluster.setup_object("ledger", counter_factory);
    let oid = ObjectId::new("ledger");

    // Cut org1 off from org2 (the future sponsor) until t=5000. org0 and
    // org2 can still talk, so the leave request reaches the sponsor, but
    // the sponsor's poll of org1 is delayed until after org1 has become
    // busy with its own state-coordination run.
    cluster.net.partition([party(1)], [party(2)], TimeMs(5_000));

    // org0 asks to leave; org2 (most recently joined) sponsors and must
    // poll org1.
    let o = oid.clone();
    cluster.net.invoke(&party(0), move |c, ctx| {
        c.request_disconnect(&o, ctx).unwrap();
    });
    // org1 starts an overwrite run of its own. Its m1 to org2 is dropped
    // by the partition, so org1 is still a busy proposer when the
    // sponsor's retransmitted poll finally gets through.
    let o = oid.clone();
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.propose_overwrite(&o, common::enc(1), ctx).unwrap();
    });
    cluster.run();

    // The run was invalidated at the sponsor — yet the leaver is back to
    // ordinary membership, not stuck in `Leaving`. (Pre-fix: `is_busy`
    // stays true forever and the retry below fails with `Busy`.)
    let n0 = cluster.net.node(&party(0));
    assert!(n0.is_member(&oid), "leaver must still be a member");
    assert!(
        !n0.is_busy(&oid),
        "leaver must not be stuck in Leaving after the sponsor's rejection"
    );

    // The leaver holds the sponsor's signed rejection as evidence.
    let rejects = cluster.stores[&party(0)]
        .records()
        .into_iter()
        .filter(is_rejection)
        .count();
    assert_eq!(rejects, 1, "leaver logs exactly one rejection");
    // ... and so does the sponsor (its own send).
    let sponsor_rejects = cluster.stores[&party(2)]
        .records()
        .into_iter()
        .filter(is_rejection)
        .count();
    assert_eq!(sponsor_rejects, 1, "sponsor logs the rejection it signed");

    // With the partition healed and everyone idle again, the retry
    // completes: the group really does shrink to {org1, org2}.
    let o = oid.clone();
    cluster.net.invoke(&party(0), move |c, ctx| {
        c.request_disconnect(&o, ctx).unwrap();
    });
    cluster.net.run_until_quiet(QUIET);
    assert!(!cluster.net.node(&party(0)).is_member(&oid));
    assert_eq!(cluster.members(1, "ledger"), vec![party(1), party(2)]);
    assert_eq!(cluster.members(2, "ledger"), vec![party(1), party(2)]);
    assert_history(&cluster, "ledger");
    assert_golden(
        &cluster,
        "ledger",
        "1d9d5bdb289ce24a1ff9b555232833b0a09c20d791dea4a32657851b578b8463",
    );
    assert_shape(
        &cluster,
        "ledger",
        "80f00d5e9874775379439e420d56eba6c0e14c02e7f71fe55717f20e06b6b115",
    );
}
