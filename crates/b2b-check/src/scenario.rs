//! Protocol drives the explorer schedules, including misbehaving insiders.
//!
//! A [`Scenario`] owns everything schedule-independent about a check run:
//! how many organisations, which of them (if any) is a misbehaving
//! insider, which parties the fault generator must leave alone, and how
//! the group is driven. The insider scenarios are executable versions of
//! the paper's §4.4 insider analysis: a *member* of the group — holding a
//! legitimate signing key — crafts proposals that violate exactly one
//! §4.2 acceptance invariant, then completes the 3-step round by forging
//! the unsigned `m3` from the victim's own signed `m2` (captured off the
//! wire, as any Dolev-Yao insider can). On an unmutated build every such
//! attack dies at the victim's §4.2 checks; with the matching check
//! ablated it installs ill-founded state, which the oracles then catch.

use crate::harness::{party, Fleet};
use b2b_core::messages::{
    encode_batch_body, BatchLink, DecideMsg, Proposal, ProposalKind, ProposeMsg, RespondMsg,
    WireMsg,
};
use b2b_core::{MutationFlags, ObjectId, RunId, StateId};
use b2b_crypto::{sha256, CanonicalEncode, Signer};

/// One protocol run a scenario started through the public API.
#[derive(Clone, Debug)]
pub struct DrivenOp {
    /// Index of the proposing party.
    pub proposer: usize,
    /// The run label, or `None` if the coordinator refused the proposal.
    pub run: Option<RunId>,
}

/// A schedulable whole-group protocol drive.
pub trait Scenario: Sync {
    /// Stable identifier (recorded in counterexample artifacts).
    fn id(&self) -> &'static str;
    /// One-line description for CLI listings.
    fn describe(&self) -> &'static str;
    /// Total number of organisations across all groups.
    fn parties(&self) -> usize;
    /// Number of independent coordination groups the organisations are
    /// split into (group-major: `parties() / groups()` members each).
    /// Scenarios with more than one group model the sharded multi-group
    /// runtime inside the deterministic explorer.
    fn groups(&self) -> usize {
        1
    }
    /// Index of the misbehaving insider, if the scenario has one.
    /// Oracles never judge the insider's own replica.
    fn insider(&self) -> Option<usize> {
        None
    }
    /// Party indexes the fault generator must not crash or isolate
    /// (scripted invocations panic on a crashed node).
    fn protected(&self) -> Vec<usize>;
    /// Whether the bounded-envelope liveness oracle applies. Only
    /// meaningful for scenarios without an insider: a forged round that
    /// fizzles is not a liveness failure.
    fn check_liveness(&self) -> bool {
        false
    }
    /// Drives the group (the fleet already has the schedule applied).
    fn drive(&self, fleet: &mut Fleet) -> Vec<DrivenOp>;
}

/// All registered scenarios.
pub fn scenarios() -> Vec<&'static dyn Scenario> {
    vec![
        &TemporalFaults,
        &ShardedPairSmoke,
        &InsiderStalePrev,
        &InsiderSeqJump,
        &InsiderTupleReuse,
        &InsiderBatchForge,
        &InsiderBatchSeqJump,
    ]
}

/// Looks a scenario up by id.
pub fn scenario(id: &str) -> Option<&'static dyn Scenario> {
    scenarios().into_iter().find(|s| s.id() == id)
}

/// The mutation kill matrix: each insider scenario paired with the one
/// `MutationFlags` ablation it is built to expose. The explorer must find
/// and shrink a violation for every row when the flag is set, and report
/// the same seeds clean when it is not.
pub fn kill_matrix() -> Vec<(&'static dyn Scenario, MutationFlags, &'static str)> {
    vec![
        (
            &InsiderStalePrev,
            MutationFlags {
                skip_predecessor: true,
                ..MutationFlags::default()
            },
            "invariant 1 (predecessor)",
        ),
        (
            &InsiderSeqJump,
            MutationFlags {
                skip_sequence: true,
                ..MutationFlags::default()
            },
            "invariant 3 (exact increment)",
        ),
        (
            &InsiderTupleReuse,
            MutationFlags {
                skip_replay: true,
                ..MutationFlags::default()
            },
            "invariant 4 (tuple freshness)",
        ),
        (
            &InsiderBatchForge,
            MutationFlags {
                skip_batch_chain: true,
                ..MutationFlags::default()
            },
            "batch chain (per-update hash chaining)",
        ),
        (
            &InsiderBatchSeqJump,
            MutationFlags {
                skip_sequence: true,
                ..MutationFlags::default()
            },
            "invariant 3 (exact increment at a batch boundary)",
        ),
    ]
}

/// Honest group under temporal faults only: three organisations, the
/// driver proposes a run of counter increments while the generator
/// crashes, partitions and delays the other two. Safety oracles must stay
/// silent and — this being inside the paper's bounded-failure envelope —
/// the liveness oracle must see every run terminate and all parties
/// converge.
pub struct TemporalFaults;

impl Scenario for TemporalFaults {
    fn id(&self) -> &'static str {
        "temporal-faults"
    }
    fn describe(&self) -> &'static str {
        "honest 3-party group under crashes, partitions, loss and intruder delays"
    }
    fn parties(&self) -> usize {
        3
    }
    fn protected(&self) -> Vec<usize> {
        vec![0]
    }
    fn check_liveness(&self) -> bool {
        true
    }
    fn drive(&self, fleet: &mut Fleet) -> Vec<DrivenOp> {
        (1..=3u64)
            .map(|v| DrivenOp {
                proposer: 0,
                run: fleet.propose(0, v),
            })
            .collect()
    }
}

/// The multi-group smoke drive: two *independent* 2-party groups in one
/// simulated process — the explorer's model of the sharded runtime
/// multiplexing co-scheduled groups on a worker pool. Each group's first
/// member proposes an interleaved run of counter values while the fault
/// generator crashes, partitions and delays the non-proposers. Safety
/// oracles are judged per group (divergence, recipient sets and
/// convergence are group-scoped), and liveness demands both groups'
/// rounds terminate — a stall in one group must never be masked by
/// progress in the other.
pub struct ShardedPairSmoke;

impl Scenario for ShardedPairSmoke {
    fn id(&self) -> &'static str {
        "sharded-pair-smoke"
    }
    fn describe(&self) -> &'static str {
        "two independent 2-party groups co-scheduled in one process under temporal faults"
    }
    fn parties(&self) -> usize {
        4
    }
    fn groups(&self) -> usize {
        2
    }
    fn protected(&self) -> Vec<usize> {
        // The two proposers (first member of each group) script the
        // invocations and must stay up.
        vec![0, 2]
    }
    fn check_liveness(&self) -> bool {
        true
    }
    fn drive(&self, fleet: &mut Fleet) -> Vec<DrivenOp> {
        // Alternate the groups' rounds so the plan's crash and partition
        // windows cut across both groups' traffic, not just one's.
        (1..=2u64)
            .flat_map(|v| {
                [0usize, 2].map(|proposer| DrivenOp {
                    proposer,
                    run: fleet.propose(proposer, v),
                })
            })
            .collect()
    }
}

/// §4.2 invariant 1: an insider proposes on top of a *stale* predecessor
/// (the pre-schedule baseline) with an otherwise perfectly valid, freshly
/// numbered proposal — only the predecessor check stands in its way.
pub struct InsiderStalePrev;

impl Scenario for InsiderStalePrev {
    fn id(&self) -> &'static str {
        "insider-stale-prev"
    }
    fn describe(&self) -> &'static str {
        "insider proposes from a stale predecessor (kills: skip_predecessor)"
    }
    fn parties(&self) -> usize {
        2
    }
    fn insider(&self) -> Option<usize> {
        Some(1)
    }
    fn protected(&self) -> Vec<usize> {
        vec![0, 1]
    }
    fn drive(&self, fleet: &mut Fleet) -> Vec<DrivenOp> {
        let ops = vec![DrivenOp {
            proposer: 0,
            run: fleet.propose(0, 1),
        }];
        let stale = fleet.baseline(0);
        let agreed = fleet.agreed_id(0);
        let auth = [0x42u8; 32];
        // Fresh tuple, correct exact-increment seq — but `prev` pins the
        // transition to a predecessor the group has already moved past.
        let m1 = forge_m1(fleet, 1, stale, agreed.seq + 1, b"stale-prev", 2, auth);
        run_forged_round(fleet, 1, 0, &m1, auth);
        ops
    }
}

/// §4.2 invariant 3: an insider proposes from the *current* agreed state
/// but jumps the sequence number by five — only the exact-increment check
/// stands in its way.
pub struct InsiderSeqJump;

impl Scenario for InsiderSeqJump {
    fn id(&self) -> &'static str {
        "insider-seq-jump"
    }
    fn describe(&self) -> &'static str {
        "insider jumps the sequence number (kills: skip_sequence)"
    }
    fn parties(&self) -> usize {
        2
    }
    fn insider(&self) -> Option<usize> {
        Some(1)
    }
    fn protected(&self) -> Vec<usize> {
        vec![0, 1]
    }
    fn drive(&self, fleet: &mut Fleet) -> Vec<DrivenOp> {
        let ops = vec![DrivenOp {
            proposer: 0,
            run: fleet.propose(0, 1),
        }];
        let agreed = fleet.agreed_id(0);
        let auth = [0x51u8; 32];
        let m1 = forge_m1(fleet, 1, agreed, agreed.seq + 5, b"seq-jump", 2, auth);
        run_forged_round(fleet, 1, 0, &m1, auth);
        ops
    }
}

/// §4.2 replay detection (invariant 4): the insider burns a proposal
/// tuple `(seq, H(random))` in a round the application vetoes, then
/// *reuses the same tuple* in a second round carrying different state
/// under a fresh run label — only the tuple-freshness check stands in its
/// way. (The paper: `t_prop` "uniquely labels" each attempted
/// transition; accepting a reused label lets one receipt vouch for two
/// different states.)
pub struct InsiderTupleReuse;

impl Scenario for InsiderTupleReuse {
    fn id(&self) -> &'static str {
        "insider-tuple-reuse"
    }
    fn describe(&self) -> &'static str {
        "insider reuses a burnt proposal tuple (kills: skip_replay)"
    }
    fn parties(&self) -> usize {
        2
    }
    fn insider(&self) -> Option<usize> {
        Some(1)
    }
    fn protected(&self) -> Vec<usize> {
        vec![0, 1]
    }
    fn drive(&self, fleet: &mut Fleet) -> Vec<DrivenOp> {
        let ops = vec![DrivenOp {
            proposer: 0,
            run: fleet.propose(0, 5),
        }];
        let agreed = fleet.agreed_id(0);
        // Round A: a fully §4.2-valid proposal the *application* vetoes
        // (the counter may not decrease), completed honestly with its
        // rejecting m3 — which burns the tuple into the victim's replay
        // window and frees the replica.
        let auth_a = [0xA1u8; 32];
        let m1a = forge_m1(fleet, 1, agreed, agreed.seq + 1, b"reused", 2, auth_a);
        run_forged_round(fleet, 1, 0, &m1a, auth_a);
        // Round B: the same (seq, rand_hash) tuple, now carrying an
        // acceptable state under a fresh authenticator commitment.
        let auth_b = [0xB2u8; 32];
        let m1b = forge_m1(fleet, 1, agreed, agreed.seq + 1, b"reused", 9, auth_b);
        run_forged_round(fleet, 1, 0, &m1b, auth_b);
        ops
    }
}

/// Batched-round §4.2: an insider signs an honest per-update hash chain
/// for the batch `[5, 7]` but ships a body whose second update says `9` —
/// the forged update grows the counter, so only the signed chain (checked
/// per update inside the batch) stands between it and installation. With
/// `skip_batch_chain` ablated the victim replays and installs the forged
/// bytes under the honestly signed tuple, and the held-state
/// well-foundedness oracle convicts the install.
pub struct InsiderBatchForge;

impl Scenario for InsiderBatchForge {
    fn id(&self) -> &'static str {
        "insider-batch-forge"
    }
    fn describe(&self) -> &'static str {
        "insider forges one update inside a signed batch (kills: skip_batch_chain)"
    }
    fn parties(&self) -> usize {
        2
    }
    fn insider(&self) -> Option<usize> {
        Some(1)
    }
    fn protected(&self) -> Vec<usize> {
        vec![0, 1]
    }
    fn drive(&self, fleet: &mut Fleet) -> Vec<DrivenOp> {
        let ops = vec![DrivenOp {
            proposer: 0,
            run: fleet.propose(0, 1),
        }];
        let agreed = fleet.agreed_id(1);
        let auth = [0x63u8; 32];
        let honest = [5u64, 7];
        let forged = [5u64, 9];
        let (mut m1, _) = forge_batch_m1(
            fleet,
            1,
            agreed,
            agreed.seq + 1,
            b"batch-forge",
            &honest,
            auth,
        );
        // Links and signature stay honest; only the unsigned body lies.
        m1.body = encode_batch_body(
            &forged
                .iter()
                .map(|v| serde_json::to_vec(v).unwrap())
                .collect::<Vec<_>>(),
        );
        run_forged_round(fleet, 1, 0, &m1, auth);
        ops
    }
}

/// Batched-round §4.2 invariant 3: the insider numbers a 2-update batch
/// as if the sequence advanced once per update (`agreed + 2`) instead of
/// once per round — the natural batch-boundary off-by-k. Everything else
/// (chain, links, signature, body) is honest, so only the exact-increment
/// check stands in its way; ablated, the victim's install chain skips a
/// sequence number and the history oracle convicts it.
pub struct InsiderBatchSeqJump;

impl Scenario for InsiderBatchSeqJump {
    fn id(&self) -> &'static str {
        "insider-batch-seq-jump"
    }
    fn describe(&self) -> &'static str {
        "insider numbers a batch once per update, not per round (kills: skip_sequence)"
    }
    fn parties(&self) -> usize {
        2
    }
    fn insider(&self) -> Option<usize> {
        Some(1)
    }
    fn protected(&self) -> Vec<usize> {
        vec![0, 1]
    }
    fn drive(&self, fleet: &mut Fleet) -> Vec<DrivenOp> {
        let ops = vec![DrivenOp {
            proposer: 0,
            run: fleet.propose(0, 1),
        }];
        let agreed = fleet.agreed_id(1);
        let auth = [0x71u8; 32];
        let (m1, _) = forge_batch_m1(
            fleet,
            1,
            agreed,
            agreed.seq + 2,
            b"batch-seq-jump",
            &[3u64, 6],
            auth,
        );
        run_forged_round(fleet, 1, 0, &m1, auth);
        ops
    }
}

/// Crafts a validly signed insider *batch* proposal over `values` (each a
/// whole-state replacement for the fleet counter), with an honest
/// per-update hash chain: `links[i] = (H(update_i), H(state_i))` and the
/// proposed tuple's state hash pinned to the chain's end. Returns the
/// message and the chain's final state bytes.
fn forge_batch_m1(
    fleet: &Fleet,
    insider: usize,
    prev: StateId,
    seq: u64,
    rand_tag: &[u8],
    values: &[u64],
    auth: [u8; 32],
) -> (ProposeMsg, Vec<u8>) {
    let object: ObjectId = fleet.object();
    let updates: Vec<Vec<u8>> = values
        .iter()
        .map(|v| serde_json::to_vec(v).unwrap())
        .collect();
    // SharedCell updates are whole-state replacements, so each link's
    // intermediate state is the update itself.
    let links: Vec<BatchLink> = updates
        .iter()
        .map(|u| BatchLink {
            update_hash: sha256(u),
            state_hash: sha256(u),
        })
        .collect();
    let final_state = updates.last().unwrap().clone();
    let group = fleet
        .net
        .node(&party(insider))
        .group(&object)
        .expect("insider is a member");
    let proposal = Proposal {
        object,
        proposer: party(insider),
        group,
        prev,
        proposed: StateId {
            seq,
            rand_hash: sha256(rand_tag),
            state_hash: sha256(&final_state),
        },
        auth_commit: sha256(&auth),
        kind: ProposalKind::Batch { links },
    };
    let sig = fleet.keypair(insider).sign(&proposal.canonical_bytes());
    (
        ProposeMsg {
            proposal,
            body: encode_batch_body(&updates),
            sig,
            memo: Default::default(),
        },
        final_state,
    )
}

/// Crafts a validly signed insider proposal. The insider is a group
/// member: the signature is genuine, the group id correct, the body hash
/// matches — every field honest except the ones the scenario is lying
/// about.
fn forge_m1(
    fleet: &Fleet,
    insider: usize,
    prev: StateId,
    seq: u64,
    rand_tag: &[u8],
    value: u64,
    auth: [u8; 32],
) -> ProposeMsg {
    let object: ObjectId = fleet.object();
    let body = serde_json::to_vec(&value).unwrap();
    let group = fleet
        .net
        .node(&party(insider))
        .group(&object)
        .expect("insider is a member");
    let proposal = Proposal {
        object,
        proposer: party(insider),
        group,
        prev,
        proposed: StateId {
            seq,
            rand_hash: sha256(rand_tag),
            state_hash: sha256(&body),
        },
        auth_commit: sha256(&auth),
        kind: ProposalKind::Overwrite,
    };
    let sig = fleet.keypair(insider).sign(&proposal.canonical_bytes());
    ProposeMsg {
        proposal,
        body,
        sig,
        memo: Default::default(),
    }
}

/// Plays a forged 3-step round end to end: sends the insider's `m1`,
/// lets the net settle, captures the victim's signed `m2` off the wire
/// tap, and — if one appeared — reveals the authenticator in a forged,
/// unsigned `m3` (the paper: "`m3` requires no signature"). Returns the
/// run label when the round got as far as a decide.
fn run_forged_round(
    fleet: &mut Fleet,
    insider: usize,
    victim: usize,
    m1: &ProposeMsg,
    auth: [u8; 32],
) -> Option<RunId> {
    let run = m1.proposal.run_id();
    fleet.send_forged(insider, victim, &WireMsg::Propose(m1.clone()));
    fleet.run();
    let response = victim_response(fleet, &run)?;
    let m3 = DecideMsg {
        object: m1.proposal.object.clone(),
        run,
        authenticator: auth,
        responses: vec![response],
    };
    fleet.send_forged(insider, victim, &WireMsg::Decide(m3));
    fleet.run();
    Some(run)
}

/// The victim's signed `m2` for `run`, captured off the wire tap (the
/// insider controls the network, so a response addressed to it is always
/// observable — even when a fault plan drops the frame, the victim's
/// reliable layer keeps retransmitting until the insider acks).
fn victim_response(fleet: &Fleet, run: &RunId) -> Option<RespondMsg> {
    fleet
        .wire()
        .into_iter()
        .find_map(|(_, _, msg, _)| match msg {
            WireMsg::Respond(r) if r.response.run == *run => Some(r),
            _ => None,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        let all = scenarios();
        assert_eq!(all.len(), 7);
        for s in &all {
            assert_eq!(scenario(s.id()).unwrap().id(), s.id());
            assert!(s.parties() >= 2);
            assert!(s.groups() >= 1);
            assert_eq!(
                s.parties() % s.groups(),
                0,
                "group-major layout needs equal-size groups"
            );
            assert!(
                s.parties() / s.groups() >= 2,
                "every group needs at least two organisations"
            );
            if let Some(i) = s.insider() {
                assert!(i < s.parties());
                assert!(
                    s.protected().contains(&i),
                    "the insider scripts invocations, so it must be protected"
                );
                assert!(
                    !s.check_liveness(),
                    "insider rounds may legitimately fizzle"
                );
            }
            for p in s.protected() {
                assert!(p < s.parties());
            }
        }
        assert!(scenario("no-such-scenario").is_none());
    }

    #[test]
    fn kill_matrix_rows_ablate_exactly_one_check() {
        for (s, flags, label) in kill_matrix() {
            assert!(s.insider().is_some(), "{label} must be an insider scenario");
            let ablated = [
                flags.skip_replay,
                flags.skip_predecessor,
                flags.skip_sequence,
                flags.skip_batch_chain,
            ]
            .iter()
            .filter(|&&b| b)
            .count();
            assert_eq!(ablated, 1, "{label} must ablate exactly one check");
        }
    }
}
