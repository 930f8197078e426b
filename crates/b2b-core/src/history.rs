//! One party's log, read as a history.
//!
//! §4.1: logged evidence "can be used in extra-protocol arbitration to
//! resolve disputes". [`check`] folds one party's log for one object, from
//! its founding or the answer that welcomed it to its last record, into
//! what the log proves the party installed, up to the first record that
//! does not fit. Three callers judge through it: the arbiter,
//! `b2b-check`'s oracles, and crash recovery, which rebuilds a replica's
//! group, agreed tuple, replay window and re-reply ring from the
//! [`History`] of the party's own log (DESIGN §8, §13): a completed run's
//! re-reply is the party's own record that carries it — the decide of a
//! round it proposed, its response in one it was polled in. A decide
//! installs when its response set carries the decision under the round's
//! rule — the rule the caller names for a state round, unanimity for a
//! membership change — and installs nothing otherwise (a veto, the
//! proposer's deadline abort); a signed TTP resolution ends a round as it
//! says; a proposal that polls nobody installs at once — in a party's own
//! log it is the party's own, for a recipient does not log a proposal that
//! does not poll it.

use crate::config::DecisionRule;
use crate::ids::{GroupId, ObjectId, RunId, StateId};
use crate::messages::{
    DecideMsg, MemberAnswer, MemberChange, MemberRequest, MemberVerdict, Proposal, ProposalKind,
    Response, TtpResolution, TtpVerdict,
};
use crate::replica::seen_tuple;
use crate::tally;
use b2b_crypto::{sha256, CanonicalDecode, Digest32, KeyRing, PartyId, PublicKey};
use b2b_evidence::{verify_record, EvidenceKind, EvidenceRecord, EvidenceStore, RecordFault};
use std::collections::HashMap;

/// One install in a party's history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Install {
    /// Sequence number of the record that installed it.
    pub record: u64,
    /// That record's kind: a decide, a proposal that polled nobody, a TTP
    /// resolution, or the answer that admitted the party or let it leave.
    pub by: EvidenceKind,
    /// The agreed tuple after the install; a membership change keeps it.
    pub tuple: StateId,
    /// The members after the install, in join order.
    pub members: Vec<PartyId>,
    /// The group after the install.
    pub group: GroupId,
    /// The round that agreed it.
    pub run: RunId,
}

/// A proposal the log holds, as the party's replay window saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seen {
    /// Sequence number of the record that holds it.
    pub record: u64,
    /// The run label.
    pub run: RunId,
    /// The proposed `(seq, rand_hash)` of a state proposal.
    pub tuple: Option<(u64, Digest32)>,
    /// The agreed sequence number when the log took it in.
    pub at: u64,
}

/// The first record a history cannot account for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Sequence number of the record.
    pub record: u64,
    /// What is wrong with it.
    pub kind: FaultKind,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record {}: {}", self.record, self.kind)
    }
}

/// What is wrong with a record.
#[derive(Clone, Debug, PartialEq, Eq, thiserror::Error)]
pub enum FaultKind {
    /// The log's sequence numbers skip, repeat or reorder this record.
    #[error("record missing, repeated or out of place")]
    OutOfPlace,
    /// Its signature or time-stamp fails.
    #[error("{0}")]
    Record(RecordFault),
    /// Its signer is not the party its payload names.
    #[error("signed by another than the party it names")]
    Origin,
    /// Its payload is not what a record of its kind holds.
    #[error("undecodable {0} payload")]
    Undecodable(EvidenceKind),
    /// It ends a run with no proposal before it, or one already ended.
    #[error("ends a run with no open round")]
    NoOpenRound,
    /// It installs or checkpoints outside the party's membership.
    #[error("outside the party's membership")]
    NotMember,
    /// Its decide reveals an authenticator the proposal did not commit to.
    #[error("authenticator does not match the commitment")]
    Authenticator,
    /// Its decide's response set fails the tally.
    #[error("response set refused: {0:?}")]
    ResponseSet(tally::Fault),
    /// It installs a proposal of another group, or a membership change
    /// that does not move the group as the change says.
    #[error("installs a proposal that does not fit the group")]
    Group,
    /// It installs over the first tuple while the history holds the second.
    #[error("installs over prev {0:?} while holding {1:?}")]
    Predecessor(StateId, Box<StateId>),
    /// It installs the first sequence number where the second was due.
    #[error("installs seq {0} where {1} was due")]
    Sequence(u64, u64),
    /// It installs a tuple (of this seq) that an earlier run proposed.
    #[error("installs the tuple (seq {0}) of earlier {1}")]
    TupleReuse(u64, RunId),
    /// A checkpoint of the first tuple while the history holds the second.
    #[error("checkpoint {0:?} while holding {1:?}")]
    Checkpoint(StateId, Box<StateId>),
    /// An accepted answer that matches no round or request in the log.
    #[error("accepted answer matches no round or request")]
    Answer,
}

/// What a log proves: its installs, in log order, up to its first fault,
/// and what recovery reads besides.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History {
    /// The installs before the fault, or all of them.
    pub installs: Vec<Install>,
    /// The first record the history cannot account for, if any.
    pub fault: Option<Fault>,
    /// The sequence number of the record that ended each round the log
    /// ended, by run; an answer to a membership request is filed under the
    /// request's digest.
    pub ended: HashMap<RunId, u64>,
    /// The proposals of the party's current membership, in log order,
    /// after the run that welcomed it if it joined: its replay window
    /// before expiry.
    pub seen: Vec<Seen>,
    /// Each round a decide ended, in log order, with the sequence number
    /// of the owner's own record that carries its reply: the decide of a
    /// round it proposed, its response in one it was polled in. Only
    /// recovery, which names the owner, reads it.
    pub replies: Vec<(RunId, u64)>,
}

/// Folds `log`'s records for `object`, verifying each against `ring` and,
/// when given, the TSA's `tsa_key`, up to the first fault. A decide of a
/// state round installs under `rule`.
pub fn check(
    log: &dyn EvidenceStore,
    object: &ObjectId,
    ring: &KeyRing,
    tsa_key: Option<&PublicKey>,
    rule: DecisionRule,
) -> History {
    fold(&log.records(), object, ring, tsa_key, rule, None)
}

/// [`check`] over records already read from the log of `owner`, when
/// named: then [`History::replies`] is filled in too.
pub(crate) fn fold(
    records: &[EvidenceRecord],
    object: &ObjectId,
    ring: &KeyRing,
    tsa_key: Option<&PublicKey>,
    rule: DecisionRule,
    owner: Option<&PartyId>,
) -> History {
    let mut fold = Fold {
        rule,
        owner: owner.cloned(),
        ..Fold::default()
    };
    let fault = (0u64..).zip(records).find_map(|(expected, record)| {
        let step = if record.seq != expected {
            Err(FaultKind::OutOfPlace)
        } else if record.object != object.as_str() {
            Ok(())
        } else {
            verify_record(record, ring, tsa_key)
                .map_err(FaultKind::Record)
                .and_then(|()| fold.step(record, object, ring))
        };
        let record = record.seq.min(expected);
        step.err().map(|kind| Fault { record, kind })
    });
    History {
        fault,
        ..fold.history
    }
}

/// What the log has established about the group.
struct Group {
    id: GroupId,
    members: Vec<PartyId>,
    tuple: StateId,
}

#[derive(Default)]
struct Fold {
    /// The rule a state round's decide installs under.
    rule: DecisionRule,
    /// The party whose log this is, if known.
    owner: Option<PartyId>,
    /// The owner's response in each open round, by run.
    responded: HashMap<RunId, u64>,
    /// `None` before the founding or welcome, and after the party left.
    group: Option<Group>,
    /// Every proposal in the log, and whether its round has ended.
    rounds: HashMap<RunId, (Proposal, bool)>,
    /// The first run to propose each state tuple `(seq, H(random))`.
    tuples: HashMap<(u64, Digest32), RunId>,
    /// The membership requests in the log, by digest.
    requests: HashMap<Digest32, MemberRequest>,
    history: History,
}

fn decode<T: CanonicalDecode>(r: &EvidenceRecord) -> Result<T, FaultKind> {
    T::from_canonical(&r.payload).map_err(|_| FaultKind::Undecodable(r.kind))
}

/// `r`'s verified signer is `named`.
fn signed_by(r: &EvidenceRecord, named: &PartyId) -> Result<(), FaultKind> {
    (r.origin == *named).then_some(()).ok_or(FaultKind::Origin)
}

impl Fold {
    fn step(
        &mut self,
        r: &EvidenceRecord,
        object: &ObjectId,
        ring: &KeyRing,
    ) -> Result<(), FaultKind> {
        match r.kind {
            EvidenceKind::StatePropose => {
                let p: Proposal = decode(r)?;
                signed_by(r, &p.proposer)?;
                let run = RunId::from_bytes(&r.payload);
                // Only the founder logs a proposal of its genesis group.
                if self.group.is_none()
                    && p.group.seq == 0
                    && p.group.identifies(std::slice::from_ref(&p.proposer))
                    && p.prev.seq == 0
                {
                    let (id, members, tuple) = (p.group, vec![p.proposer.clone()], p.prev);
                    self.group = Some(Group { id, members, tuple });
                }
                let tuple = seen_tuple(&p);
                let at = self.group.as_ref().map_or(0, |g| g.tuple.seq);
                let record = r.seq;
                (self.history.seen).push(Seen {
                    record,
                    run,
                    tuple,
                    at,
                });
                if self.rounds.contains_key(&run) {
                    return Ok(()); // logged again: a replay, or after a crash
                }
                if let Some(tuple) = tuple {
                    self.tuples.entry(tuple).or_insert(run);
                }
                let unpolled =
                    (self.group.as_ref()).is_some_and(|g| p.polled(&g.members).is_empty());
                self.rounds.insert(run, (p, false));
                if unpolled {
                    self.end(run, r, true)?;
                }
                Ok(())
            }
            EvidenceKind::StateDecide => {
                let d: DecideMsg = decode(r)?;
                let (p, g) = self.open(&d.run)?;
                if sha256(&d.authenticator) != p.auth_commit {
                    return Err(FaultKind::Authenticator);
                }
                let polled = p.polled(&g.members);
                tally::check_set(
                    &d.responses,
                    d.run,
                    object,
                    &polled,
                    true,
                    |v| v.response.proposed == p.proposed,
                    |items| {
                        items.iter().try_for_each(|(party, bytes, _, sig)| {
                            (ring.verify_for(party, bytes, sig)).map_err(|_| party.clone())
                        })
                    },
                )
                .map_err(FaultKind::ResponseSet)?;
                let rule = tally::rule_for(self.rule, &p.kind);
                let (accepted, _) = tally::decide(rule, polled.len() + 1, &d.responses);
                let reply = match &self.owner {
                    Some(owner) if *owner == r.origin => Some(r.seq),
                    _ => self.responded.remove(&d.run),
                };
                self.history.replies.extend(reply.map(|seq| (d.run, seq)));
                self.end(d.run, r, accepted)
            }
            // A member's own appeal, or the resolution of the TTP, which is
            // no member and signs it.
            EvidenceKind::TtpAbort => match &self.group {
                Some(g) if !g.members.contains(&r.origin) => {
                    if r.signature.is_none() {
                        let kind = r.kind.name().to_string();
                        return Err(FaultKind::Record(RecordFault::MissingSignature(kind)));
                    }
                    let resolution: TtpResolution = decode(r)?;
                    self.open(&resolution.run)?;
                    let valid = resolution.verdict == TtpVerdict::CertifiedValid;
                    self.end(resolution.run, r, valid)
                }
                _ => Ok(()),
            },
            EvidenceKind::Checkpoint => {
                let logged: StateId = decode(r)?;
                let held = self.group.as_ref().ok_or(FaultKind::NotMember)?.tuple;
                if logged != held {
                    return Err(FaultKind::Checkpoint(logged, Box::new(held)));
                }
                Ok(())
            }
            EvidenceKind::MemberRequest => {
                let request: MemberRequest = decode(r)?;
                signed_by(r, &request.requester)?;
                self.requests.insert(sha256(&r.payload), request);
                Ok(())
            }
            EvidenceKind::MemberAnswer => self.answer(r),
            EvidenceKind::StateRespond if self.owner.as_ref() == Some(&r.origin) => {
                if let Ok(response) = Response::from_canonical(&r.payload) {
                    self.responded.insert(response.run, r.seq);
                }
                Ok(())
            }
            EvidenceKind::StateRespond | EvidenceKind::Misbehaviour => Ok(()),
        }
    }

    /// The open round of `run` and the group it runs in.
    fn open(&self, run: &RunId) -> Result<(&Proposal, &Group), FaultKind> {
        let (p, _) = (self.rounds.get(run).filter(|r| !r.1)).ok_or(FaultKind::NoOpenRound)?;
        Ok((p, self.group.as_ref().ok_or(FaultKind::NotMember)?))
    }

    /// Ends the round of `run` at record `r`, installing its proposal if
    /// `installs`.
    fn end(&mut self, run: RunId, r: &EvidenceRecord, installs: bool) -> Result<(), FaultKind> {
        let (p, ended) = self.rounds.get_mut(&run).ok_or(FaultKind::NoOpenRound)?;
        *ended = true;
        self.history.ended.insert(run, r.seq);
        if !installs {
            return Ok(());
        }
        let g = self.group.as_mut().ok_or(FaultKind::NotMember)?;
        if p.group != g.id || !g.members.contains(&p.proposer) {
            return Err(FaultKind::Group);
        }
        if p.prev != g.tuple {
            return Err(FaultKind::Predecessor(p.prev, Box::new(g.tuple)));
        }
        match &p.kind {
            ProposalKind::Member {
                requester,
                change,
                new_group,
                ..
            } => {
                let leavers = change.leavers(requester);
                let next = change.new_members(requester, &g.members);
                let sponsor = g.members.iter().rev().find(|m| !leavers.contains(m));
                let moved = match change {
                    MemberChange::Join => !g.members.contains(requester),
                    _ => leavers.iter().all(|m| g.members.contains(m)),
                };
                if !moved
                    || p.proposed != p.prev
                    || sponsor != Some(&p.proposer)
                    || new_group.seq != g.id.seq + 1
                    || !new_group.identifies(&next)
                {
                    return Err(FaultKind::Group);
                }
                (g.id, g.members) = (*new_group, next);
            }
            _ => {
                let seq = p.proposed.seq;
                if seq != g.tuple.seq + 1 {
                    return Err(FaultKind::Sequence(seq, g.tuple.seq + 1));
                }
                match self.tuples.get(&(seq, p.proposed.rand_hash)) {
                    Some(earlier) if *earlier != run => {
                        return Err(FaultKind::TupleReuse(seq, *earlier))
                    }
                    _ => g.tuple = p.proposed,
                }
            }
        }
        self.history.installs.push(install(r, g, run));
        Ok(())
    }

    /// A member answer, signed by the sponsor it names. An accepted one for
    /// a round in the log is the sponsor's copy, and names the group that
    /// round installed; one from the newest old member for a join the log
    /// requested welcomes a party not yet in a group, and one for its leave
    /// ends its membership.
    fn answer(&mut self, r: &EvidenceRecord) -> Result<(), FaultKind> {
        let answer: MemberAnswer = decode(r)?;
        signed_by(r, &answer.sponsor)?;
        let request = RunId(answer.request_digest);
        self.history.ended.insert(request, r.seq);
        let MemberVerdict::Accepted {
            run,
            group,
            members,
            agreed,
        } = answer.verdict
        else {
            return Ok(());
        };
        if let Some((_, ended)) = self.rounds.get(&run) {
            let installed = *ended && self.group.as_ref().is_some_and(|g| g.id == group);
            return installed.then_some(()).ok_or(FaultKind::Answer);
        }
        let request = self.requests.get(&answer.request_digest);
        let joined = match request.map(|q| (&q.change, &q.requester)) {
            Some((MemberChange::Join, subject))
                if self.group.is_none()
                    && members.ends_with(&[answer.sponsor.clone(), subject.clone()])
                    && group.identifies(&members) =>
            {
                true
            }
            Some((MemberChange::Leave, _)) if self.group.is_some() => false,
            _ => return Err(FaultKind::Answer),
        };
        let (id, tuple) = (group, agreed);
        let g = Group { id, members, tuple };
        self.history.installs.push(install(r, &g, run));
        if joined {
            // A new membership: its window starts at the welcome.
            let (record, at) = (r.seq, tuple.seq);
            let tuple = None;
            self.history.seen = vec![Seen {
                record,
                run,
                tuple,
                at,
            }];
        }
        self.group = joined.then_some(g);
        Ok(())
    }
}

/// The install at record `r` of `run`, leaving the group at `g`.
fn install(r: &EvidenceRecord, g: &Group, run: RunId) -> Install {
    Install {
        record: r.seq,
        by: r.kind,
        tuple: g.tuple,
        members: g.members.clone(),
        group: g.id,
        run,
    }
}
