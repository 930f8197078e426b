//! A single-group run on the **sharded multi-group runtime** is
//! indistinguishable — at the evidence layer and in the causal trace
//! DAG — from the same script on the deterministic simulator.
//!
//! The sharded runtime multiplexes group event loops over a fixed worker
//! pool and wraps every frame in a group envelope, so this is the parity
//! claim that licenses running thousands of groups per process: the
//! envelope and the shard scheduler must be invisible to the protocol.
//! The tests drive the Figure-5 scenario with identical key material,
//! seeds and script on (a) the virtual-time simulator, (b) the sharded
//! runtime in process and (c) the sharded runtime over multiplexed
//! loopback sockets, then compare:
//!
//! * per-party **evidence projections** (the signed log minus the two
//!   time-dependent fields) — byte-identical across all three fabrics;
//! * the sorted set of **canonical trace DAGs** (timestamps and concrete
//!   span ids normalised away) — structurally identical;
//! * protocol-semantic **counters** (transport-dependent ones like
//!   retransmits excluded) — exactly equal.
//!
//! Trace roots are content-derived (run-id digests, membership request
//! digests) and span links ride the wire frames, which is why the DAGs
//! can agree once wall-clock time and concrete span ids are normalised
//! away.
//!
//! Two final tests exercise recovery mid-round: a member crashing while
//! a round is in flight, and the multiplexed socket being killed under
//! one; the round still completes everywhere.

mod common;

use b2bobjects::apps::tictactoe::{Board, GameObject, Mark, Players};
use b2bobjects::apps::SharedCell;
use b2bobjects::core::Outcome;
use b2bobjects::crypto::PartyId;
use b2bobjects::telemetry::{assemble, names, MetricsSnapshot, RingRecorder, Telemetry, TraceSink};
use common::{evidence_projection, EvidenceProjection, ShardedWorld, World, SHARD_GROUP, TCP_STEP};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Counters pinned by the protocol script, not the transport: every
/// fabric delivers each message exactly once to the coordination layer.
const PARITY_COUNTERS: &[&str] = &[
    names::ROUNDS_STARTED,
    names::ROUNDS_COMMITTED,
    names::ROUNDS_ABORTED,
    names::VOTES_VALID,
    names::VOTES_INVALID,
    names::MEMBERSHIP_CHANGES,
    names::EVIDENCE_RECORDS_APPENDED,
];

fn game_factory() -> Box<dyn b2bobjects::core::B2BObject> {
    Box::new(GameObject::new(Players {
        cross: PartyId::new("cross"),
        nought: PartyId::new("nought"),
    }))
}

fn recorded_telemetry(n: usize) -> (Arc<RingRecorder>, Vec<Telemetry>) {
    let recorder = Arc::new(RingRecorder::new(65_536));
    let telemetry = (0..n)
        .map(|_| Telemetry::with_sink(recorder.clone() as Arc<dyn TraceSink>))
        .collect();
    (recorder, telemetry)
}

fn harvest(recorder: &RingRecorder, telemetry: &[Telemetry]) -> (Vec<String>, MetricsSnapshot) {
    let mut dags: Vec<String> = assemble(&recorder.events())
        .iter()
        .map(|t| t.canonical_dag())
        .collect();
    dags.sort();
    let mut merged = MetricsSnapshot::default();
    for t in telemetry {
        merged.merge(&t.metrics().snapshot());
    }
    (dags, merged)
}

/// What one fabric run leaves behind: per-party evidence projections,
/// canonical trace DAGs and the merged counter snapshot.
struct RunArtifacts {
    evidence: BTreeMap<PartyId, EvidenceProjection>,
    dags: Vec<String>,
    counters: MetricsSnapshot,
}

/// The Figure-5 move script: three legal moves, then Cross's cheating
/// move, which Nought vetoes. Works against any of the three worlds —
/// they expose the same `share`/`state`/`propose` surface.
macro_rules! play_figure5 {
    ($world:expr) => {{
        $world.share("game", "cross", &["nought"], game_factory);
        for (who, mark, row, col) in [
            ("cross", Mark::X, 1, 1),
            ("nought", Mark::O, 0, 0),
            ("cross", Mark::X, 1, 2),
        ] {
            let mut board = Board::from_bytes(&$world.state(who, "game")).unwrap();
            board.play(mark, row, col).unwrap();
            let (_, outcome) = $world.propose(who, "game", board.to_bytes());
            assert!(outcome.is_installed(), "{who}'s legal move installs");
        }
        let mut cheat = Board::from_bytes(&$world.state("cross", "game")).unwrap();
        cheat.cheat_set(Mark::O, 2, 1);
        let (_, outcome) = $world.propose("cross", "game", cheat.to_bytes());
        assert!(
            matches!(outcome, Outcome::Invalidated { .. }),
            "the cheat is vetoed on every fabric"
        );
    }};
}

/// Collects the artifacts of a finished run from its stores and recorder.
macro_rules! collect {
    ($world:expr, $recorder:expr, $telemetry:expr) => {{
        let evidence = $world
            .stores
            .iter()
            .map(|(p, s)| (p.clone(), evidence_projection(s)))
            .collect();
        let (dags, counters) = harvest(&$recorder, &$telemetry);
        RunArtifacts {
            evidence,
            dags,
            counters,
        }
    }};
}

fn sim_run() -> RunArtifacts {
    let (recorder, telemetry) = recorded_telemetry(2);
    let mut world = World::with_telemetry(&["cross", "nought"], 100, telemetry.clone());
    play_figure5!(world);
    collect!(world, recorder, telemetry)
}

fn sharded_run() -> RunArtifacts {
    let (recorder, telemetry) = recorded_telemetry(2);
    let mut world = ShardedWorld::with_telemetry(&["cross", "nought"], 100, telemetry.clone());
    play_figure5!(world);
    let out = collect!(world, recorder, telemetry);
    world.net.shutdown();
    out
}

fn sharded_tcp_run() -> RunArtifacts {
    let (recorder, telemetry) = recorded_telemetry(2);
    let mut world = ShardedWorld::with_telemetry_tcp(&["cross", "nought"], 100, telemetry.clone());
    play_figure5!(world);
    let out = collect!(world, recorder, telemetry);
    world.net.shutdown();
    out
}

fn assert_parity(reference: &RunArtifacts, sharded: &RunArtifacts, fabric: &str) {
    for (party, projection) in &reference.evidence {
        assert_eq!(
            projection, &sharded.evidence[party],
            "{party}'s evidence log must be byte-identical on {fabric} and sharded runs"
        );
    }
    assert_eq!(
        reference.dags, sharded.dags,
        "{fabric} and sharded runs must reconstruct identical causal DAGs"
    );
    for name in PARITY_COUNTERS {
        assert_eq!(
            reference.counters.counter(name),
            sharded.counters.counter(name),
            "counter {name} must agree between {fabric} and sharded runs"
        );
    }
}

#[test]
fn single_group_sharded_run_matches_sim_evidence_and_traces() {
    let sim = sim_run();
    let sharded = sharded_run();
    // The script pins the trace-set shape: one sponsored connection round
    // plus four state runs (three installs, one veto).
    assert_eq!(
        sharded.dags.len(),
        5,
        "one membership and four state traces"
    );
    assert_eq!(
        sharded
            .dags
            .iter()
            .filter(|d| d.contains("state_run/rollback"))
            .count(),
        1,
        "exactly one round rolls back: Nought's veto of the cheat"
    );
    assert_parity(&sim, &sharded, "sim");
}

#[test]
fn single_group_sharded_tcp_run_matches_sim_evidence_and_traces() {
    // The multiplexed-socket fabric must be just as invisible to the
    // protocol as the in-process one: identical evidence bytes, DAGs
    // and counters against the virtual-time reference.
    let sim = sim_run();
    let mux = sharded_tcp_run();
    assert_eq!(mux.dags.len(), 5, "one membership and four state traces");
    let count = |needle: &str| mux.dags.iter().filter(|d| d.contains(needle)).count();
    assert_eq!(count("membership/connect_request"), 1);
    assert_eq!(count("state_run/propose"), 4);
    assert_parity(&sim, &mux, "sim-vs-sharded-TCP");
}

#[test]
fn sharded_tcp_and_sharded_inproc_runs_are_indistinguishable() {
    let inproc = sharded_run();
    let mux = sharded_tcp_run();
    assert_parity(&inproc, &mux, "sharded-inproc-vs-sharded-TCP");
}

fn cell_factory() -> Box<dyn b2bobjects::core::B2BObject> {
    Box::new(SharedCell::new(0u64))
}

/// `SharedCell` states are serde_json bytes; a `u64`'s are just digits.
fn enc(v: u64) -> Vec<u8> {
    v.to_string().into_bytes()
}

#[test]
fn sharded_member_crashing_mid_round_recovers_and_round_completes() {
    let world = {
        let mut w = ShardedWorld::new(&["a", "b", "c"], 42);
        w.share("cell", "a", &["b", "c"], cell_factory);
        w
    };
    let c = PartyId::new("c");
    // Take c down, then start a round: the proposal reaches a and b but
    // stalls mid-round — the unanimous rule cannot decide without c's
    // vote, and the reliable layer keeps retransmitting into the void.
    world.net.crash(SHARD_GROUP, &c);
    let run = world.propose_async("a", "cell", enc(7));
    std::thread::sleep(Duration::from_millis(400));
    assert!(
        world
            .handle("a")
            .read(move |n| n.outcome_of(&run).is_none()),
        "the round must stall while c is down"
    );
    // Recovery replays the evidence store (membership, checkpoints) and
    // the next retransmission completes the round everywhere.
    world.net.recover(SHARD_GROUP, &c);
    for who in ["a", "b", "c"] {
        assert!(
            world
                .handle(who)
                .wait_until(TCP_STEP, move |n| n.outcome_of(&run).is_some()),
            "{who} never learned the outcome after c recovered"
        );
        let o = world.handle(who).read(move |n| n.outcome_of(&run).cloned());
        assert!(
            o.as_ref().unwrap().is_installed(),
            "{who} must see the round install, got {o:?}"
        );
        assert_eq!(world.state(who, "cell"), enc(7), "{who} converged");
    }
    world.net.shutdown();
}

#[test]
fn killing_the_multiplexed_socket_mid_round_recovers_and_round_completes() {
    // The one socket pair between a and b carries *every* group the two
    // parties share. Killing it mid-round drops whatever frames were in
    // flight; the reliable layer's retransmission must ride the
    // reconnect and complete the round with nothing lost at the
    // protocol layer.
    let world = {
        let mut w = ShardedWorld::new_tcp(&["a", "b", "c"], 42);
        w.share("cell", "a", &["b", "c"], cell_factory);
        w
    };
    let a = PartyId::new("a");
    let b = PartyId::new("b");
    let run = world.propose_async("a", "cell", enc(9));
    // Cut the a<->b socket pair immediately, while the round's frames
    // are (with high probability) still crossing it.
    world.net.kill_connection(&a, &b);
    for who in ["a", "b", "c"] {
        assert!(
            world
                .handle(who)
                .wait_until(TCP_STEP, move |n| n.outcome_of(&run).is_some()),
            "{who} never learned the outcome after the socket was killed"
        );
        let o = world.handle(who).read(move |n| n.outcome_of(&run).cloned());
        assert!(
            o.as_ref().unwrap().is_installed(),
            "{who} must see the round install, got {o:?}"
        );
        assert_eq!(world.state(who, "cell"), enc(9), "{who} converged");
    }
    // At least one side had to re-establish its link.
    let stats = world.net.stats();
    assert!(
        stats.reconnects >= 1,
        "expected a reconnect, stats: {stats:?}"
    );
    world.net.shutdown();
}
