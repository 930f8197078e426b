//! The Figure-5 scenario reconstructs the **same causal DAG** regardless
//! of the fabric underneath.
//!
//! Trace roots are content-derived (run-id digests, membership request
//! digests) and span links are carried in the wire frames, so the
//! distributed traces assembled from the flight recorders of a simulated
//! run and a real TCP-loopback run of the same script (one group on the
//! multiplexed-socket runtime, `ShardedTcpNet`) must be
//! structurally identical once wall-clock time is normalised away —
//! which is exactly what [`canonical_dag`] does: it omits timestamps,
//! details and concrete span ids and keeps only parties, span names and
//! parent/child edges.
//!
//! Counters are compared over a whitelist of protocol-semantic names:
//! transport-dependent counters (retransmits, dedup drops, `tcp_*`) are
//! legitimately different across fabrics and stay out of the comparison.
//!
//! [`canonical_dag`]: b2bobjects::telemetry::DistributedTrace::canonical_dag

mod common;

use b2bobjects::apps::tictactoe::{Board, GameObject, Mark, Players};
use b2bobjects::core::Outcome;
use b2bobjects::crypto::PartyId;
use b2bobjects::telemetry::{assemble, names, MetricsSnapshot, RingRecorder, Telemetry, TraceSink};
use common::{ShardedWorld, World};
use std::sync::Arc;

/// Counters whose values are decided by the protocol script, not by the
/// transport: both fabrics deliver every message exactly once to the
/// coordination layer, so these must agree exactly.
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

/// One fleet-wide flight recorder plus a per-party telemetry handle
/// feeding it.
fn recorded_telemetry(n: usize) -> (Arc<RingRecorder>, Vec<Telemetry>) {
    let recorder = Arc::new(RingRecorder::new(65_536));
    let telemetry = (0..n)
        .map(|_| Telemetry::with_sink(recorder.clone() as Arc<dyn TraceSink>))
        .collect();
    (recorder, telemetry)
}

/// The sorted set of canonical DAGs assembled from a recorder, plus the
/// fleet-merged counter snapshot.
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

/// The Figure-5 move script: three legal moves, then Cross's cheating
/// move, which Nought vetoes.
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

#[test]
fn sim_and_tcp_runs_reconstruct_the_same_causal_dag() {
    let (sim_dags, sim_counters) = {
        let (recorder, telemetry) = recorded_telemetry(2);
        let mut world = World::with_telemetry(&["cross", "nought"], 100, telemetry.clone());
        play_figure5!(world);
        harvest(&recorder, &telemetry)
    };

    let (tcp_dags, tcp_counters) = {
        let (recorder, telemetry) = recorded_telemetry(2);
        let mut world =
            ShardedWorld::with_telemetry_tcp(&["cross", "nought"], 100, telemetry.clone());
        play_figure5!(world);
        let out = harvest(&recorder, &telemetry);
        world.net.shutdown();
        out
    };

    // The script pins the shape of the trace set: one sponsored
    // connection round plus four state runs (three installs, one veto).
    assert_eq!(sim_dags.len(), 5, "one membership and four state traces");
    assert_eq!(
        sim_dags
            .iter()
            .filter(|d| d.contains("membership/connect_request"))
            .count(),
        1
    );
    assert_eq!(
        sim_dags
            .iter()
            .filter(|d| d.contains("state_run/propose"))
            .count(),
        4
    );
    assert_eq!(
        sim_dags
            .iter()
            .filter(|d| d.contains("state_run/rollback"))
            .count(),
        1,
        "exactly one round rolls back: Nought's veto of the cheat"
    );
    assert_eq!(
        sim_dags, tcp_dags,
        "sim and TCP must reconstruct identical causal DAGs"
    );
    for name in PARITY_COUNTERS {
        assert_eq!(
            sim_counters.counter(name),
            tcp_counters.counter(name),
            "counter {name} must agree across fabrics"
        );
    }
}
