//! Pipelined coordination rounds: `submit_updates` queues application
//! updates and the coordinator coalesces up to `batch_max` of them into
//! **one** signed round (one canonical digest, one signature, one
//! multicast, one evidence record). These tests pin the §4.2/§4.4
//! obligations *per update inside the batch*: hash-chain verification,
//! exact-index attribution of a forged update, per-update app vetoes, and
//! the equivalence of a batch of one with a direct `propose_update`.

mod common;

use b2b_core::messages::{decode_batch_body, encode_batch_body, ProposalKind, WireMsg};
use b2b_core::{
    CoordError, Coordinator, CoordinatorConfig, Misbehaviour, ObjectId, Outcome, TicketState,
};
use b2b_crypto::PartyId;
use b2b_net::intruder::{FnIntruder, InterceptAction};
use b2b_net::FaultPlan;
use b2b_telemetry::{names, RingRecorder, Telemetry};
use common::*;
use std::sync::Arc;

/// Reliable-layer frame header: kind(1) + epoch(8) + seq(8) + trace(17).
const FRAME_HEADER: usize = 34;

fn peek(raw: &[u8]) -> Option<WireMsg> {
    if raw.len() <= FRAME_HEADER || raw[0] != 0 {
        return None;
    }
    WireMsg::from_bytes(&raw[FRAME_HEADER..])
}

fn replace_body(raw: &[u8], msg: &WireMsg) -> Vec<u8> {
    let mut out = raw[..FRAME_HEADER].to_vec();
    out.extend_from_slice(&msg.to_bytes());
    out
}

fn entry(s: &str) -> Vec<u8> {
    serde_json::to_vec(&s.to_string()).unwrap()
}

fn entries(state: &[u8]) -> Vec<String> {
    serde_json::from_slice(state).unwrap()
}

#[test]
fn concurrent_deferred_updates_coalesce_into_one_signed_round() {
    let telemetry = Telemetry::default();
    let mut cluster = Cluster::with_config_and_telemetry(
        3,
        301,
        CoordinatorConfig::default(),
        FaultPlan::new(),
        vec![telemetry.clone()],
    );
    cluster.setup_object("log", append_log_factory);
    let before = telemetry.metrics().snapshot();

    // Five updates submitted back-to-back while the first round is in
    // flight: the first dispatches immediately (the object is idle), the other
    // four queue behind the active run and flush as one batched round.
    let oid = ObjectId::new("log");
    let tickets = cluster.net.invoke(&party(0), move |c, ctx| {
        (0..5)
            .map(|i| c.submit_update(&oid, entry(&format!("e{i}")), ctx).unwrap())
            .collect::<Vec<_>>()
    });
    cluster.run();

    let after = telemetry.metrics().snapshot();
    let rounds = after.counter(names::ROUNDS_STARTED) - before.counter(names::ROUNDS_STARTED);
    assert_eq!(rounds, 2, "1 singleton + 1 batch of 4");
    assert_eq!(
        after.counter(names::ROUNDS_COALESCED),
        3,
        "4 updates in one round save 3"
    );
    let occupancy = after.histogram(names::BATCH_OCCUPANCY).expect("observed");
    assert_eq!(occupancy.count, 2);
    assert_eq!(occupancy.sum, 5, "5 updates across 2 rounds");

    // Every ticket resolved to an installing run, and all parties agree on
    // the full ordered log.
    for t in &tickets {
        let outcome = cluster
            .net
            .node(&party(0))
            .outcome_of_ticket(t)
            .expect("resolved");
        assert!(outcome.is_installed(), "{t:?}: {outcome:?}");
    }
    let expected: Vec<String> = (0..5).map(|i| format!("e{i}")).collect();
    for who in 0..3 {
        assert_eq!(entries(&cluster.state(who, "log")), expected);
        assert!(cluster.net.node(&party(who)).detected().is_empty());
    }
    // The two tickets of the same batch share one run.
    let run_of = |t| cluster.net.node(&party(0)).run_of_ticket(t).unwrap();
    assert_ne!(run_of(&tickets[0]), run_of(&tickets[1]));
    assert_eq!(run_of(&tickets[1]), run_of(&tickets[4]));
}

#[test]
fn an_idle_bulk_rides_one_round_per_batch_max_updates() {
    // The pending queue's one dispatch rule: an idle coordinator flushes at
    // once, a flush takes at most `batch_max` updates, and the rest wait
    // for the active round to complete. A bulk that fits rides one round;
    // five updates at `batch_max` 2 ride rounds of 2, 2 and 1.
    for (batch_max, rounds) in [(8, 1), (2, 3)] {
        let telemetry = Telemetry::default();
        let config = CoordinatorConfig::default().batch_max(batch_max);
        let mut cluster = Cluster::with_config_and_telemetry(
            3,
            302,
            config,
            FaultPlan::new(),
            vec![telemetry.clone()],
        );
        cluster.setup_object("log", append_log_factory);
        let before = telemetry.metrics().snapshot();

        let oid = ObjectId::new("log");
        let queued = cluster.net.invoke(&party(0), move |c, ctx| {
            let bulk = (0..5).map(|i| entry(&format!("l{i}"))).collect();
            c.submit_updates(&oid, bulk, ctx).unwrap();
            c.pending_update_count(&oid)
        });
        assert_eq!(
            queued,
            5 - batch_max.min(5),
            "the first flush leaves without waiting"
        );

        cluster.run();
        let after = telemetry.metrics().snapshot();
        assert_eq!(
            after.counter(names::ROUNDS_STARTED) - before.counter(names::ROUNDS_STARTED),
            rounds,
            "batch_max {batch_max}"
        );
        assert_eq!(after.counter(names::ROUNDS_COALESCED), 5 - rounds);
        let expected: Vec<String> = (0..5).map(|i| format!("l{i}")).collect();
        for who in 0..3 {
            assert_eq!(entries(&cluster.state(who, "log")), expected);
        }
    }
}

#[test]
fn pending_queue_backpressure_returns_busy() {
    // Satellite regression: unbounded queueing replaced by a bounded queue
    // with a typed error. `x` dispatches at once and `y`, `z` fill the
    // queue behind its round; a further update, and a bulk that does not
    // fit even an empty queue, bounce with `Busy`, and nothing about the
    // queued work is disturbed.
    let config = CoordinatorConfig::default().pending_updates_max(2);
    let mut cluster = Cluster::with_config(2, 304, config, FaultPlan::new());
    cluster.setup_object("log", append_log_factory);

    let oid = ObjectId::new("log");
    let (oversized, fourth) = cluster.net.invoke(&party(0), move |c, ctx| {
        let oversized = c.submit_updates(&oid, vec![entry("a"), entry("b"), entry("c")], ctx);
        c.submit_update(&oid, entry("x"), ctx).unwrap();
        c.submit_updates(&oid, vec![entry("y"), entry("z")], ctx)
            .unwrap();
        (oversized, c.submit_update(&oid, entry("w"), ctx))
    });
    for bounced in [oversized.map(|_| ()), fourth.map(|_| ())] {
        match bounced {
            Err(CoordError::Busy { object }) => assert_eq!(object, ObjectId::new("log")),
            other => panic!("expected Busy backpressure, got {other:?}"),
        }
    }
    cluster.run();
    assert_eq!(entries(&cluster.state(1, "log")), vec!["x", "y", "z"]);
}

#[test]
fn forged_update_inside_batch_is_detected_attributed_and_rejected() {
    // §4.4 per update inside the batch: the intruder swaps one update in
    // the unsigned batch body. The signed per-update hash chain pins the
    // forgery to its exact index; the recipient vetoes the whole round and
    // no partial state is installed anywhere.
    let mut cluster = Cluster::with_config(2, 305, CoordinatorConfig::default(), FaultPlan::new());
    cluster.setup_object("log", append_log_factory);
    cluster.net.set_intruder(FnIntruder::new(
        |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| match peek(raw) {
            Some(WireMsg::Propose(mut m))
                if matches!(m.proposal.kind, ProposalKind::Batch { .. }) =>
            {
                let mut updates = decode_batch_body(&m.body).expect("batch body decodes");
                updates[1] = entry("forged-entry");
                m.body = encode_batch_body(&updates);
                InterceptAction::Replace(replace_body(raw, &WireMsg::Propose(m)))
            }
            _ => InterceptAction::Deliver,
        },
    ));

    let oid = ObjectId::new("log");
    let tickets = cluster.net.invoke(&party(0), move |c, ctx| {
        let bulk = (0..3).map(|i| entry(&format!("g{i}"))).collect();
        c.submit_updates(&oid, bulk, ctx).unwrap()
    });
    cluster.run();

    // The recipient attributed the mismatch to batch index 1 …
    let hit = cluster
        .net
        .node(&party(1))
        .detected()
        .iter()
        .any(|m| matches!(m, Misbehaviour::BatchedUpdateMismatch { index, .. } if *index == 1));
    assert!(hit, "expected batched-update-mismatch at index 1");
    // … vetoed with the index in the diagnostic …
    let outcome = cluster
        .net
        .node(&party(0))
        .outcome_of_ticket(&tickets[0])
        .expect("resolved");
    match outcome {
        Outcome::Invalidated { vetoers } => {
            assert_eq!(vetoers[0].0, party(1));
            assert!(
                vetoers[0].1.contains("batch[1]"),
                "diagnostic names the offending index: {}",
                vetoers[0].1
            );
        }
        other => panic!("expected invalidation, got {other:?}"),
    }
    // … and neither party installed anything from the poisoned batch.
    for who in 0..2 {
        assert!(entries(&cluster.state(who, "log")).is_empty());
    }
}

#[test]
fn inapplicable_update_fails_its_ticket_without_sinking_the_batch() {
    let mut cluster = Cluster::with_config(2, 306, CoordinatorConfig::default(), FaultPlan::new());
    cluster.setup_object("log", append_log_factory);

    let oid = ObjectId::new("log");
    let tickets = cluster.net.invoke(&party(0), move |c, ctx| {
        // The middle one is not JSON: AppendLog::apply_update rejects it at
        // flush time.
        let bulk = vec![entry("ok-1"), b"\xff\xfe not json".to_vec(), entry("ok-2")];
        c.submit_updates(&oid, bulk, ctx).unwrap()
    });
    let (good1, bad, good2) = (tickets[0], tickets[1], tickets[2]);
    cluster.run();

    let node = cluster.net.node(&party(0));
    assert!(node.outcome_of_ticket(&good1).unwrap().is_installed());
    assert!(node.outcome_of_ticket(&good2).unwrap().is_installed());
    match node.ticket_state(&bad) {
        Some(TicketState::Failed(reason)) => {
            assert!(reason.contains("not applicable"), "{reason}");
        }
        other => panic!("expected failed ticket, got {other:?}"),
    }
    match node.outcome_of_ticket(&bad) {
        Some(Outcome::Aborted { .. }) => {}
        other => panic!("failed ticket reports as aborted, got {other:?}"),
    }
    assert_eq!(entries(&cluster.state(1, "log")), vec!["ok-1", "ok-2"]);
}

/// Runs one submission through `submit_update` (queue → flush-of-one) and
/// an identical scenario through `propose_update`, with flight recorders:
/// a batch of one must be *byte-identical* on the wire and in the causal
/// DAG to the direct, pre-batching proposal path.
#[test]
fn singleton_flush_is_trace_identical_to_direct_propose() {
    let run_one = |submit: bool| {
        let recorders: Vec<Arc<RingRecorder>> =
            (0..2).map(|_| Arc::new(RingRecorder::new(4096))).collect();
        let telemetry: Vec<Telemetry> = recorders
            .iter()
            .map(|r| Telemetry::with_sink(r.clone() as Arc<dyn b2b_telemetry::TraceSink>))
            .collect();
        let mut cluster = Cluster::with_config_and_telemetry(
            2,
            307,
            CoordinatorConfig::default(),
            FaultPlan::new(),
            telemetry,
        );
        cluster.setup_object("log", append_log_factory);
        let oid = ObjectId::new("log");
        cluster.net.invoke(&party(0), move |c, ctx| {
            if submit {
                c.submit_update(&oid, entry("solo"), ctx).unwrap();
            } else {
                c.propose_update(&oid, entry("solo"), ctx).unwrap();
            }
        });
        cluster.run();
        let traces: Vec<String> = recorders.iter().map(|r| r.render()).collect();
        (traces, cluster.state(1, "log"))
    };
    let (traces_direct, state_direct) = run_one(false);
    let (traces_submitted, state_submitted) = run_one(true);
    assert_eq!(state_direct, state_submitted);
    assert_eq!(
        traces_direct, traces_submitted,
        "a flush of one must leave the identical causal trace as propose_update"
    );
}

/// Satellite pin: the *same script* executed unbatched (batch_max=1) and
/// batched (batch_max=8) reaches the same final state with zero §4.4
/// detections on every party, and each round's causal DAG keeps the same
/// propose→respond→decide shape — batching changes how many rounds run,
/// never what a round looks like or what detection sees.
#[test]
fn batched_and_unbatched_scripts_agree_on_state_and_detection() {
    let run_script = |batch_max: usize| {
        let recorder = Arc::new(RingRecorder::new(16_384));
        let telemetry = Telemetry::with_sink(recorder.clone());
        let config = CoordinatorConfig::default().batch_max(batch_max);
        let mut cluster = Cluster::with_config_and_telemetry(
            3,
            308,
            config,
            FaultPlan::new(),
            vec![telemetry.clone(), telemetry.clone(), telemetry.clone()],
        );
        cluster.setup_object("log", append_log_factory);
        let oid = ObjectId::new("log");
        cluster.net.invoke(&party(0), move |c, ctx| {
            let bulk = (0..8).map(|i| entry(&format!("s{i}"))).collect();
            c.submit_updates(&oid, bulk, ctx).unwrap();
        });
        cluster.run();
        let detections: usize = (0..3)
            .map(|i| cluster.net.node(&party(i)).detected().len())
            .sum();
        let dags: Vec<String> = b2b_telemetry::assemble(&recorder.events())
            .iter()
            .map(|t| t.canonical_dag())
            .collect();
        (cluster.state(0, "log"), detections, dags)
    };

    let (state_k1, det_k1, dags_k1) = run_script(1);
    let (state_k8, det_k8, dags_k8) = run_script(8);

    let expected: Vec<String> = (0..8).map(|i| format!("s{i}")).collect();
    assert_eq!(entries(&state_k1), expected);
    assert_eq!(state_k1, state_k8, "same agreed bytes at k=1 and k=8");
    assert_eq!(det_k1, 0);
    assert_eq!(det_k8, 0, "batching must not trip §4.4 detection");

    // k=1 runs the script as eight rounds, k=8 as one — but every
    // state-round DAG has the same canonical shape (the round structure is
    // batch-size invariant). State-round DAG shapes form a set of size 1.
    let state_shapes = |dags: &[String]| {
        dags.iter()
            .filter(|d| d.contains("state_run"))
            .cloned()
            .collect::<std::collections::BTreeSet<_>>()
    };
    let shapes_k1 = state_shapes(&dags_k1);
    let shapes_k8 = state_shapes(&dags_k8);
    assert!(!shapes_k1.is_empty());
    assert_eq!(
        shapes_k1, shapes_k8,
        "per-round causal DAG shape is identical whether a round carries 1 or 8 updates"
    );
}

/// Makes a causal DAG independent of the order sibling responses arrive
/// in. A proposer's span that follows a response — collecting the vote,
/// and after the last one deciding — hangs off that response, so which
/// response the decide hangs off is whichever arrived last: on TCP,
/// thread scheduling. Such a span (one whose parent is another party's
/// `state_run/respond` answering a span of its own party) is re-parented
/// onto the span the responses answer.
fn join_sibling_responses(events: &[b2b_telemetry::TraceEvent]) -> Vec<b2b_telemetry::TraceEvent> {
    // span id → (party, parent span, is a response)
    let mut spans: std::collections::HashMap<u64, (&str, u64, bool)> = Default::default();
    for e in events {
        let span = spans
            .entry(e.span_id)
            .or_insert((e.party.as_str(), 0, false));
        if span.1 == 0 {
            span.1 = e.parent_span;
        }
        span.2 |= e.span == "state_run" && e.phase == "respond";
    }
    let mut joined = events.to_vec();
    for e in &mut joined {
        if let Some(&(responder, answered, true)) = spans.get(&e.parent_span) {
            if responder != e.party && spans.get(&answered).is_some_and(|a| a.0 == e.party) {
                e.parent_span = answered;
            }
        }
    }
    joined
}

/// The same batched script over the deterministic simulator and over real
/// TCP loopback sockets: identical agreed state, zero detections, and the
/// batched round reconstructs the same canonical causal DAG on both
/// fabrics, up to the order in which sibling responses arrive.
#[test]
fn batched_round_parity_sim_vs_tcp() {
    use b2b_crypto::{KeyPair, KeyRing, Signer};
    use b2b_net::{GroupId, ShardedTcpConfig, ShardedTcpNet};

    let n = 3;
    let config = CoordinatorConfig::default();

    // --- sim fabric ---
    let sim_recorder = Arc::new(RingRecorder::new(16_384));
    let sim_tel = Telemetry::with_sink(sim_recorder.clone());
    let mut cluster = Cluster::with_config_and_telemetry(
        n,
        309,
        config.clone(),
        FaultPlan::new(),
        vec![sim_tel.clone(), sim_tel.clone(), sim_tel.clone()],
    );
    cluster.setup_object("log", append_log_factory);
    let oid = ObjectId::new("log");
    cluster.net.invoke(&party(0), move |c, ctx| {
        let bulk = (0..6).map(|i| entry(&format!("p{i}"))).collect();
        c.submit_updates(&oid, bulk, ctx).unwrap();
    });
    cluster.run();
    let sim_state = cluster.state(0, "log");
    let sim_detections: usize = (0..n)
        .map(|i| cluster.net.node(&party(i)).detected().len())
        .sum();

    // --- tcp loopback fabric ---
    let tcp_recorder = Arc::new(RingRecorder::new(16_384));
    let tcp_tel = Telemetry::with_sink(tcp_recorder.clone());
    let mut ring = KeyRing::new();
    let mut keys = Vec::new();
    for i in 0..n {
        let kp = KeyPair::generate_from_seed(1000 + i as u64);
        ring.register(party(i), kp.public_key());
        keys.push(kp);
    }
    let nodes: Vec<Coordinator> = keys
        .into_iter()
        .enumerate()
        .map(|(i, kp)| {
            Coordinator::builder(party(i), kp)
                .ring(ring.clone())
                .config(config.clone())
                .seed(309 + i as u64)
                .telemetry(tcp_tel.clone())
                .build()
        })
        .collect();
    let net = ShardedTcpNet::spawn_loopback_with(
        vec![(GroupId(0), nodes)],
        ShardedTcpConfig::new().shards(1),
    )
    .expect("loopback sockets");
    net.handle(GroupId(0), &party(0)).invoke(|c, _| {
        c.register_object(ObjectId::new("log"), Box::new(append_log_factory))
            .unwrap();
    });
    for i in 1..n {
        let sponsor = party(i - 1);
        net.handle(GroupId(0), &party(i)).invoke(move |c, ctx| {
            c.request_connect(
                ObjectId::new("log"),
                Box::new(append_log_factory),
                sponsor,
                ctx,
            )
            .unwrap();
        });
        let joined = net
            .handle(GroupId(0), &party(i))
            .wait_until(std::time::Duration::from_secs(10), |c| {
                c.is_member(&ObjectId::new("log"))
            });
        assert!(joined, "org{i} failed to join over tcp");
    }
    net.handle(GroupId(0), &party(0)).invoke(|c, ctx| {
        let bulk = (0..6).map(|i| entry(&format!("p{i}"))).collect();
        c.submit_updates(&ObjectId::new("log"), bulk, ctx).unwrap();
    });
    let expected: Vec<String> = (0..6).map(|i| format!("p{i}")).collect();
    for i in 0..n {
        let expect = expected.clone();
        let converged = net.handle(GroupId(0), &party(i)).wait_until(
            std::time::Duration::from_secs(10),
            move |c| {
                c.agreed_state(&ObjectId::new("log"))
                    .map(|s| entries(&s) == expect)
                    .unwrap_or(false)
            },
        );
        assert!(converged, "org{i} did not converge over tcp");
    }
    let tcp_state = net
        .handle(GroupId(0), &party(0))
        .read(|c| c.agreed_state(&ObjectId::new("log")).unwrap());
    let tcp_detections: usize = (0..n)
        .map(|i| {
            net.handle(GroupId(0), &party(i))
                .read(|c| c.detected().len())
        })
        .sum();
    net.shutdown();

    assert_eq!(entries(&sim_state), expected);
    assert_eq!(sim_state, tcp_state, "same agreed bytes on both fabrics");
    assert_eq!(sim_detections, 0);
    assert_eq!(tcp_detections, 0);

    // The batched rounds' causal DAGs: same canonical shapes on both
    // fabrics (trace ids are content-derived, so shape comparison needs no
    // id translation), up to the order of sibling responses.
    let shapes = |events: &[b2b_telemetry::TraceEvent]| {
        b2b_telemetry::assemble(&join_sibling_responses(events))
            .iter()
            .map(|t| t.canonical_dag())
            .filter(|d| d.contains("state_run"))
            .collect::<std::collections::BTreeSet<_>>()
    };
    let sim_shapes = shapes(&sim_recorder.events());
    let tcp_shapes = shapes(&tcp_recorder.events());
    assert!(!sim_shapes.is_empty());
    assert_eq!(
        sim_shapes, tcp_shapes,
        "sim and tcp reconstruct the same causal DAG for the batched rounds"
    );
}

/// Group-commit alignment (§4.4 non-repudiation): a batch of `k` updates
/// is ONE protocol round, so the proposer's append-only log gains exactly
/// one `StatePropose` and one `StateDecide` record for it — not `k` — and
/// each recipient logs exactly one `StateRespond`. The evidence log grows
/// with rounds, not with application updates.
#[test]
fn a_batched_round_appends_one_evidence_record_per_protocol_step() {
    use b2b_evidence::{EvidenceKind, EvidenceStore};

    let mut cluster = Cluster::with_config(3, 307, CoordinatorConfig::default(), FaultPlan::new());
    cluster.setup_object("log", append_log_factory);

    // 1 singleton round + 1 batched round of 4 (same shape as the
    // coalescing test above).
    let oid = ObjectId::new("log");
    let tickets = cluster.net.invoke(&party(0), move |c, ctx| {
        (0..5)
            .map(|i| c.submit_update(&oid, entry(&format!("e{i}")), ctx).unwrap())
            .collect::<Vec<_>>()
    });
    cluster.run();

    let proposer_records = cluster.net.node(&party(0)).evidence().records();
    let count = |kind: EvidenceKind| proposer_records.iter().filter(|r| r.kind == kind).count();
    assert_eq!(
        count(EvidenceKind::StatePropose),
        2,
        "2 rounds, not 5 updates"
    );
    assert_eq!(count(EvidenceKind::StateDecide), 2);

    // The batch run specifically: one record per protocol step per party.
    let batch_run = cluster
        .net
        .node(&party(0))
        .run_of_ticket(&tickets[1])
        .unwrap()
        .to_hex();
    let batch_records = cluster
        .net
        .node(&party(0))
        .evidence()
        .records_for_run(&batch_run);
    let per_kind = |kind: EvidenceKind| batch_records.iter().filter(|r| r.kind == kind).count();
    assert_eq!(
        per_kind(EvidenceKind::StatePropose),
        1,
        "one m1 covers all 4 updates"
    );
    assert_eq!(
        per_kind(EvidenceKind::StateRespond),
        2,
        "one logged receipt per peer"
    );
    assert_eq!(per_kind(EvidenceKind::StateDecide), 1);
    assert_eq!(
        per_kind(EvidenceKind::Checkpoint),
        1,
        "one install for the whole batch"
    );
    assert_eq!(batch_records.len(), 5);
    for who in 1..3 {
        let recs = cluster
            .net
            .node(&party(who))
            .evidence()
            .records_for_run(&batch_run);
        let responds = recs
            .iter()
            .filter(|r| r.kind == EvidenceKind::StateRespond)
            .count();
        assert_eq!(responds, 1, "party {who}: one receipt for the whole batch");
    }
}
