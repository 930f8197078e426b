//! The paper's quantitative claims, asserted on the simulator in virtual
//! time. Each test is one row of EXPERIMENTS.md's "Quantitative claims"
//! table; E1 (`state_protocol::state_run_costs_3n_minus_3_messages`) and
//! the TTP half of E9 (`ttp_termination::certified_abort_resolves_two_link_delays_after_the_deadline`)
//! live beside the suites that already build their worlds.
//!
//! Completion is measured by stepping the simulator until every party has
//! installed, never by reading the clock after `run_until_quiet`: that
//! also drains the retransmission timers and overstates every latency.

mod common;

use b2b_core::{CoordinatorConfig, DecisionRule, ObjectId, Outcome};
use b2b_crypto::TimeMs;
use b2b_net::FaultPlan;
use b2b_telemetry::names;
use common::*;

/// The reliable layer's retransmission schedule: the first probe 200 ms
/// after the send, each further one doubling the gap up to the 32× (6.4 s)
/// ceiling. Returns the probe instants relative to the send, up to `until`.
fn probe_offsets(until: u64) -> Vec<u64> {
    let (base, ceiling) = (200u64, 200 * 32);
    let (mut gap, mut at, mut out) = (base, 0u64, Vec::new());
    while at <= until {
        at += gap;
        out.push(at);
        gap = (gap * 2).min(ceiling);
    }
    out
}

/// Whether every party of `cluster` holds `state` for `alias`.
fn all_hold(cluster: &Cluster, alias: &str, state: &[u8]) -> bool {
    let oid = ObjectId::new(alias);
    cluster
        .parties
        .iter()
        .all(|p| cluster.net.node(p).agreed_state(&oid).as_deref() == Some(state))
}

/// Steps the simulator until `done` holds; returns the virtual time then.
fn step_until(cluster: &mut Cluster, done: impl Fn(&Cluster) -> bool) -> TimeMs {
    while !done(cluster) {
        assert!(cluster.net.step(), "simulator ran dry before completion");
    }
    cluster.net.now()
}

fn propose_at(cluster: &mut Cluster, who: usize, alias: &str, state: Vec<u8>) -> b2b_core::RunId {
    let oid = ObjectId::new(alias);
    cluster.net.invoke(&party(who), move |c, ctx| {
        c.propose_overwrite(&oid, state, ctx).unwrap()
    })
}

fn retransmits(cluster: &Cluster) -> u64 {
    cluster
        .parties
        .iter()
        .map(|p| {
            let snap = cluster.net.node(p).telemetry().metrics().snapshot();
            snap.counter(names::RETRANSMITS)
        })
        .sum()
}

#[test]
fn e2_state_run_installs_everywhere_after_three_link_delays() {
    // Three steps (m1, m2, m3), each one link delay, whatever the group
    // size: the run is installed at all n parties at exactly 3d.
    for n in [2usize, 4, 8, 16] {
        for d in [1u64, 10, 50] {
            let plan = FaultPlan::new().delay(TimeMs(d), TimeMs(d));
            let mut cluster = Cluster::with_config(n, 2, CoordinatorConfig::default(), plan);
            cluster.setup_object("c", counter_factory);
            let t0 = cluster.net.now();
            propose_at(&mut cluster, 0, "c", enc(5));
            let done = step_until(&mut cluster, |c| all_hold(c, "c", &enc(5)));
            assert_eq!(done - t0, TimeMs(3 * d), "n={n}, d={d} ms");
        }
    }
}

#[test]
fn e3_update_wire_bytes_do_not_grow_with_the_state() {
    // §4.3.1: an update ships the delta, an overwrite the whole state.
    // The figure is every byte on the wire: six data frames, each carrying
    // the ack its reply owes, and the two standalone acks of m3.
    const UPDATE_BYTES: u64 = 3_568;
    let n = 3u64;
    for kib in [1usize, 16, 256, 1024] {
        let size = kib << 10;
        let mut cluster = Cluster::new(n as usize, 3);
        cluster.setup_object("log", append_log_factory);
        let entry = |fill: char, len: usize| fill.to_string().repeat(len);
        let base = serde_json::to_vec(&vec![entry('a', size)]).unwrap();
        cluster.propose(0, "log", base);

        let before = cluster.net.stats().bytes_sent;
        let delta = serde_json::to_vec(&entry('b', 64)).unwrap();
        let oid = ObjectId::new("log");
        let run = cluster.net.invoke(&party(0), move |c, ctx| {
            c.propose_update(&oid, delta, ctx).unwrap()
        });
        cluster.run();
        assert!(cluster.outcome(0, &run).unwrap().is_installed());
        let update = cluster.net.stats().bytes_sent - before;
        assert_eq!(update, UPDATE_BYTES, "update at {kib} KiB of state");

        let mut next: Vec<String> = serde_json::from_slice(&cluster.state(0, "log")).unwrap();
        next.push(entry('c', 64));
        let before = cluster.net.stats().bytes_sent;
        let run = cluster.propose(0, "log", serde_json::to_vec(&next).unwrap());
        assert!(cluster.outcome(0, &run).unwrap().is_installed());
        let overwrite = cluster.net.stats().bytes_sent - before;
        assert!(
            overwrite >= (n - 1) * size as u64,
            "overwrite at {kib} KiB shipped {overwrite} B"
        );
    }
}

#[test]
fn e5_deferred_runs_on_k_objects_overlap_and_awaited_runs_add_up() {
    for k in [1usize, 4, 8, 16] {
        let objects: Vec<String> = (0..k).map(|i| format!("obj{i}")).collect();

        // Awaited one after another: k runs of three link delays each.
        let mut cluster = Cluster::new(2, 5);
        for o in &objects {
            cluster.setup_object(o, counter_factory);
        }
        let t0 = cluster.net.now();
        for o in &objects {
            propose_at(&mut cluster, 0, o, enc(1));
            step_until(&mut cluster, |c| all_hold(c, o, &enc(1)));
        }
        assert_eq!(cluster.net.now() - t0, TimeMs(3 * k as u64), "sync, k={k}");

        // Fired together (deferred): the k runs overlap completely.
        let mut cluster = Cluster::new(2, 6);
        for o in &objects {
            cluster.setup_object(o, counter_factory);
        }
        let t0 = cluster.net.now();
        for o in &objects {
            propose_at(&mut cluster, 0, o, enc(1));
        }
        let done = step_until(&mut cluster, |c| {
            objects.iter().all(|o| all_hold(c, o, &enc(1)))
        });
        assert_eq!(done - t0, TimeMs(3), "deferred, k={k}");
    }
}

#[test]
fn e6_runs_install_at_every_party_under_iid_loss() {
    for loss in [0.0f64, 0.1, 0.3, 0.5] {
        for seed in 100..110u64 {
            let plan = FaultPlan::new()
                .drop_rate(loss)
                .delay(TimeMs(1), TimeMs(10));
            let mut cluster = Cluster::with_config(3, seed, CoordinatorConfig::default(), plan);
            cluster.setup_object("c", counter_factory);
            let run = cluster.propose(0, "c", enc(9));
            for who in 0..3 {
                assert!(
                    cluster.outcome(who, &run).is_some_and(|o| o.is_installed()),
                    "org{who}, loss {loss}, seed {seed}"
                );
            }
        }
    }
}

#[test]
fn e6b_backoff_probes_an_isolated_member_logarithmically() {
    // The proposer's m1 to the isolated member is re-sent on the backoff
    // schedule; the first probe after the heal gets through. A fixed
    // 200 ms interval would have fired outage / 200 ms times instead.
    for (outage, expected) in [(2_000u64, 4u64), (10_000, 6), (30_000, 9)] {
        let mut cluster = Cluster::new(3, 42);
        cluster.setup_object("c", counter_factory);
        let before = retransmits(&cluster);
        let t0 = cluster.net.now();
        cluster
            .net
            .partition([party(2)], [party(0), party(1)], t0 + TimeMs(outage));
        let run = cluster.propose(0, "c", enc(9));
        for who in 0..3 {
            assert!(cluster.outcome(who, &run).unwrap().is_installed());
        }
        let probes = retransmits(&cluster) - before;
        let model = probe_offsets(outage).len() as u64;
        assert_eq!(model, expected, "backoff model across {outage} ms");
        assert_eq!(probes, expected, "probes across a {outage} ms outage");
    }
}

#[test]
fn e7_a_recovered_recipient_installs_at_the_next_probe_plus_three_link_delays() {
    // The recipient crashes 1 ms into the run, before m1 reaches it. Its
    // checkpoint brings it back; the proposer's next m1 probe after the
    // recovery restarts the run, which then takes its three link delays.
    for (downtime, expected) in [(500u64, 103u64), (2_000, 1_003), (10_000, 2_603)] {
        let mut cluster = Cluster::new(2, 7);
        cluster.setup_object("c", counter_factory);
        let t0 = cluster.net.now();
        cluster.net.crash_at(t0 + TimeMs(1), party(1));
        cluster.net.recover_at(t0 + TimeMs(downtime), party(1));
        propose_at(&mut cluster, 0, "c", enc(5));
        let done = step_until(&mut cluster, |c| all_hold(c, "c", &enc(5)));
        let after_recovery = (done - t0).0 - downtime;
        let next_probe = probe_offsets(downtime)
            .into_iter()
            .find(|&at| at >= downtime)
            .unwrap();
        assert!(next_probe - downtime <= 6_400, "bounded by the ceiling");
        assert_eq!(
            after_recovery,
            next_probe - downtime + 3,
            "model, {downtime} ms"
        );
        assert_eq!(after_recovery, expected, "measured, {downtime} ms");
    }
}

#[test]
fn e8_connect_costs_3n_minus_1_and_sponsor_eviction_3m_minus_6() {
    for n in [2usize, 4, 8, 12] {
        let mut cluster = Cluster::new(n + 1, 8);
        cluster.net.invoke(&party(0), |c, _| {
            c.register_object(ObjectId::new("c"), Box::new(counter_factory))
                .unwrap();
        });
        let connect = |cluster: &mut Cluster, joiner: usize| {
            let sponsor = party(joiner - 1);
            cluster.net.invoke(&party(joiner), move |c, ctx| {
                c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                    .unwrap();
            });
            cluster.run();
            assert!(cluster
                .net
                .node(&party(joiner))
                .is_member(&ObjectId::new("c")));
        };
        for joiner in 1..n {
            connect(&mut cluster, joiner);
        }
        // Request, n−1 each of propose, respond and decide, and a welcome.
        let before = cluster.total_protocol_messages();
        connect(&mut cluster, n);
        let connect_msgs = cluster.total_protocol_messages() - before;
        assert_eq!(
            connect_msgs,
            3 * n as u64 - 1,
            "connect into a group of {n}"
        );

        // The sponsor proposes to the m−2 members that stay besides itself.
        let m = n as u64 + 1;
        let before = cluster.total_protocol_messages();
        cluster.net.invoke(&party(n), |c, ctx| {
            c.request_evict(&ObjectId::new("c"), vec![party(0)], ctx)
                .unwrap();
        });
        cluster.run();
        let evict_msgs = cluster.total_protocol_messages() - before;
        assert_eq!(evict_msgs, 3 * (m - 2), "evict one from a group of {m}");
        assert_eq!(cluster.members(n, "c").len(), n);
    }
}

#[test]
fn e9_a_silent_party_is_resolved_exactly_at_the_deadline() {
    for (rule, installs) in [
        (DecisionRule::Unanimous, false),
        (DecisionRule::Majority, true),
    ] {
        for deadline in [500u64, 2_000] {
            let config = CoordinatorConfig::new()
                .decision_rule(rule)
                .run_deadline(TimeMs(deadline));
            let mut cluster = Cluster::with_config(5, 9, config, FaultPlan::default());
            cluster.setup_object("c", counter_factory);
            let t0 = cluster.net.now();
            let others: Vec<_> = (0..4).map(party).collect();
            cluster.net.partition([party(4)], others, TimeMs(u64::MAX));
            let run = propose_at(&mut cluster, 0, "c", enc(5));
            let done = step_until(&mut cluster, |c| c.outcome(0, &run).is_some());
            assert_eq!(done - t0, TimeMs(deadline), "{rule:?}, {deadline} ms");
            let outcome = cluster.outcome(0, &run).unwrap();
            if installs {
                assert!(outcome.is_installed(), "{rule:?}: {outcome:?}");
            } else {
                assert!(matches!(outcome, Outcome::Aborted { .. }), "{outcome:?}");
            }
        }
    }
}
