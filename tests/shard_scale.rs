//! E-SHARD: many independent coordination groups multiplexed over one
//! fixed worker pool, in process and over multiplexed loopback TCP.
//!
//! Every group has two parties running the full signed protocol stack.
//! The fleet shares one key ring, one signature-verification pool and one
//! metrics registry, so the per-group cost is the engine state itself.
//! Group members reuse the party names `org0`/`org1` in every group: the
//! runtime's group envelope isolates the groups, so one identity serves
//! in thousands of groups, as one organisation shares thousands of
//! objects.
//!
//! The default test is the completion smoke: every pipelined update
//! installs at 16 and 256 groups, for batch depth k ∈ {1, 16}, on both
//! fabrics. The ignored test sweeps to 10 000 groups and prints the
//! throughput table:
//! `cargo test --release -q --test shard_scale -- --ignored --nocapture`.

use b2bobjects::core::{B2BObject, Coordinator, CoordinatorConfig, Decision, ObjectId, TicketId};
use b2bobjects::crypto::{KeyPair, KeyRing, PartyId, Signer, VerifyPool};
use b2bobjects::net::{GroupHandle, GroupId, ShardedNet, ShardedTcpConfig, ShardedTcpNet};
use b2bobjects::telemetry::{names, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBJECT: &str = "blob";
/// Delta payload of every update.
const CHUNK: usize = 16;
const PER_GROUP: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(600);

fn party(i: usize) -> PartyId {
    PartyId::new(format!("org{i}"))
}

/// A byte blob with true update semantics: an update is a chunk appended
/// to the state, so update runs ship only the chunk.
struct AppendBlob(Vec<u8>);

impl B2BObject for AppendBlob {
    fn get_state(&self) -> Vec<u8> {
        self.0.clone()
    }
    fn apply_state(&mut self, state: &[u8]) {
        self.0 = state.to_vec();
    }
    fn validate_state(&self, _who: &PartyId, _current: &[u8], _proposed: &[u8]) -> Decision {
        Decision::accept()
    }
    fn apply_update(&self, current: &[u8], update: &[u8]) -> Result<Vec<u8>, String> {
        Ok([current, update].concat())
    }
}

fn blob() -> Box<dyn B2BObject> {
    Box::new(AppendBlob(Vec::new()))
}

#[derive(Clone, Copy, Debug)]
enum Fabric {
    Inproc,
    Tcp,
}

enum Net {
    Inproc(ShardedNet<Coordinator>),
    Tcp(ShardedTcpNet<Coordinator>),
}

/// `groups` two-party groups on a default-sized worker pool, every
/// group's `org1` joined to the object `org0` registered.
struct Groups {
    net: Net,
    telemetry: Telemetry,
}

impl Groups {
    fn new(groups: usize, k: usize, fabric: Fabric) -> Groups {
        let telemetry = Telemetry::new();
        let pool = Arc::new(VerifyPool::with_default_parallelism());
        let mut ring = KeyRing::new();
        let keys: Vec<KeyPair> = (0..PER_GROUP)
            .map(|i| {
                let kp = KeyPair::generate_from_seed(1000 + i as u64);
                ring.register(party(i), kp.public_key());
                kp
            })
            .collect();
        let ring = Arc::new(ring);
        let config = CoordinatorConfig::default().batch_max(k);
        let nodes = (0..groups).map(|g| {
            let members = (0..PER_GROUP).map(|i| {
                Coordinator::builder(party(i), keys[i].clone())
                    .shared_ring(Arc::clone(&ring))
                    .config(config.clone())
                    .seed(10 + (g * PER_GROUP + i) as u64)
                    .telemetry(telemetry.clone())
                    .verify_pool(Arc::clone(&pool))
                    .build()
            });
            (GroupId(g as u64), members.collect::<Vec<_>>())
        });
        let net = match fabric {
            Fabric::Inproc => {
                let builder = ShardedNet::builder().telemetry(telemetry.clone());
                let builder = nodes.fold(builder, |b, (gid, members)| b.add_group(gid, members));
                Net::Inproc(builder.spawn().expect("spawn worker pool"))
            }
            Fabric::Tcp => {
                let config = ShardedTcpConfig::new().telemetry(telemetry.clone());
                Net::Tcp(
                    ShardedTcpNet::spawn_loopback_with(nodes.collect(), config)
                        .expect("spawn TCP worker pool"),
                )
            }
        };
        let fleet = Groups { net, telemetry };
        // Register everywhere, then join every group's org1 at once: the
        // membership rounds of all groups run concurrently.
        for g in 0..groups {
            fleet.handle(g, 0).invoke(|c, _| {
                c.register_object(ObjectId::new(OBJECT), Box::new(blob))
                    .unwrap();
            });
        }
        for g in 0..groups {
            fleet.handle(g, 1).invoke(|c, ctx| {
                c.request_connect(ObjectId::new(OBJECT), Box::new(blob), party(0), ctx)
                    .unwrap();
            });
        }
        for g in 0..groups {
            let joined = fleet
                .handle(g, 1)
                .wait_until(TIMEOUT, |c| c.is_member(&ObjectId::new(OBJECT)));
            assert!(joined, "org1 of group {g} failed to join");
        }
        fleet
    }

    fn handle(&self, g: usize, i: usize) -> GroupHandle<Coordinator> {
        let gid = GroupId(g as u64);
        match &self.net {
            Net::Inproc(net) => net.handle(gid, &party(i)),
            Net::Tcp(net) => net.handle(gid, &party(i)),
        }
    }

    /// Submits `n` updates at group `g`'s `org0`; they coalesce into
    /// rounds of up to `k`.
    fn submit(&self, g: usize, n: u64) -> Vec<TicketId> {
        self.handle(g, 0).invoke(move |c, ctx| {
            (0..n)
                .map(|_| {
                    c.submit_update(&ObjectId::new(OBJECT), vec![0xEE; CHUNK], ctx)
                        .unwrap()
                })
                .collect()
        })
    }

    /// Waits until every ticket of group `g` has an outcome; returns how
    /// many installed.
    fn installed(&self, g: usize, tickets: &[TicketId]) -> u64 {
        let h = self.handle(g, 0);
        let done = h.wait_until(TIMEOUT, |c| {
            tickets.iter().all(|t| c.outcome_of_ticket(t).is_some())
        });
        assert!(done, "group {g}: updates did not all complete");
        h.read(|c| {
            tickets
                .iter()
                .filter(|t| c.outcome_of_ticket(t).is_some_and(|o| o.is_installed()))
                .count() as u64
        })
    }

    fn inbox_stalls(&self) -> u64 {
        let snap = self.telemetry.metrics().snapshot();
        snap.counter(names::INBOX_FULL_STALLS)
    }

    fn shutdown(self) {
        match self.net {
            Net::Inproc(net) => net.shutdown(),
            Net::Tcp(net) => net.shutdown(),
        }
    }
}

/// One measured cell of the sweep.
struct Cell {
    updates: u64,
    setup: Duration,
    wall: Duration,
    stalls: u64,
}

impl Cell {
    fn row(&self, groups: &str, k: usize) -> String {
        format!(
            "| {groups} | {k} | {} | {:.0} | {:.0} | {:.1} | {} |",
            self.updates,
            self.setup.as_secs_f64() * 1e3,
            self.wall.as_secs_f64() * 1e3,
            self.updates as f64 / self.wall.as_secs_f64(),
            self.stalls,
        )
    }
}

/// A burst of pipelined updates in every group at batch depth `k`;
/// asserts that every one installs.
fn burst(groups: usize, k: usize, fabric: Fabric) -> Cell {
    // Enough updates per group to fill a batch at k = 16 without making
    // the 10 000-group cell take minutes at k = 1.
    let per_group = if k > 1 { k as u64 } else { 4 };
    let t = Instant::now();
    let fleet = Groups::new(groups, k, fabric);
    let setup = t.elapsed();
    let before = fleet.inbox_stalls();
    let t = Instant::now();
    let tickets: Vec<_> = (0..groups).map(|g| fleet.submit(g, per_group)).collect();
    let installed: u64 = (0..groups).map(|g| fleet.installed(g, &tickets[g])).sum();
    let wall = t.elapsed();
    let updates = groups as u64 * per_group;
    assert_eq!(installed, updates, "{groups} groups, k={k}, {fabric:?}");
    let stalls = fleet.inbox_stalls() - before;
    fleet.shutdown();
    Cell {
        updates,
        setup,
        wall,
        stalls,
    }
}

/// The single-group anchor: one update per signed round, each awaited.
fn sync_anchor(fabric: Fabric) -> Cell {
    const ROUNDS: u64 = 64;
    let t = Instant::now();
    let fleet = Groups::new(1, 1, fabric);
    let setup = t.elapsed();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let tickets = fleet.submit(0, 1);
        assert_eq!(fleet.installed(0, &tickets), 1);
    }
    let wall = t.elapsed();
    let stalls = fleet.inbox_stalls();
    fleet.shutdown();
    Cell {
        updates: ROUNDS,
        setup,
        wall,
        stalls,
    }
}

#[test]
fn every_update_installs_across_hundreds_of_groups_on_both_fabrics() {
    for fabric in [Fabric::Inproc, Fabric::Tcp] {
        for k in [1usize, 16] {
            for groups in [16usize, 256] {
                burst(groups, k, fabric);
            }
        }
    }
}

#[test]
#[ignore = "the 10 000-group sweep takes minutes; run it in release"]
fn sweep_to_ten_thousand_groups() {
    for fabric in [Fabric::Inproc, Fabric::Tcp] {
        println!("\n## E-SHARD — {fabric:?} fabric, {PER_GROUP}-party groups\n");
        println!("| groups | k | updates | setup ms | wall ms | agg updates/s | inbox stalls |");
        println!("|---|---|---|---|---|---|---|");
        println!("{}", sync_anchor(fabric).row("1 (sync anchor)", 1));
        for k in [1usize, 16] {
            for groups in [16usize, 256, 1000, 4000, 10_000] {
                println!("{}", burst(groups, k, fabric).row(&groups.to_string(), k));
            }
        }
    }
}
