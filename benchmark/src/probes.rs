//! Layer probes: the benchmark times each layer's public function on inputs
//! taken from the workload's own op stream. Traced run only; each probe is
//! one span.

use crate::config::{self, Shape, Workload, CATALOGUE};
use crate::gen::{self, Expect, MixedStream, Model, Op, SyncStream, WindowStream};
use crate::measure::median_call_us;
use crate::trace::SpanBuf;
use b2b_apps::{OrderObject, OrderRoles};
use b2b_core::{B2BObject, Coordinator, CoordinatorConfig, ObjectId};
use b2b_crypto::{sha256, verify_batch, KeyPair, KeyRing, PartyId, SigVerifier, Signer, TimeMs};
use b2b_evidence::{
    EvidenceKind, EvidenceRecord, EvidenceStore, FileStore, LogAuditor, MemStore, SnapshotStore,
};
use b2b_net::{GroupHandle, GroupId, HttpClient, ShardedNet};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Readings = Vec<(&'static str, f64)>;

/// Role names in join order, as `b2b_server::ROLES`.
fn parties(n: usize) -> Vec<PartyId> {
    b2b_server::ROLES[..n]
        .iter()
        .map(|r| PartyId::new(*r))
        .collect()
}

fn roles(p: &[PartyId]) -> OrderRoles {
    if p.len() >= 4 {
        OrderRoles::four_party(p[0].clone(), p[1].clone(), p[2].clone(), p[3].clone())
    } else {
        OrderRoles::two_party(p[0].clone(), p[1].clone())
    }
}

/// `n` valid mutations from the head of the workload's stream.
fn stream_mutations(w: &Workload, seed: u64, n: usize) -> Vec<Op> {
    let mut out = Vec::with_capacity(n);
    match w.shape {
        Shape::SyncHttp => {
            let mut s = SyncStream::new(seed, 0, 1, w.groups);
            out.extend((0..n).map(|_| s.next_op()));
        }
        Shape::BulkHttp | Shape::FleetEngine => {
            let window = if w.shape == Shape::BulkHttp {
                config::BULK_WINDOW
            } else {
                config::FLEET_WINDOW
            };
            let mut s = WindowStream::new(seed, 0, 1, w.groups, window, w.shape == Shape::BulkHttp);
            while out.len() < n {
                out.extend(s.next_window().ops);
            }
            out.truncate(n);
        }
        Shape::MixedHttp => {
            let mut s = MixedStream::new(seed, w.groups);
            while out.len() < n {
                let op = s.next_op();
                if op.expect() == Expect::Installed {
                    out.push(op);
                }
            }
        }
    }
    out
}

/// Which role proposes `op`.
fn proposer_index(op: &Op) -> usize {
    use gen::Action::*;
    match op.action {
        Lines { .. } => 0,
        Price { .. } => 1,
        Approve { .. } => 2,
        Ship => 3,
        _ => unreachable!("probes replay valid mutations only"),
    }
}

/// Probes that need nothing but the op stream: `crypto.*`, `evidence.*`,
/// `apps.*`.
pub fn offline(
    w: &Workload,
    seed: u64,
    calls: usize,
    scratch: &Path,
    spans: &mut SpanBuf,
) -> Readings {
    let ops = stream_mutations(w, seed, calls);
    let ids = parties(w.parties);
    let mut model = Model::seeded(w.groups);
    // (state before, delta, proposer) of every op, replayed in order.
    let inputs: Vec<(Vec<u8>, Vec<u8>, usize)> = ops
        .iter()
        .map(|op| {
            let before = model.orders[op.order].to_bytes();
            model.apply(op);
            (
                before,
                op.delta().expect("mutation").to_bytes(),
                proposer_index(op),
            )
        })
        .collect();
    let mut out = Readings::new();

    let kp = KeyPair::generate_from_seed(4000);
    let pk = kp.public_key();
    let origin = PartyId::new("prober");
    let mut ring = KeyRing::new();
    ring.register(origin.clone(), pk.clone());

    let mut sigs = Vec::with_capacity(inputs.len());
    out.push((
        "crypto.sign_us",
        spans.within("probe.sign", None, 0, || {
            median_call_us(inputs.len(), |i| sigs.push(kp.sign(&inputs[i].1)))
        }),
    ));
    out.push((
        "crypto.verify_us",
        spans.within("probe.verify", None, 0, || {
            median_call_us(inputs.len(), |i| {
                black_box(pk.verify(&inputs[i].1, &sigs[i])).expect("own signature verifies");
            })
        }),
    ));
    out.push((
        "crypto.verify_batch_us_per_sig",
        spans.within("probe.verify_batch", None, 0, || {
            let k = config::PROBE_VERIFY_BATCH;
            median_call_us(inputs.len() / k, |b| {
                let items: Vec<_> = (b * k..(b + 1) * k)
                    .map(|i| (&pk, inputs[i].1.as_slice(), &sigs[i]))
                    .collect();
                black_box(verify_batch(&items)).expect("own signatures verify");
            }) / k as f64
        }),
    ));
    out.push((
        "crypto.sha256_mb_per_s",
        spans.within("probe.sha256", None, 0, || {
            // Order states back to back, as the engine hashes them, 64 KiB
            // per call so the clock read is noise.
            let mut block: Vec<u8> = Vec::with_capacity(65_536 + 1_024);
            for (state, _, _) in inputs.iter().cycle() {
                block.extend_from_slice(state);
                if block.len() >= 65_536 {
                    break;
                }
            }
            let us = median_call_us(512, |_| {
                black_box(sha256(black_box(&block)));
            });
            block.len() as f64 / us
        }),
    ));

    let record = |i: usize| {
        EvidenceRecord::new(
            EvidenceKind::StatePropose,
            "order",
            format!("run{i}"),
            origin.clone(),
            inputs[i].1.clone(),
            Some(sigs[i].clone()),
            None,
            TimeMs(i as u64),
        )
    };
    let mem = MemStore::new();
    out.push((
        "evidence.mem_append_us",
        spans.within("probe.mem_append", None, 0, || {
            median_call_us(inputs.len(), |i| {
                mem.append(record(i)).expect("append");
            })
        }),
    ));
    out.push((
        "evidence.file_append_flush_us",
        spans.within("probe.file_append_flush", None, 0, || {
            let dir = scratch.join("probe-wal");
            let _ = std::fs::remove_dir_all(&dir);
            let store = FileStore::open(&dir)
                .expect("open probe store")
                .group_commit(true);
            let k = config::PROBE_WAL_BATCH;
            let us = median_call_us(inputs.len() / k, |b| {
                for i in b * k..(b + 1) * k {
                    store.append(record(i)).expect("append");
                }
                store.flush().expect("flush");
            });
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            us
        }),
    ));
    out.push((
        "evidence.file_snapshot_put_us",
        spans.within("probe.file_snapshot_put", None, 0, || {
            // What `fleet-durable` keeps off its timed path (`store.rs`): a
            // coordinator's checkpoints, replaced key by key. A put costs
            // forty appends, so it gets an eighth of the calls.
            let dir = scratch.join("probe-snapshots");
            let _ = std::fs::remove_dir_all(&dir);
            let store = FileStore::open(&dir).expect("open probe store");
            let us = median_call_us(inputs.len() / 8, |i| {
                let key = format!("obj-order-reply-{}", i % config::PROBE_SNAPSHOT_KEYS);
                store
                    .put_snapshot(&key, inputs[i].0.clone())
                    .expect("put snapshot");
            });
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            us
        }),
    ));
    out.push((
        "evidence.audit_records_per_s",
        spans.within("probe.audit", None, 0, || {
            let auditor = LogAuditor::new(ring.clone(), None);
            let t = Instant::now();
            let report = auditor.audit(&mem);
            assert!(report.is_clean() && report.total == inputs.len());
            report.total as f64 / t.elapsed().as_secs_f64()
        }),
    ));

    let object = OrderObject::new(roles(&ids));
    out.push((
        "apps.order_validate_us",
        spans.within("probe.order_validate", None, 0, || {
            median_call_us(inputs.len(), |i| {
                let (state, delta, who) = &inputs[i];
                assert!(black_box(object.validate_update(&ids[*who], state, delta)).is_accept());
            })
        }),
    ));
    out.push((
        "apps.order_apply_us",
        spans.within("probe.order_apply", None, 0, || {
            median_call_us(inputs.len(), |i| {
                let (state, delta, _) = &inputs[i];
                black_box(object.apply_update(state, delta)).expect("applies");
            })
        }),
    ));
    out
}

/// `core.engine_round_p50_us`: one group, in-process fabric, `MemStore`,
/// `submit_update` → outcome, one round at a time: the single-node baseline
/// every served number sits on top of.
pub fn engine_round(w: &Workload, seed: u64, rounds: usize, spans: &mut SpanBuf) -> f64 {
    let ids = parties(w.parties);
    let mut ring = KeyRing::new();
    let keys: Vec<KeyPair> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let kp = KeyPair::generate_from_seed(5000 + i as u64);
            ring.register(id.clone(), kp.public_key());
            kp
        })
        .collect();
    let ring = Arc::new(ring);
    let nodes: Vec<Coordinator> = ids
        .iter()
        .zip(&keys)
        .enumerate()
        .map(|(i, (id, kp))| {
            Coordinator::builder(id.clone(), kp.clone())
                .shared_ring(Arc::clone(&ring))
                .config(CoordinatorConfig::default())
                .store(Arc::new(MemStore::new()))
                .seed(70 + i as u64)
                .build()
        })
        .collect();
    let gid = GroupId(0);
    let net = ShardedNet::builder()
        .shards(config::SHARDS)
        .add_group(gid, nodes)
        .spawn()
        .expect("spawn probe net");
    let handles: Vec<GroupHandle<Coordinator>> = ids.iter().map(|id| net.handle(gid, id)).collect();
    let oid = ObjectId::new("order");
    let order_roles = roles(&ids);
    let factory = move || Box::new(OrderObject::new(order_roles.clone())) as Box<dyn B2BObject>;
    {
        let (oid, f) = (oid.clone(), factory.clone());
        handles[0].invoke(move |c, _| c.register_object(oid, Box::new(f)).expect("register"));
    }
    for j in 1..ids.len() {
        let (o, f, sponsor) = (oid.clone(), factory.clone(), ids[j - 1].clone());
        handles[j].invoke(move |c, ctx| {
            c.request_connect(o, Box::new(f), sponsor, ctx)
                .expect("connect")
        });
        let o = oid.clone();
        assert!(handles[j].wait_until(Duration::from_secs(30), move |c| c.is_member(&o)));
    }
    let round = |who: usize, update: Vec<u8>| {
        let h = &handles[who];
        let o = oid.clone();
        let ticket = h
            .invoke(move |c, ctx| c.submit_update(&o, update, ctx))
            .expect("submit");
        assert!(h.wait_until(Duration::from_secs(30), move |c| c
            .outcome_of_ticket(&ticket)
            .is_some()));
        assert!(h
            .read(move |c| c.outcome_of_ticket(&ticket))
            .is_some_and(|o| o.is_installed()));
    };
    for k in 0..CATALOGUE {
        let seed_op = |action| {
            Op { order: 0, action }
                .delta()
                .expect("mutation")
                .to_bytes()
        };
        round(
            0,
            seed_op(gen::Action::Lines {
                item: k,
                qty: gen::seed_qty(0, k),
            }),
        );
    }
    let mut stream = SyncStream::new(seed, 0, 1, 1);
    let us = spans.within("probe.engine_round", None, 0, || {
        median_call_us(rounds, |_| {
            let op = stream.next_op();
            round(
                proposer_index(&op),
                op.delta().expect("mutation").to_bytes(),
            );
        })
    });
    drop(handles);
    net.shutdown();
    us
}

/// Round-trips through the HTTP front of an idle service:
/// `net.httpd_rtt_p50_us` (`GET /healthz`) and `server.read_rtt_idle_p50_us`
/// (`GET /orders/:id` on the stream's orders).
pub fn http_rtts(
    w: &Workload,
    seed: u64,
    calls: usize,
    addr: SocketAddr,
    spans: &mut SpanBuf,
) -> Readings {
    let mut http = HttpClient::connect(addr).expect("connect");
    let healthz = spans.within("probe.httpd_rtt", None, 0, || {
        median_call_us(calls, |_| {
            let (status, _) = http.get("/healthz").expect("healthz");
            assert_eq!(status, 200);
        })
    });
    let orders: Vec<usize> = stream_mutations(w, seed, calls)
        .iter()
        .map(|op| op.order)
        .collect();
    let read = spans.within("probe.read_rtt_idle", None, 0, || {
        median_call_us(orders.len(), |i| {
            let (status, _) = http.get(&format!("/orders/{}", orders[i])).expect("read");
            assert_eq!(status, 200);
        })
    });
    vec![
        ("net.httpd_rtt_p50_us", healthz),
        ("server.read_rtt_idle_p50_us", read),
    ]
}

/// `net.shard_invoke_rtt_p50_us`: `GroupHandle::invoke(|_, _| ())`.
pub fn shard_invoke(h: &GroupHandle<Coordinator>, calls: usize, spans: &mut SpanBuf) -> f64 {
    spans.within("probe.shard_invoke", None, 0, || {
        median_call_us(calls, |_| h.invoke(|_, _| ()))
    })
}
