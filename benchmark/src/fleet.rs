//! `fleet-durable`: engine level, no HTTP. Two-party groups over loopback
//! TCP (`ShardedTcpNet`), every coordinator's evidence in a group-commit
//! `FileStore` (snapshots in memory, see `store.rs`), then the crash/recover
//! and torn-tail reopen fault phases.

use crate::config::{self, Workload, CATALOGUE};
use crate::gen::{self, Model, Rng, Window, WindowStream};
use crate::measure::{Kind, Sample};
use crate::oracle::{self, StoreMark};
use crate::plan::{join_clients, walk_boundaries, Measured, Plan};
use crate::store::WalStore;
use crate::trace::{SpanBuf, TraceSwitch};
use b2b_apps::{OrderObject, OrderRoles, OrderUpdate};
use b2b_core::{B2BObject, Coordinator, CoordinatorConfig, ObjectId, TicketId};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, VerifyPool};
use b2b_evidence::{EvidenceStore, FileStore, LogAuditor};
use b2b_net::{GroupHandle, GroupId, ShardedTcpConfig, ShardedTcpNet};
use b2b_telemetry::Telemetry;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn org(i: usize) -> PartyId {
    PartyId::new(format!("org{i}"))
}

fn object_id() -> ObjectId {
    ObjectId::new("order")
}

/// A set-up fleet.
pub struct Fleet {
    net: ShardedTcpNet<Coordinator>,
    /// `stores[group][party]`.
    stores: Vec<Vec<Arc<WalStore>>>,
    /// Snapshot puts of every store so far.
    snapshot_puts: Arc<AtomicU64>,
    ring: KeyRing,
    pub telemetry: Telemetry,
    pub setup_s: f64,
}

/// What the stores took in over the timed slices.
#[derive(Clone, Copy, Default)]
pub struct StoreDelta {
    pub wal_bytes: u64,
    pub snapshot_puts: u64,
}

/// Groups joined (then seeded) at a time during set-up.
const SETUP_WAVE: usize = 32;

fn store_dir(root: &Path, g: usize, p: usize) -> PathBuf {
    root.join(format!("g{g}")).join(format!("org{p}"))
}

fn fleet_dir(root: &Path, setup: usize) -> PathBuf {
    root.join(format!("fleet{setup}"))
}

/// The directory the fleets of one run keep their stores in, with the store
/// directories of [`config::SETUPS_MAX`] set-ups made and every
/// `evidence.wal` in them there and empty, so that a set-up opens
/// 2 x groups empty logs and makes no inode. Runs reuse the tree and only
/// truncate, never unlink. When each set-up made its 1 280 inodes and each
/// run began by removing the previous run's, opening the 512 stores took
/// 25 ms or 500 ms depending on how many runs had come before (the reference
/// box's ext4 has no journal, and without one ext4 scans past inodes freed in
/// the last 5 s rather than reuse them), and `setup_s` went from 0.25 s to
/// 1 s over eight runs. The last run's logs (about 350 MB) stay in
/// git-ignored `benchmark/out/`.
pub fn store_root(w: &Workload) -> PathBuf {
    let root = crate::out_dir().join(format!("tmp-{}", w.name));
    for i in 0..config::SETUPS_MAX {
        for g in 0..w.groups {
            for p in 0..w.parties {
                let dir = store_dir(&fleet_dir(&root, i), g, p);
                std::fs::create_dir_all(&dir).expect("create store directory");
                std::fs::File::create(dir.join("evidence.wal")).expect("empty evidence.wal");
            }
        }
    }
    root
}

fn all_installed(h: &GroupHandle<Coordinator>, tickets: &[TicketId]) -> bool {
    h.read(|c| {
        tickets
            .iter()
            .all(|t| c.outcome_of_ticket(t).is_some_and(|o| o.is_installed()))
    })
}

fn await_installed(h: &GroupHandle<Coordinator>, tickets: &[TicketId], timeout: Duration) -> bool {
    let done = h.wait_until(timeout, |c| {
        tickets.iter().all(|t| c.outcome_of_ticket(t).is_some())
    });
    done && all_installed(h, tickets)
}

fn submit(h: &GroupHandle<Coordinator>, updates: Vec<Vec<u8>>) -> Vec<TicketId> {
    let oid = object_id();
    h.invoke(move |c, ctx| c.submit_updates(&oid, updates, ctx))
        .expect("window fits under pending_updates_max")
}

fn window_bytes(win: &Window) -> Vec<Vec<u8>> {
    win.ops
        .iter()
        .map(|op| op.delta().expect("windows hold mutations").to_bytes())
        .collect()
}

/// Builds set-up number `nth` of the run on its empty stores under `root`
/// (see [`store_root`]), joins every group and seeds every order's catalogue.
pub fn setup(w: &Workload, root: &Path, nth: usize, spans: &mut SpanBuf) -> Fleet {
    let dir = fleet_dir(root, nth);
    let telemetry = Telemetry::new();
    let t = Instant::now();
    let open = spans.open("setup.start", None, 0);

    let mut ring = KeyRing::new();
    let keys: Vec<KeyPair> = (0..w.parties)
        .map(|i| {
            let kp = KeyPair::generate_from_seed(3000 + i as u64);
            ring.register(org(i), kp.public_key());
            kp
        })
        .collect();
    let shared_ring = Arc::new(ring.clone());
    let pool = Arc::new(VerifyPool::new(config::VERIFY_POOL));
    let snapshot_puts = Arc::new(AtomicU64::new(0));
    let mut stores = Vec::with_capacity(w.groups);
    let mut groups = Vec::with_capacity(w.groups);
    for g in 0..w.groups {
        let mut group_stores = Vec::with_capacity(w.parties);
        let nodes = (0..w.parties)
            .map(|i| {
                let store = Arc::new(WalStore::new(
                    FileStore::open(store_dir(&dir, g, i))
                        .expect("open evidence store")
                        .group_commit(true)
                        .with_telemetry(telemetry.clone()),
                    Arc::clone(&snapshot_puts),
                ));
                group_stores.push(Arc::clone(&store));
                Coordinator::builder(org(i), keys[i].clone())
                    .shared_ring(Arc::clone(&shared_ring))
                    .config(CoordinatorConfig::default().batch_max(w.batch_max))
                    .store(store)
                    .seed(10 + (g * w.parties + i) as u64)
                    .telemetry(telemetry.clone())
                    .verify_pool(Arc::clone(&pool))
                    .build()
            })
            .collect();
        stores.push(group_stores);
        groups.push((GroupId(g as u64), nodes));
    }
    let net = ShardedTcpNet::spawn_loopback_with(
        groups,
        ShardedTcpConfig::new()
            .shards(config::SHARDS)
            .telemetry(telemetry.clone()),
    )
    .expect("spawn loopback fleet");

    let roles = OrderRoles::two_party(org(0), org(1));
    let factory = move || Box::new(OrderObject::new(roles.clone())) as Box<dyn B2BObject>;
    for g in 0..w.groups {
        let f = factory.clone();
        net.handle(GroupId(g as u64), &org(0)).invoke(move |c, _| {
            c.register_object(object_id(), Box::new(f))
                .expect("register order object");
        });
    }
    // Joins and seeding go out in waves: all 256 groups at once queue more
    // work on the shard workers than they clear in the reliable layer's
    // 200 ms retransmit interval, and set-up time then swings with how many
    // frames were re-sent.
    let all: Vec<usize> = (0..w.groups).collect();
    for wave in all.chunks(SETUP_WAVE) {
        for &g in wave {
            let f = factory.clone();
            net.handle(GroupId(g as u64), &org(1))
                .invoke(move |c, ctx| {
                    c.request_connect(object_id(), Box::new(f), org(0), ctx)
                        .expect("request connect");
                });
        }
        for &g in wave {
            let joined = net
                .handle(GroupId(g as u64), &org(1))
                .wait_until(Duration::from_secs(120), |c| c.is_member(&object_id()));
            assert!(joined, "org1 of group {g} failed to join");
        }
    }
    spans.close(open);

    spans.within("setup.seed", None, 0, || {
        for wave in all.chunks(SETUP_WAVE) {
            let pending: Vec<_> = wave
                .iter()
                .map(|&g| {
                    let h = net.handle(GroupId(g as u64), &org(0));
                    let updates = (0..CATALOGUE)
                        .map(|k| {
                            OrderUpdate::SetQuantity {
                                item: gen::item_name(k),
                                qty: gen::seed_qty(g, k),
                            }
                            .to_bytes()
                        })
                        .collect();
                    let tickets = submit(&h, updates);
                    (g, h, tickets)
                })
                .collect();
            for (g, h, tickets) in &pending {
                assert!(
                    await_installed(h, tickets, Duration::from_secs(120)),
                    "group {g}: catalogue did not install"
                );
            }
        }
    });
    Fleet {
        net,
        stores,
        snapshot_puts,
        ring,
        telemetry,
        setup_s: t.elapsed().as_secs_f64(),
    }
}

impl Fleet {
    /// Bytes flushed to every `evidence.wal` so far.
    pub fn wal_bytes(&self) -> u64 {
        self.stores
            .iter()
            .flatten()
            .map(|s| {
                std::fs::metadata(s.wal().dir().join("evidence.wal"))
                    .map(|m| m.len())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// An idle engine handle for the `shard_invoke_rtt` probe.
    pub fn probe_handle(&self) -> GroupHandle<Coordinator> {
        self.net.handle(GroupId(0), &org(0))
    }

    /// Runs warm-up and slices: each submitter pushes one window at a time
    /// through `invoke(submit_updates)` and waits for all its tickets.
    /// Returns what the stores took in between the first and last boundary
    /// beside the rest.
    pub fn run(
        &self,
        w: &Workload,
        seed: u64,
        plan: &Plan,
        switch: &TraceSwitch,
    ) -> (Measured, Model, StoreDelta) {
        let clients = config::load_threads();
        let t0 = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let groups = w.groups;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stop = Arc::clone(&stop);
                let mut spans = switch.buf(c as u32 + 1);
                let engines: Vec<_> = (0..groups)
                    .map(|g| self.net.handle(GroupId(g as u64), &org(0)))
                    .collect();
                std::thread::spawn(move || {
                    let mut stream =
                        WindowStream::new(seed, c, clients, groups, config::FLEET_WINDOW, false);
                    let mut samples = Vec::new();
                    let mut op_id = (c as u64 + 1) << 40;
                    while !stop.load(Ordering::Relaxed) {
                        let win = stream.next_window();
                        let h = &engines[win.order];
                        op_id += 1;
                        let start = t0.elapsed().as_nanos() as u64;
                        let root = spans.open("op.window", None, op_id);
                        let tickets = spans.within("window.submit", root.id(), op_id, || {
                            submit(h, window_bytes(&win))
                        });
                        let ok = spans.within("window.await", root.id(), op_id, || {
                            await_installed(h, &tickets, Duration::from_secs(30))
                        });
                        spans.close(root);
                        if !ok {
                            eprintln!("window on group {} did not install", win.order);
                        }
                        let done = t0.elapsed().as_nanos() as u64;
                        samples.push(Sample {
                            at_ns: done,
                            latency_ns: done - start,
                            lag_ns: 0,
                            kind: Kind::Write,
                            installed: if ok { win.ops.len() as u32 } else { 0 },
                            ok,
                        });
                    }
                    (samples, spans, stream.model)
                })
            })
            .collect();
        // WAL sizes are read just inside the first and last boundary; the
        // stat sweep is 2 × groups cheap syscalls.
        crate::measure::sleep_until(t0, plan.warmup);
        let wal_before = self.wal_bytes();
        let puts_before = self.snapshot_puts.load(Ordering::Relaxed);
        let (bounds, registry_before, registry_after) =
            walk_boundaries(plan, t0, switch, &self.telemetry);
        let puts_after = self.snapshot_puts.load(Ordering::Relaxed);
        let wal_after = self.wal_bytes();
        stop.store(true, Ordering::Relaxed);

        let (samples, spans, model) = join_clients(handles, groups);
        (
            Measured {
                samples,
                bounds,
                registry_before,
                registry_after,
                spans,
            },
            model,
            StoreDelta {
                wal_bytes: wal_after.saturating_sub(wal_before),
                snapshot_puts: puts_after - puts_before,
            },
        )
    }

    /// Oracles on the live fleet: both parties of every group hold the
    /// model's bytes, and every store audits clean.
    pub fn check(&self, w: &Workload, model: &Model) -> Vec<String> {
        let mut misses = Vec::new();
        let mut actual = Vec::with_capacity(w.groups);
        for g in 0..w.groups {
            let mut parties = Vec::with_capacity(w.parties);
            for p in 0..w.parties {
                let h = self.net.handle(GroupId(g as u64), &org(p));
                let idle = h.wait_until(Duration::from_secs(30), |c| {
                    c.pending_update_count(&object_id()) == 0 && !c.is_busy(&object_id())
                });
                if !idle {
                    misses.push(format!("group {g} org{p} did not go idle"));
                }
                parties.push(h.read(|c| c.agreed_state(&object_id())));
            }
            actual.push(parties);
        }
        misses.extend(oracle::check_states(model, &actual));
        let auditor = LogAuditor::new(self.ring.clone(), None);
        let dirty = self
            .stores
            .iter()
            .flatten()
            .filter(|s| !auditor.audit(s.wal()).is_clean())
            .count();
        if dirty > 0 {
            misses.push(format!("{dirty} live evidence stores fail the audit"));
        }
        misses
    }

    /// Fault phase (a): crash org1 in a seeded sample of groups, submit one
    /// window to each at org0, recover after [`config::FAULT_DOWNTIME`] and
    /// time recover-call → window installed per group. Returns the
    /// blackouts in ms; the model gains the windows.
    pub fn crash_and_recover(
        &self,
        w: &Workload,
        seed: u64,
        model: &mut Model,
        spans: &mut SpanBuf,
    ) -> (Vec<f64>, Vec<String>) {
        let mut rng = Rng::lane(seed, 900);
        let mut victims: Vec<usize> = (0..w.groups).collect();
        for i in 0..config::FAULT_GROUPS.min(w.groups) {
            let j = i + rng.below((victims.len() - i) as u64) as usize;
            victims.swap(i, j);
        }
        victims.truncate(config::FAULT_GROUPS.min(w.groups));

        let mut stream = WindowStream::new(seed, 0, 1, w.groups, config::FLEET_WINDOW, false);
        stream.model = model.clone();
        let crash = spans.open("fault.crash", None, 0);
        for &g in &victims {
            self.net.crash(GroupId(g as u64), &org(1));
        }
        let mut pending = Vec::with_capacity(victims.len());
        for &g in &victims {
            let win = stream.window_on(g, false);
            let h = self.net.handle(GroupId(g as u64), &org(0));
            let tickets = submit(&h, window_bytes(&win));
            pending.push((g, h, tickets));
        }
        std::thread::sleep(config::FAULT_DOWNTIME);
        spans.close(crash);
        *model = stream.model;

        let recover = spans.open("fault.recover", None, 0);
        let recovered_at: Vec<Instant> = victims
            .iter()
            .map(|&g| {
                let at = Instant::now();
                self.net.recover(GroupId(g as u64), &org(1));
                at
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut blackout_ms: Vec<Option<f64>> = vec![None; victims.len()];
        while blackout_ms.iter().any(Option::is_none) && Instant::now() < deadline {
            for (i, (_, h, tickets)) in pending.iter().enumerate() {
                if blackout_ms[i].is_none() && all_installed(h, tickets) {
                    blackout_ms[i] = Some(recovered_at[i].elapsed().as_secs_f64() * 1e3);
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        spans.close(recover);
        let mut misses = Vec::new();
        for (i, b) in blackout_ms.iter().enumerate() {
            if b.is_none() {
                misses.push(format!(
                    "group {} never installed after recover",
                    pending[i].0
                ));
            }
        }
        (blackout_ms.into_iter().flatten().collect(), misses)
    }

    /// Fault phase (b): shut down, append a seeded partial garbage frame to
    /// every `evidence.wal` (a torn in-flight append), time
    /// `FileStore::open` over every store, check and audit them. Returns
    /// `(records replayed per second of open, total records)`.
    pub fn torn_tail_reopen(self, seed: u64, spans: &mut SpanBuf) -> (f64, usize, Vec<String>) {
        let Fleet {
            net, stores, ring, ..
        } = self;
        net.shutdown();
        // Closing a store flushes its last group-commit batch; only then is
        // its record count the flushed count.
        let marks: Vec<(PathBuf, StoreMark)> = stores
            .into_iter()
            .flatten()
            .map(|s| {
                let (path, records) = (s.wal().dir().to_path_buf(), s.len());
                assert_eq!(
                    Arc::strong_count(&s),
                    1,
                    "store still shared after shutdown"
                );
                drop(s);
                let mark = StoreMark::of_closed(&path, records);
                (path, mark)
            })
            .collect();

        let mut rng = Rng::lane(seed, 901);
        for (path, _) in &marks {
            // A frame header promising more body than follows.
            let body_len = 64 + rng.below(192) as u32;
            let torn = rng.below(body_len as u64 - 1) as usize + 1;
            let mut tail = Vec::with_capacity(8 + torn);
            tail.extend_from_slice(&body_len.to_be_bytes());
            tail.extend_from_slice(&(rng.next_u64() as u32).to_be_bytes());
            tail.extend((0..torn).map(|_| rng.next_u64() as u8));
            std::fs::OpenOptions::new()
                .append(true)
                .open(path.join("evidence.wal"))
                .and_then(|mut f| f.write_all(&tail))
                .expect("append torn tail");
        }

        let reopen = spans.open("fault.reopen", None, 0);
        let t = Instant::now();
        let reopened: Vec<FileStore> = marks
            .iter()
            .map(|(path, _)| FileStore::open(path).expect("reopen evidence store"))
            .collect();
        let open_s = t.elapsed().as_secs_f64();
        spans.close(reopen);

        let mut misses = Vec::new();
        let mut total = 0;
        let auditor = LogAuditor::new(ring, None);
        let audit = spans.open("fault.audit", None, 0);
        for ((path, mark), store) in marks.iter().zip(&reopened) {
            total += store.len();
            misses.extend(oracle::check_reopened(path, mark, store));
            if !auditor.audit(store).is_clean() {
                misses.push(format!(
                    "{}: reopened store fails the audit",
                    path.display()
                ));
            }
        }
        spans.close(audit);
        drop(reopened);
        misses.truncate(8);
        (total as f64 / open_s, total, misses)
    }

    /// Tears a fleet down without the fault phases (all but the last
    /// set-up). Its files stay, see [`store_root`].
    pub fn discard(self) {
        self.net.shutdown();
    }
}
