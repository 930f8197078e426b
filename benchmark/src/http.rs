//! The three HTTP workloads against `b2b_server::OrderServer`: set-up,
//! client loops, oracles.

use crate::config::{self, Shape, Workload, CATALOGUE};
use crate::gen::{
    self, due_ns, Action, Expect, MixedStream, Model, Op, SyncStream, Window, WindowStream,
};
use crate::measure::{Kind, Sample};
use crate::oracle;
use crate::plan::{join_clients, walk_boundaries, Measured, Plan};
use crate::trace::{SpanBuf, TraceSwitch};
use b2b_apps::Order;
use b2b_core::{CoordinatorConfig, ObjectId};
use b2b_crypto::VerifyPool;
use b2b_net::HttpClient;
use b2b_server::{OrderServer, OrderServerOptions};
use b2b_telemetry::{names, Telemetry};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A set-up order service.
pub struct Service {
    pub server: OrderServer,
    pub telemetry: Telemetry,
    pub addr: SocketAddr,
    /// Updates the benchmark has seen installed since `start`, set-up
    /// included: must equal the registry's `serve_installed`.
    pub installed: u64,
    /// `OrderServer::start` alone, for `core.join_ms_per_group`.
    pub start_s: f64,
    /// `start` → every order allocated and seeded: `setup_s`.
    pub setup_s: f64,
}

fn post_ok(http: &mut HttpClient, path: &str, body: &str, want: u16) -> String {
    let (status, reply) = http.post(path, body).expect("set-up request");
    assert_eq!(status, want, "set-up {path}: {reply}");
    reply
}

/// Orders seeded per long-poll: their 64 tickets fill one `/tickets?ids=`.
const SEED_CHUNK: usize = 64 / CATALOGUE;

/// Starts the server, allocates every order and seeds the full catalogue
/// (one deferred customer bulk per order, a chunk of orders in flight per
/// client) so the workloads only ever overwrite.
pub fn setup(w: &Workload, spans: &mut SpanBuf) -> Service {
    let telemetry = Telemetry::new();
    let t = Instant::now();
    let server = spans.within("setup.start", None, 0, || {
        OrderServer::start(OrderServerOptions {
            orders: w.groups,
            parties: w.parties,
            shards: Some(config::SHARDS),
            http_workers: config::HTTP_WORKERS,
            config: CoordinatorConfig::default().batch_max(w.batch_max),
            telemetry: telemetry.clone(),
            verify_pool: Some(Arc::new(VerifyPool::new(config::VERIFY_POOL))),
            sync_timeout: Duration::from_secs(10),
            ..OrderServerOptions::default()
        })
        .expect("order server starts")
    });
    let start_s = t.elapsed().as_secs_f64();
    let addr = server.addr();
    let clients = config::load_threads();
    spans.within("setup.seed", None, 0, || {
        let mut http = HttpClient::connect(addr).expect("connect");
        for _ in 0..w.groups {
            post_ok(&mut http, "/orders", "", 201);
        }
        drop(http);
        std::thread::scope(|s| {
            for c in 0..clients {
                s.spawn(move || {
                    let mut http = HttpClient::connect(addr).expect("connect");
                    let owned: Vec<usize> = (c..w.groups).step_by(clients).collect();
                    for chunk in owned.chunks(SEED_CHUNK) {
                        let mut tickets = Vec::new();
                        for &o in chunk {
                            let lines: Vec<Op> = (0..CATALOGUE)
                                .map(|k| {
                                    let action = Action::Lines {
                                        item: k,
                                        qty: gen::seed_qty(o, k),
                                    };
                                    Op { order: o, action }
                                })
                                .collect();
                            let reply = post_ok(
                                &mut http,
                                &format!("/orders/{o}/bulk?mode=deferred"),
                                &gen::bulk_body(&lines),
                                202,
                            );
                            tickets.extend(int_array(&reply, "tickets"));
                        }
                        let ids: Vec<String> = tickets.iter().map(u64::to_string).collect();
                        let (status, reply) = http
                            .get(&format!("/tickets?ids={}&wait_ms=10000", ids.join(",")))
                            .expect("set-up poll");
                        let installed = reply.matches("\"status\":\"installed\"").count();
                        assert!(
                            status == 200 && installed == chunk.len() * CATALOGUE,
                            "seeding orders {chunk:?}: {status} {reply}"
                        );
                    }
                });
            }
        });
    });
    Service {
        server,
        telemetry,
        addr,
        installed: (w.groups * CATALOGUE) as u64,
        start_s,
        setup_s: t.elapsed().as_secs_f64(),
    }
}

/// One client thread's connection, spans and samples.
struct Client {
    addr: SocketAddr,
    http: HttpClient,
    spans: SpanBuf,
    samples: Vec<Sample>,
    t0: Instant,
    next_op_id: u64,
}

impl Client {
    fn new(addr: SocketAddr, spans: SpanBuf, t0: Instant) -> Client {
        Client {
            addr,
            http: HttpClient::connect(addr).expect("connect"),
            next_op_id: (spans.thread as u64) << 40,
            spans,
            samples: Vec::new(),
            t0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// One traced request. An I/O error counts as status 0 and costs a
    /// reconnect.
    fn request(
        &mut self,
        span: &'static str,
        parent: Option<u32>,
        op_id: u64,
        method: &str,
        path: &str,
        body: &str,
    ) -> (u16, String) {
        let open = self.spans.open(span, parent, op_id);
        let reply = self.http.request(method, path, body.as_bytes());
        self.spans.close(open);
        reply.unwrap_or_else(|e| {
            if let Ok(fresh) = HttpClient::connect(self.addr) {
                self.http = fresh;
            }
            (0, format!("i/o error: {e}"))
        })
    }

    /// Sends one single-request op and judges the reply. `due_ns` is when
    /// latency starts counting (the send time itself on closed loops).
    fn single(&mut self, op: &Op, due_ns: Option<u64>) {
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        let start = self.now_ns();
        let (root_name, http_name, kind) = match op.expect() {
            Expect::ReadOk => ("op.read", "http.get", Kind::Read),
            Expect::Installed => ("op.write", "http.post", Kind::Write),
            Expect::Vetoed => ("op.veto", "http.post", Kind::Veto),
        };
        let (method, path, body) = op.http();
        let root = self.spans.open(root_name, None, op_id);
        let (status, reply) = self.request(http_name, root.id(), op_id, method, &path, &body);
        self.spans.close(root);
        let done = self.now_ns();
        let ok = match op.expect() {
            Expect::ReadOk => {
                status == 200
                    && Order::from_bytes(reply.as_bytes())
                        .is_some_and(|o| o.lines.len() == CATALOGUE)
            }
            Expect::Installed => status == 200 && reply.contains("\"outcome\":\"installed\""),
            // A veto must name its reason: `"reason":"<non-empty>`.
            Expect::Vetoed => {
                status == 409
                    && reply
                        .split("\"reason\":\"")
                        .nth(1)
                        .is_some_and(|r| !r.starts_with('"'))
            }
        };
        if !ok {
            eprintln!("unexpected reply to {op:?}: {status} {reply}");
        }
        let from = due_ns.unwrap_or(start);
        self.samples.push(Sample {
            at_ns: due_ns.unwrap_or(done),
            latency_ns: done.saturating_sub(from),
            lag_ns: start.saturating_sub(from),
            kind,
            installed: (ok && op.expect() == Expect::Installed) as u32,
            ok,
        });
    }

    /// Sends one deferred bulk window and long-polls its tickets to
    /// terminal: two round-trips per window when nothing is slow.
    fn window(&mut self, win: &Window) {
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        let start = self.now_ns();
        let body = gen::bulk_body(&win.ops);
        let path = format!(
            "/orders/{}/bulk?mode=deferred{}",
            win.order,
            if win.supplier { "&as=supplier" } else { "" }
        );
        let root = self.spans.open("op.bulk", None, op_id);
        let (status, reply) = self.request("http.post", root.id(), op_id, "POST", &path, &body);
        let tickets = int_array(&reply, "tickets");
        let mut ok = status == 202 && tickets.len() == win.ops.len();
        if ok {
            let ids: Vec<String> = tickets.iter().map(u64::to_string).collect();
            let poll = format!("/tickets?ids={}&wait_ms=5000", ids.join(","));
            let wait = self.spans.open("ticket.wait", root.id(), op_id);
            loop {
                let (status, reply) = self.request("http.get", wait.id(), op_id, "GET", &poll, "");
                let installed = reply.matches("\"status\":\"installed\"").count();
                if status == 200 && installed == tickets.len() {
                    break;
                }
                if status != 200 || !reply.contains("\"status\":\"pending\"") {
                    eprintln!(
                        "window on order {} ended badly: {status} {reply}",
                        win.order
                    );
                    ok = false;
                    break;
                }
            }
            self.spans.close(wait);
        } else {
            eprintln!("bulk on order {} refused: {status} {reply}", win.order);
        }
        self.spans.close(root);
        let done = self.now_ns();
        self.samples.push(Sample {
            at_ns: done,
            latency_ns: done - start,
            lag_ns: 0,
            kind: Kind::Write,
            installed: if ok { win.ops.len() as u32 } else { 0 },
            ok,
        });
    }
}

/// Pulls the integer array `"key":[n,n,…]` out of a JSON body.
fn int_array(body: &str, key: &str) -> Vec<u64> {
    let tag = format!("\"{key}\":[");
    body.find(&tag)
        .and_then(|at| {
            let rest = &body[at + tag.len()..];
            rest.find(']').map(|end| {
                rest[..end]
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Runs warm-up and slices of `w` against `svc` and returns the samples and
/// the generator's model of the final state.
pub fn run(
    w: &Workload,
    svc: &mut Service,
    seed: u64,
    plan: &Plan,
    switch: &TraceSwitch,
) -> (Measured, Model) {
    let clients = config::load_threads();
    let t0 = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let end_ns = plan.end().as_nanos() as u64;
    let addr = svc.addr;
    let shape = w.shape;
    let groups = w.groups;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let spans = switch.buf(c as u32 + 1);
            std::thread::spawn(move || {
                let mut client = Client::new(addr, spans, t0);
                let model = match shape {
                    Shape::SyncHttp => {
                        let mut stream = SyncStream::new(seed, c, clients, groups);
                        while !stop.load(Ordering::Relaxed) {
                            let op = stream.next_op();
                            client.single(&op, None);
                        }
                        stream.model
                    }
                    Shape::BulkHttp => {
                        let mut stream =
                            WindowStream::new(seed, c, clients, groups, config::BULK_WINDOW, true);
                        while !stop.load(Ordering::Relaxed) {
                            let win = stream.next_window();
                            client.window(&win);
                        }
                        stream.model
                    }
                    Shape::MixedHttp => {
                        let mut stream = MixedStream::new(seed, groups);
                        loop {
                            let due = due_ns(stream.next_index(), config::MIXED_RATE);
                            if due >= end_ns {
                                break;
                            }
                            let op = stream.next_op();
                            if op.order % clients != c {
                                continue;
                            }
                            let now = client.now_ns();
                            if due > now {
                                std::thread::sleep(Duration::from_nanos(due - now));
                            }
                            client.single(&op, Some(due));
                        }
                        stream.model
                    }
                    Shape::FleetEngine => unreachable!("fleet-durable has no HTTP clients"),
                };
                (client.samples, client.spans, model)
            })
        })
        .collect();
    let (bounds, registry_before, registry_after) =
        walk_boundaries(plan, t0, switch, &svc.telemetry);
    stop.store(true, Ordering::Relaxed);

    let (samples, spans, model) = join_clients(handles, groups);
    svc.installed += samples.iter().map(|x| x.installed as u64).sum::<u64>();
    (
        Measured {
            samples,
            bounds,
            registry_before,
            registry_after,
            spans,
        },
        model,
    )
}

/// `order-mixed` only, after the slices: the contended path on its own.
/// `pairs` times, two clients released by a barrier write to
/// the hottest order at once, one as customer, one as supplier. The two
/// proposals race in one group; the loser is re-proposed after the
/// coordinator's 1-8 ms holdoff timer. Returns every write's latency in µs
/// and the `rounds_retried` the burst caused; the model gains the writes.
pub fn contention_burst(
    svc: &mut Service,
    model: &mut Model,
    pairs: usize,
    switch: &TraceSwitch,
) -> (Vec<f64>, f64, Vec<SpanBuf>) {
    if config::load_threads() < 2 {
        return (Vec::new(), 0.0, Vec::new());
    }
    let hot = 0;
    let sides: Vec<Vec<Op>> = (0..2)
        .map(|side| {
            (0..pairs)
                .map(|j| {
                    let item = j % CATALOGUE;
                    let line = &model.orders[hot].lines[item];
                    let action = if side == 0 {
                        Action::Lines {
                            item,
                            qty: line.qty % 9_999 + 1,
                        }
                    } else {
                        Action::Price {
                            item,
                            unit_price: 2 * (line.unit_price.unwrap_or(0) / 2 % 9_999 + 1),
                        }
                    };
                    let op = Op { order: hot, action };
                    model.apply(&op);
                    op
                })
                .collect()
        })
        .collect();
    let retried = |svc: &Service| {
        svc.telemetry
            .metrics()
            .snapshot()
            .counter(names::ROUNDS_RETRIED)
    };
    let before = retried(svc);
    let barrier = std::sync::Barrier::new(2);
    let (addr, t0) = (svc.addr, Instant::now());
    let (samples, spans): (Vec<Vec<Sample>>, Vec<SpanBuf>) = std::thread::scope(|s| {
        let handles: Vec<_> = sides
            .iter()
            .enumerate()
            .map(|(side, ops)| {
                let barrier = &barrier;
                let spans = switch.buf(10 + side as u32);
                s.spawn(move || {
                    let mut client = Client::new(addr, spans, t0);
                    for op in ops {
                        barrier.wait();
                        client.single(op, None);
                    }
                    (client.samples, client.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst thread"))
            .unzip()
    });
    let samples: Vec<Sample> = samples.into_iter().flatten().collect();
    svc.installed += samples.iter().map(|x| x.installed as u64).sum::<u64>();
    let latencies = samples
        .iter()
        .filter(|x| x.ok)
        .map(|x| x.latency_ns as f64 / 1e3)
        .collect();
    let writes = (2 * pairs) as f64;
    (latencies, (retried(svc) - before) as f64 / writes, spans)
}

/// The oracles of the HTTP workloads.
pub fn check(w: &Workload, svc: &Service, model: &Model) -> Vec<String> {
    let mut misses = Vec::new();
    if !svc.server.wait_converged(Duration::from_secs(60)) {
        misses.push("replicas did not converge".to_string());
    }
    let oid = ObjectId::new("order");
    let actual: Vec<Vec<Option<Vec<u8>>>> = (0..w.groups)
        .map(|g| {
            (0..w.parties)
                .map(|p| {
                    let oid = oid.clone();
                    svc.server.handle(g, p).read(move |c| c.agreed_state(&oid))
                })
                .collect()
        })
        .collect();
    misses.extend(oracle::check_states(model, &actual));
    let (clean, records) = svc.server.audit();
    if !clean || records == 0 {
        misses.push(format!(
            "evidence audit: clean={clean} over {records} records"
        ));
    }
    let counted = svc
        .telemetry
        .metrics()
        .snapshot()
        .counter(names::SERVE_INSTALLED);
    if counted != svc.installed {
        misses.push(format!(
            "registry serve_installed = {counted}, clients saw {} installs",
            svc.installed
        ));
    }
    misses
}
