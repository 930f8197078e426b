#![warn(missing_docs)]

//! An HTTP/JSON order-processing service on the sharded B2BObjects
//! runtime.
//!
//! This crate is the paper's second application — inter-organisational
//! **order processing** (§5.2) — served for real: one process hosts
//! thousands of concurrent orders, each order its own coordination group
//! on the sharded runtime ([`b2b_net::shard`]), every mutation a signed,
//! non-repudiable state-coordination round between the organisations
//! holding a role on the order.
//!
//! The HTTP surface maps one-to-one onto the middleware's §3/§5
//! operations:
//!
//! | Endpoint | Middleware operation |
//! |---|---|
//! | `POST /orders` | provision a sharing group (customer registers, peers join sponsored) |
//! | `GET /orders/:id` | read the agreed state |
//! | `POST /orders/:id/lines` | customer adds/changes a line (update coordination) |
//! | `POST /orders/:id/price` | supplier prices a line |
//! | `POST /orders/:id/approve` | approver sanctions a line (four-party) |
//! | `POST /orders/:id/ship` | dispatcher commits delivery terms (four-party) |
//! | `POST /orders/:id/bulk` | a window of n updates in ⌈n / `batch_max`⌉ signed batched rounds |
//! | `POST /orders/:id/enter` … `/leave` | explicit §5 state-access scoping |
//! | `GET /tickets/:id` | idempotent deferred/async completion poll |
//! | `GET /tickets?ids=a,b,…` | one poll covering a whole ticket window |
//! | `GET /metrics` | live Prometheus exposition of the fleet registry |
//!
//! Every mutating request picks a communication mode (§3.3) with
//! `?mode=sync|deferred|async`: synchronous calls block until the round
//! completes (a veto is `409` with the vetoers' reasons), the other two
//! answer `202` with a ticket for `/tickets/:id`. Both ticket endpoints
//! accept `?wait_ms=N` to long-poll: the request parks on the group's
//! condvar until the ticket(s) turn terminal or the budget expires, so a
//! closed-loop client spends one round-trip per outcome instead of
//! spinning. When an order's pending-update queue is at
//! `PENDING_UPDATES_MAX`, the coordinator's backpressure surfaces as
//! `429` — overload degrades gracefully instead of queueing unboundedly.

use b2b_apps::{Order, OrderObject, OrderRoles, OrderUpdate};
use b2b_core::controller::Mode;
use b2b_core::history;
use b2b_core::DecisionRule::Unanimous;
use b2b_core::{
    Controller, CoordError, CoordTicket, Coordinator, CoordinatorConfig, ObjectId, SeqTable,
    TicketId, TicketStatus,
};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, VerifyPool};
use b2b_evidence::{EvidenceStore, MemStore};
use b2b_net::{
    GroupHandle, GroupId, HttpHandler, HttpRequest, HttpResponse, HttpServer, ShardedNet,
};
use b2b_telemetry::{names, Telemetry};
use serde::Deserialize;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Role names, in join order; index = party index. Two-party orders use
/// the first two, four-party orders all four.
pub const ROLES: [&str; 4] = ["customer", "supplier", "approver", "dispatcher"];

/// Construction knobs for an [`OrderServer`].
pub struct OrderServerOptions {
    /// Listen address (`"127.0.0.1:0"` for an ephemeral port).
    pub addr: String,
    /// Orders provisioned at startup — the capacity of `POST /orders`.
    /// Each order is one coordination group; the groups (and their
    /// membership rounds) are brought up before the listener opens, so
    /// order creation is O(1) at request time.
    pub orders: usize,
    /// Organisations per order: 2 (customer/supplier) or 4 (+ approver,
    /// dispatcher).
    pub parties: usize,
    /// Worker-pool size of the sharded runtime; `None` = one per CPU.
    pub shards: Option<usize>,
    /// HTTP worker threads (each may block on a synchronous round).
    pub http_workers: usize,
    /// Per-coordinator configuration (batching, deadlines…).
    pub config: CoordinatorConfig,
    /// Fleet-wide telemetry handle, served live on `/metrics`.
    pub telemetry: Telemetry,
    /// Shared signature-verification pool, if any.
    pub verify_pool: Option<Arc<VerifyPool>>,
    /// How long synchronous requests (and `leave` commits) block before
    /// answering `504`.
    pub sync_timeout: Duration,
}

impl Default for OrderServerOptions {
    fn default() -> OrderServerOptions {
        OrderServerOptions {
            addr: "127.0.0.1:0".to_string(),
            orders: 64,
            parties: 2,
            shards: None,
            http_workers: 8,
            config: CoordinatorConfig::default(),
            telemetry: Telemetry::new(),
            verify_pool: None,
            sync_timeout: Duration::from_secs(10),
        }
    }
}

/// Where a public ticket points, plus whether its terminal outcome has
/// been counted into the `serve_installed`/`serve_vetoed` metrics: 16
/// bytes.
struct TicketRef {
    ticket: TicketId,
    group: u32,
    party: u16,
    counted: bool,
}

/// An engine ticket, by the order (group) and party whose engine holds it.
type Resolved = (usize, usize, TicketId);

/// The public tickets handed out. They are pollable for the life of the
/// process, under ids 1, 2, 3, … issued in the table under its lock, so an
/// id resolves by arithmetic and the table grows without copying itself.
struct PublicTickets(Mutex<SeqTable<TicketRef>>);

impl PublicTickets {
    fn new() -> PublicTickets {
        PublicTickets(Mutex::new(SeqTable::new(1)))
    }

    /// Issues one public ticket per engine ticket of order `g`'s party
    /// `p`, in order.
    fn publish(&self, g: usize, p: usize, tickets: &[TicketId]) -> Vec<u64> {
        let group = u32::try_from(g).expect("order index fits 32 bits");
        let party = u16::try_from(p).expect("party index fits 16 bits");
        let mut table = self.0.lock().expect("tickets");
        tickets
            .iter()
            .map(|&ticket| {
                table.push(TicketRef {
                    ticket,
                    group,
                    party,
                    counted: false,
                })
            })
            .collect()
    }

    /// Where each of `publics` points (`None`: never issued), under one
    /// lock.
    fn resolve(&self, publics: &[u64]) -> Vec<Option<Resolved>> {
        let table = self.0.lock().expect("tickets");
        publics
            .iter()
            .map(|&public| {
                let entry = table.get(public)?;
                Some((entry.group as usize, entry.party as usize, entry.ticket))
            })
            .collect()
    }

    /// Marks each public ticket whose status is terminal as counted, under
    /// one lock, and returns the statuses counted for the first time.
    fn first_terminal<'a>(
        &self,
        answered: impl IntoIterator<Item = (u64, &'a TicketStatus)>,
    ) -> Vec<&'a TicketStatus> {
        let mut terminal = answered
            .into_iter()
            .filter(|(_, status)| status.is_terminal())
            .peekable();
        if terminal.peek().is_none() {
            return Vec::new();
        }
        let mut table = self.0.lock().expect("tickets");
        terminal
            .filter(|&(public, _)| match table.get_mut(public) {
                Some(entry) if !entry.counted => {
                    entry.counted = true;
                    true
                }
                _ => false,
            })
            .map(|(_, status)| status)
            .collect()
    }
}

/// One open §5 state-access scope, pinned to an (order, party) pair
/// across HTTP requests.
struct Session {
    ctrl: Controller<GroupHandle<Coordinator>>,
    depth: u32,
}

/// Request body accepted by every mutating endpoint. Only the fields an
/// action needs are read; `op` selects the action on scope `update`.
#[derive(Deserialize, Default)]
struct ActionBody {
    op: Option<String>,
    item: Option<String>,
    qty: Option<u32>,
    unit_price: Option<u32>,
    terms: Option<String>,
}

/// Request body of `POST /orders/:id/bulk`: several actions submitted
/// in one request, each element an [`ActionBody`] whose `op` field
/// names the action (`line`, `price`, `approve`, `ship`).
#[derive(Deserialize)]
struct BulkBody {
    ops: Vec<ActionBody>,
}

/// How a submitted mutation request ended, as far as its answer goes.
enum Completion {
    /// Deferred or async: the public tickets handed out, one per op.
    Ticketed(Vec<u64>),
    /// Synchronous: every ticket's terminal status, in op order.
    Settled(Vec<TicketStatus>),
}

/// Largest accepted bulk batch — aligned with the coordinator's own
/// `batch_max` scale so one request maps onto a handful of rounds at
/// most.
const BULK_MAX: usize = 64;

struct Core {
    handles: Vec<Vec<GroupHandle<Coordinator>>>,
    stores: Vec<Vec<Arc<MemStore>>>,
    ring: Arc<KeyRing>,
    parties: Vec<PartyId>,
    object: ObjectId,
    orders: usize,
    allocated: AtomicU64,
    tickets: PublicTickets,
    sessions: Mutex<HashMap<(usize, usize), Session>>,
    telemetry: Telemetry,
    sync_timeout: Duration,
}

/// The running order service: sharded engine fleet + HTTP front-end.
pub struct OrderServer {
    core: Arc<Core>,
    http: Option<HttpServer>,
    net: Option<ShardedNet<Coordinator>>,
}

impl OrderServer {
    /// Brings up the engine fleet (all groups joined, all evidence
    /// stores attached), then opens the HTTP listener.
    pub fn start(opts: OrderServerOptions) -> io::Result<OrderServer> {
        assert!(
            opts.parties == 2 || opts.parties == 4,
            "orders are two-party or four-party"
        );
        assert!(opts.orders > 0, "provision at least one order");

        let party_ids: Vec<PartyId> = ROLES[..opts.parties]
            .iter()
            .map(|r| PartyId::new(*r))
            .collect();
        let mut ring = KeyRing::new();
        let mut keys = Vec::new();
        for (i, id) in party_ids.iter().enumerate() {
            let kp = KeyPair::generate_from_seed(2000 + i as u64);
            ring.register(id.clone(), kp.public_key());
            keys.push(kp);
        }
        let ring = Arc::new(ring);
        let object = ObjectId::new("order");

        let mut stores: Vec<Vec<Arc<MemStore>>> = Vec::with_capacity(opts.orders);
        let mut builder = ShardedNet::builder().telemetry(opts.telemetry.clone());
        if let Some(shards) = opts.shards {
            builder = builder.shards(shards);
        }
        for g in 0..opts.orders {
            let mut group_stores = Vec::with_capacity(opts.parties);
            let nodes = (0..opts.parties)
                .map(|i| {
                    let store = Arc::new(MemStore::default());
                    group_stores.push(Arc::clone(&store));
                    let mut b = Coordinator::builder(party_ids[i].clone(), keys[i].clone())
                        .shared_ring(Arc::clone(&ring))
                        .config(opts.config.clone())
                        .store(store)
                        .seed(10 + (g * opts.parties + i) as u64)
                        .telemetry(opts.telemetry.clone());
                    if let Some(pool) = &opts.verify_pool {
                        b = b.verify_pool(Arc::clone(pool));
                    }
                    b.build()
                })
                .collect();
            stores.push(group_stores);
            builder = builder.add_group(GroupId(g as u64), nodes);
        }
        let net = builder.spawn()?;

        let handles: Vec<Vec<GroupHandle<Coordinator>>> = (0..opts.orders)
            .map(|g| {
                (0..opts.parties)
                    .map(|i| net.handle(GroupId(g as u64), &party_ids[i]))
                    .collect()
            })
            .collect();

        // Provision every group: the customer registers the order object
        // (roles derived from the fleet's party names), the remaining
        // roles join through the §4.5 sponsored-connect protocol. Joins
        // are pipelined across groups, so bring-up costs `parties`
        // round-trips, not `orders × parties`.
        let roles = order_roles(&party_ids);
        for group in &handles {
            let oid = object.clone();
            let roles = roles.clone();
            group[0].invoke(move |c, _| {
                c.register_object(oid, Box::new(move || factory(&roles)))
                    .expect("register order object");
            });
        }
        for j in 1..opts.parties {
            for group in &handles {
                let oid = object.clone();
                let roles = roles.clone();
                let sponsor = party_ids[j - 1].clone();
                group[j].invoke(move |c, ctx| {
                    c.request_connect(oid, Box::new(move || factory(&roles)), sponsor, ctx)
                        .expect("request connect");
                });
            }
            for (g, group) in handles.iter().enumerate() {
                let oid = object.clone();
                assert!(
                    group[j].wait_until(Duration::from_secs(120), move |c| c.is_member(&oid)),
                    "{} of order {g} failed to join",
                    party_ids[j]
                );
            }
        }
        // Nothing consumes the engines' event streams (see `order_action`):
        // drop what provisioning buffered — the joins' events — once every
        // member has installed the last join, so a quiet order does not
        // keep them.
        for (g, group) in handles.iter().enumerate() {
            for handle in group {
                let oid = object.clone();
                let joined =
                    move |c: &Coordinator| c.members(&oid).is_some_and(|m| m.len() == opts.parties);
                assert!(
                    handle.wait_until(Duration::from_secs(120), joined),
                    "order {g} did not settle its joins"
                );
                handle.update(|c| drop(c.take_events()));
            }
        }

        let core = Arc::new(Core {
            handles,
            stores,
            ring,
            parties: party_ids,
            object,
            orders: opts.orders,
            allocated: AtomicU64::new(0),
            tickets: PublicTickets::new(),
            sessions: Mutex::new(HashMap::new()),
            telemetry: opts.telemetry,
            sync_timeout: opts.sync_timeout,
        });
        let handler_core = Arc::clone(&core);
        let handler: HttpHandler = Arc::new(move |req| handler_core.route(req));
        let http = HttpServer::bind(&opts.addr, opts.http_workers, handler)?;

        Ok(OrderServer {
            core,
            http: Some(http),
            net: Some(net),
        })
    }

    /// The bound HTTP address.
    pub fn addr(&self) -> SocketAddr {
        self.http.as_ref().expect("server running").addr()
    }

    /// The fleet-wide telemetry handle (the same registry `/metrics`
    /// serves).
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.telemetry
    }

    /// Orders created so far via `POST /orders`.
    pub fn allocated(&self) -> usize {
        (self.core.allocated.load(Ordering::SeqCst) as usize).min(self.core.orders)
    }

    /// Direct engine handle for tests and harnesses (order `g`, party
    /// index `p` in [`ROLES`] order).
    pub fn handle(&self, g: usize, p: usize) -> GroupHandle<Coordinator> {
        self.core.handles[g][p].clone()
    }

    /// Judges every party's evidence log across all provisioned orders
    /// as a history of its order ([`history::check`]). Returns
    /// `(all_clean, total_records)`.
    pub fn audit(&self) -> (bool, usize) {
        let (ring, object) = (&*self.core.ring, &self.core.object);
        let mut clean = true;
        let mut total = 0usize;
        for store in self.core.stores.iter().flatten() {
            let history = history::check(store.as_ref(), object, ring, None, Unanimous);
            clean &= history.fault.is_none();
            total += store.len();
        }
        (clean, total)
    }

    /// Blocks until every allocated order has drained its pending queues
    /// and all member replicas agree on the same state bytes. Returns
    /// `false` on timeout.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        for g in 0..self.allocated() {
            for h in &self.core.handles[g] {
                let oid = self.core.object.clone();
                let left = deadline.saturating_duration_since(Instant::now());
                if !h.wait_until(left, move |c| {
                    c.pending_update_count(&oid) == 0 && !c.is_busy(&oid)
                }) {
                    return false;
                }
            }
            loop {
                let states: Vec<Option<Vec<u8>>> = self.core.handles[g]
                    .iter()
                    .map(|h| {
                        let oid = self.core.object.clone();
                        h.read(move |c| c.agreed_state(&oid))
                    })
                    .collect();
                if states.iter().all(|s| s.is_some() && *s == states[0]) {
                    break;
                }
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        true
    }

    /// Stops the HTTP front-end and the engine fleet, joining every
    /// thread.
    pub fn shutdown(mut self) {
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
    }
}

/// Builds the role assignment for a fleet's party list.
fn order_roles(parties: &[PartyId]) -> OrderRoles {
    if parties.len() >= 4 {
        OrderRoles::four_party(
            parties[0].clone(),
            parties[1].clone(),
            parties[2].clone(),
            parties[3].clone(),
        )
    } else {
        OrderRoles::two_party(parties[0].clone(), parties[1].clone())
    }
}

/// The object factory every member runs: a fresh [`OrderObject`] wired
/// to the shared role assignment.
fn factory(roles: &OrderRoles) -> Box<dyn b2b_core::B2BObject> {
    Box::new(OrderObject::new(roles.clone()))
}

/// `s` as a quoted, escaped JSON string.
fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    serde::json::write_str(s, &mut out);
    out
}

fn vetoers_json(vetoers: &[(PartyId, String)]) -> String {
    let items: Vec<String> = vetoers
        .iter()
        .map(|(p, r)| format!("{{\"party\":{},\"reason\":{}}}", js(p.as_str()), js(r)))
        .collect();
    format!("[{}]", items.join(","))
}

/// `{"error":msg}` with `status`.
fn error(status: u16, msg: &str) -> HttpResponse {
    HttpResponse::json(status, format!("{{\"error\":{}}}", js(msg)))
}

/// The `400` for an op that cannot become, or cannot apply as, a delta.
/// A bulk request names the op by its `index`; a direct one has one op.
fn bad_op(msg: &str, index: Option<usize>) -> HttpResponse {
    match index {
        Some(i) => HttpResponse::json(400, format!("{{\"error\":{},\"index\":{i}}}", js(msg))),
        None => error(400, msg),
    }
}

/// The `409` of a vetoed round, naming every vetoer with its reason.
fn invalidated(vetoers: &[(PartyId, String)]) -> HttpResponse {
    HttpResponse::json(
        409,
        format!(
            "{{\"outcome\":\"invalidated\",\"vetoers\":{}}}",
            vetoers_json(vetoers)
        ),
    )
}

/// A `200` whose body is already JSON bytes (an order's state).
fn json_bytes(body: Vec<u8>) -> HttpResponse {
    HttpResponse {
        status: 200,
        content_type: "application/json".into(),
        body,
    }
}

impl Core {
    fn route(&self, req: &HttpRequest) -> HttpResponse {
        self.telemetry.add(names::SERVE_REQUESTS, 1);
        let segments = req.segments();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => HttpResponse::text(200, "ok\n"),
            ("GET", ["metrics"]) => HttpResponse {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8".into(),
                body: self
                    .telemetry
                    .metrics()
                    .snapshot()
                    .to_prometheus()
                    .into_bytes(),
            },
            ("POST", ["orders"]) => self.create_order(),
            ("GET", ["orders", id]) => match self.order_index(id) {
                Ok(g) => self.get_order(g),
                Err(resp) => resp,
            },
            ("POST", ["orders", id, action]) => match self.order_index(id) {
                Ok(g) => self.order_action(g, action, req),
                Err(resp) => resp,
            },
            ("GET", ["tickets"]) => self.tickets_status(req),
            ("GET", ["tickets", id]) => self.ticket_status(id, req),
            _ => HttpResponse::json(404, "{\"error\":\"no such resource\"}"),
        }
    }

    fn create_order(&self) -> HttpResponse {
        let g = self.allocated.fetch_add(1, Ordering::SeqCst) as usize;
        if g >= self.orders {
            self.allocated.store(self.orders as u64, Ordering::SeqCst);
            return HttpResponse::json(
                503,
                format!(
                    "{{\"error\":\"order capacity exhausted\",\"capacity\":{}}}",
                    self.orders
                ),
            );
        }
        let parties: Vec<String> = self.parties.iter().map(|p| js(p.as_str())).collect();
        HttpResponse::json(
            201,
            format!("{{\"order\":{},\"parties\":[{}]}}", g, parties.join(",")),
        )
    }

    /// Resolves an order id path segment to an *allocated* group.
    fn order_index(&self, id: &str) -> Result<usize, HttpResponse> {
        let g: usize = id
            .parse()
            .map_err(|_| HttpResponse::json(400, "{\"error\":\"order id must be an integer\"}"))?;
        let allocated = (self.allocated.load(Ordering::SeqCst) as usize).min(self.orders);
        if g >= allocated {
            return Err(HttpResponse::json(404, "{\"error\":\"no such order\"}"));
        }
        Ok(g)
    }

    fn get_order(&self, g: usize) -> HttpResponse {
        match self.handles[g][0].read(|c| c.agreed_state(&self.object)) {
            Some(bytes) => json_bytes(bytes),
            None => HttpResponse::json(404, "{\"error\":\"no such order\"}"),
        }
    }

    /// Resolves `?as=` (defaulting per action) to a party index.
    fn party_index(&self, req: &HttpRequest, default_role: &str) -> Result<usize, HttpResponse> {
        let role = req.query_param("as").unwrap_or(default_role);
        self.parties
            .iter()
            .position(|p| p.as_str() == role)
            .ok_or_else(|| {
                HttpResponse::json(
                    400,
                    format!("{{\"error\":\"no party {} on this order\"}}", js(role)),
                )
            })
    }

    fn mode_of(&self, req: &HttpRequest) -> Result<Mode, HttpResponse> {
        match req.query_param("mode").unwrap_or("sync") {
            "sync" => Ok(Mode::Synchronous),
            "deferred" => Ok(Mode::DeferredSynchronous),
            "async" => Ok(Mode::Asynchronous),
            other => Err(HttpResponse::json(
                400,
                format!("{{\"error\":\"unknown mode {}\"}}", js(other)),
            )),
        }
    }

    fn body_of(req: &HttpRequest) -> Result<ActionBody, HttpResponse> {
        if req.body.is_empty() {
            return Ok(ActionBody::default());
        }
        serde_json::from_slice(&req.body).map_err(|e| error(400, &e.to_string()))
    }

    fn order_action(&self, g: usize, action: &str, req: &HttpRequest) -> HttpResponse {
        // Nothing here consumes the engines' `coordCallback` event streams
        // (tickets carry the outcomes), so each mutation discards what the
        // order's engines buffered since the previous one; left alone they
        // grow by an event per protocol step for the life of the process.
        for handle in &self.handles[g] {
            handle.update(|c| drop(c.take_events()));
        }
        let answer = match action {
            "lines" | "price" | "approve" | "ship" | "bulk" => self.mutation(g, action, req),
            "enter" | "examine" | "update" | "leave" => self.scope_call(g, action, req),
            _ => Err(HttpResponse::json(404, "{\"error\":\"no such action\"}")),
        };
        answer.unwrap_or_else(|resp| resp)
    }

    fn default_role(action: &str) -> &'static str {
        match action {
            "price" => "supplier",
            "approve" => "approver",
            "ship" => "dispatcher",
            _ => "customer",
        }
    }

    /// Translates the `op` action with `body`'s fields into an
    /// [`OrderUpdate`] delta.
    fn action_delta(op: &str, body: &ActionBody) -> Result<OrderUpdate, String> {
        match op {
            "lines" | "line" => Ok(OrderUpdate::SetQuantity {
                item: body.item.clone().ok_or("missing field: item")?,
                qty: body.qty.ok_or("missing field: qty")?,
            }),
            "price" => Ok(OrderUpdate::SetPrice {
                item: body.item.clone().ok_or("missing field: item")?,
                unit_price: body.unit_price.ok_or("missing field: unit_price")?,
            }),
            "approve" => Ok(OrderUpdate::Approve {
                item: body.item.clone().ok_or("missing field: item")?,
            }),
            "ship" => Ok(OrderUpdate::SetDeliveryTerms {
                terms: body.terms.clone().ok_or("missing field: terms")?,
            }),
            other => Err(format!("unknown op {other}")),
        }
    }

    /// The deltas a mutation request carries: its body as the endpoint's
    /// action, or for `bulk` each element of `ops` as the action its `op`
    /// names.
    fn deltas_of(action: &str, req: &HttpRequest) -> Result<Vec<OrderUpdate>, HttpResponse> {
        if action != "bulk" {
            let body = Self::body_of(req)?;
            let delta = Self::action_delta(action, &body).map_err(|msg| error(400, &msg))?;
            return Ok(vec![delta]);
        }
        let bulk: BulkBody =
            serde_json::from_slice(&req.body).map_err(|e| error(400, &e.to_string()))?;
        if bulk.ops.is_empty() {
            return Err(HttpResponse::json(
                400,
                "{\"error\":\"ops must not be empty\"}",
            ));
        }
        if bulk.ops.len() > BULK_MAX {
            return Err(HttpResponse::json(
                400,
                format!("{{\"error\":\"at most {BULK_MAX} ops per bulk request\"}}"),
            ));
        }
        bulk.ops
            .iter()
            .enumerate()
            .map(|(i, elem)| {
                elem.op
                    .as_deref()
                    .ok_or_else(|| "missing field: op".to_string())
                    .and_then(|op| Self::action_delta(op, elem))
                    .map_err(|msg| bad_op(&msg, Some(i)))
            })
            .collect()
    }

    /// Every mutating endpoint — `lines`, `price`, `approve`, `ship` and
    /// `bulk` — takes this one path; a direct action is a bulk of one.
    /// The deltas replay against whatever state the group agrees on when
    /// their round runs, so concurrent compatible actions compose, while
    /// rule violations are vetoed by the peers' validators, never
    /// silently merged. A synchronous request waits for every ticket; the
    /// other modes answer `202` with one public ticket per delta.
    fn mutation(
        &self,
        g: usize,
        action: &str,
        req: &HttpRequest,
    ) -> Result<HttpResponse, HttpResponse> {
        let bulk = action == "bulk";
        let p = self.party_index(req, Self::default_role(action))?;
        let mode = self.mode_of(req)?;
        let deltas = Self::deltas_of(action, req)?;
        let handle = &self.handles[g][p];
        // Fast-fail requests whose deltas, folded in order, cannot apply to
        // the agreed state (e.g. pricing an item never ordered): the round
        // would abort them anyway; this answers 400 without spending one.
        // The replica answering may lag the round that makes a delta
        // applicable by one message delivery, so give it a short grace to
        // catch up. The agreed state is copied under the slot lock — which
        // the shard worker needs too — and decoded outside it, and copied
        // again only once the agreed tuple has moved.
        let deadline = Instant::now() + self.sync_timeout.min(Duration::from_millis(500));
        let applies_to = |state: &[u8]| {
            Order::from_bytes(state)
                .is_some_and(|mut o| deltas.iter().all(|d| d.apply(&mut o).is_ok()))
        };
        let agreed_of =
            |c: &Coordinator| c.agreed_id(&self.object).zip(c.agreed_state(&self.object));
        let mut agreed = handle.read(agreed_of);
        let mut applies = agreed.as_ref().is_some_and(|(_, state)| applies_to(state));
        while !applies {
            let seen = agreed.as_ref().map(|(id, _)| *id);
            let mut moved = None;
            let remaining = deadline.saturating_duration_since(Instant::now());
            let changed = handle.wait_until(remaining, |c| {
                if c.agreed_id(&self.object) == seen {
                    return false;
                }
                moved = agreed_of(c);
                true
            });
            if !changed {
                break;
            }
            agreed = moved;
            applies = agreed.as_ref().is_some_and(|(_, state)| applies_to(state));
        }
        if !applies {
            let (_, current) =
                agreed.ok_or_else(|| HttpResponse::json(404, "{\"error\":\"no such order\"}"))?;
            let mut order = Order::from_bytes(&current).ok_or_else(|| {
                HttpResponse::json(500, "{\"error\":\"undecodable agreed state\"}")
            })?;
            for (i, d) in deltas.iter().enumerate() {
                d.apply(&mut order)
                    .map_err(|msg| bad_op(&msg, bulk.then_some(i)))?;
            }
        }
        // One enqueue-then-dispatch: every delta lands in the pending queue
        // before the first round goes out, so a bulk coalesces into
        // `batch_max`-sized rounds. Admission is all-or-nothing against
        // `PENDING_UPDATES_MAX` (`429` when the request does not fit).
        let updates = deltas.iter().map(OrderUpdate::to_bytes).collect();
        let tickets = handle
            .invoke(|c, ctx| c.submit_updates(&self.object, updates, ctx))
            .map_err(|e| match e {
                CoordError::Busy { .. } => self.backpressure(),
                e => error(500, &e.to_string()),
            })?;
        let completion = if mode == Mode::Synchronous {
            let waiting: Vec<CoordTicket> = tickets
                .into_iter()
                .map(|ticket| CoordTicket { ticket })
                .collect();
            let ctrl = Controller::new(handle.clone(), self.object.clone());
            let statuses = ctrl.wait_all_terminal(&waiting, self.sync_timeout);
            if !statuses.iter().all(TicketStatus::is_terminal) {
                return Err(error(504, "coordination timed out"));
            }
            for status in &statuses {
                self.count(status);
            }
            Completion::Settled(statuses)
        } else {
            Completion::Ticketed(self.tickets.publish(g, p, &tickets))
        };
        Ok(Self::render(completion, bulk))
    }

    /// The answer to a submitted mutation. Ticketed: `202` with the public
    /// tickets. Settled: the `409` of the first ticket that did not
    /// install, else `200` with the last installed `seq`. A direct action
    /// answers in the singular (`ticket`), a bulk in the plural (`tickets`,
    /// and `ops` beside `seq`).
    fn render(completion: Completion, bulk: bool) -> HttpResponse {
        let statuses = match completion {
            Completion::Ticketed(publics) if !bulk => {
                return HttpResponse::json(202, format!("{{\"ticket\":{}}}", publics[0]))
            }
            Completion::Ticketed(publics) => {
                let list: Vec<String> = publics.iter().map(u64::to_string).collect();
                return HttpResponse::json(202, format!("{{\"tickets\":[{}]}}", list.join(",")));
            }
            Completion::Settled(statuses) => statuses,
        };
        let mut seq = 0;
        for status in &statuses {
            match status {
                TicketStatus::Installed { state } => seq = state.seq,
                TicketStatus::Invalidated { vetoers } => return invalidated(vetoers),
                TicketStatus::Aborted { reason } => {
                    return HttpResponse::json(
                        409,
                        format!("{{\"outcome\":\"aborted\",\"reason\":{}}}", js(reason)),
                    )
                }
                TicketStatus::Pending { .. } | TicketStatus::Unknown => {
                    unreachable!("only terminal statuses are answered")
                }
            }
        }
        let ops = if bulk {
            format!("\"ops\":{},", statuses.len())
        } else {
            String::new()
        };
        HttpResponse::json(
            200,
            format!("{{\"outcome\":\"installed\",{ops}\"seq\":{seq}}}"),
        )
    }

    fn backpressure(&self) -> HttpResponse {
        self.telemetry.add(names::SERVE_BACKPRESSURE_429, 1);
        HttpResponse::json(
            429,
            "{\"error\":\"pending updates at capacity, retry later\"}",
        )
    }

    /// `GET /tickets/:id` — idempotent status poll, veto reasons
    /// included ([`Controller::poll_status`] semantics over HTTP). With
    /// `?wait_ms=N` the request long-polls: it blocks on the group's
    /// condvar (capped at the server's sync timeout) until the ticket
    /// turns terminal, so pollers ride the same wakeup path as
    /// synchronous calls instead of hammering the coordinator with
    /// busy re-reads.
    fn ticket_status(&self, id: &str, req: &HttpRequest) -> HttpResponse {
        let Ok(public) = id.parse::<u64>() else {
            return HttpResponse::json(400, "{\"error\":\"ticket id must be an integer\"}");
        };
        let wait_ms: u64 = req
            .query_param("wait_ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        // The reference is copied out and the table's lock dropped before
        // the coordinator is touched: `poll_status` waits on the group's
        // slot, and holding the table across that wait would convoy every
        // other poll and every deferred submit behind one slow group.
        let Some((group, party, ticket)) = self.tickets.resolve(&[public])[0] else {
            return HttpResponse::json(404, "{\"status\":\"unknown\"}");
        };
        let handle = &self.handles[group][party];
        let ctrl = Controller::new(handle.clone(), self.object.clone());
        let status = if wait_ms > 0 {
            let budget = Duration::from_millis(wait_ms).min(self.sync_timeout);
            ctrl.wait_terminal(CoordTicket { ticket }, budget)
        } else {
            ctrl.poll_status(CoordTicket { ticket })
        };
        self.count_first(public, &status);
        if matches!(status, TicketStatus::Unknown) {
            return HttpResponse::json(404, "{\"status\":\"unknown\"}");
        }
        HttpResponse::json(200, Self::status_json(&status))
    }

    /// `GET /tickets?ids=a,b,c` — several tickets in one request;
    /// `?wait_ms=N` long-polls until **all** are terminal (one overall
    /// budget, capped at the sync timeout). One response entry per id,
    /// in request order — this is how a windowed deferred client drains
    /// a whole batch for the price of a single round-trip.
    fn tickets_status(&self, req: &HttpRequest) -> HttpResponse {
        let Some(ids) = req.query_param("ids") else {
            return HttpResponse::json(400, "{\"error\":\"ids query parameter required\"}");
        };
        let publics: Vec<u64> = ids
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        if publics.is_empty() || publics.len() > BULK_MAX {
            return HttpResponse::json(
                400,
                format!("{{\"error\":\"between 1 and {BULK_MAX} ticket ids\"}}"),
            );
        }
        let wait_ms: u64 = req
            .query_param("wait_ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let deadline = Instant::now() + Duration::from_millis(wait_ms).min(self.sync_timeout);
        let found = self.tickets.resolve(&publics);
        // One wait and one read per (group, party) engine, each waiting
        // for all of its tickets at once; sequential waits share one
        // deadline, and tickets resolve concurrently in their groups
        // regardless of the order engines are visited.
        let mut engines: Vec<(usize, usize)> = Vec::new();
        for &(group, party, _) in found.iter().flatten() {
            if !engines.contains(&(group, party)) {
                engines.push((group, party));
            }
        }
        let mut statuses: Vec<Option<TicketStatus>> = vec![None; publics.len()];
        for (group, party) in engines {
            let (indices, tickets): (Vec<usize>, Vec<CoordTicket>) = found
                .iter()
                .enumerate()
                .filter_map(|(i, entry)| match *entry {
                    Some((g, p, ticket)) if (g, p) == (group, party) => {
                        Some((i, CoordTicket { ticket }))
                    }
                    _ => None,
                })
                .unzip();
            let ctrl = Controller::new(self.handles[group][party].clone(), self.object.clone());
            let budget = deadline.saturating_duration_since(Instant::now());
            for (i, status) in indices
                .into_iter()
                .zip(ctrl.wait_all_terminal(&tickets, budget))
            {
                statuses[i] = Some(status);
            }
        }
        let answered = publics.iter().zip(&statuses);
        for status in self.tickets.first_terminal(
            answered.filter_map(|(&public, status)| Some((public, status.as_ref()?))),
        ) {
            self.count(status);
        }
        let entries: Vec<String> = publics
            .iter()
            .zip(statuses)
            .map(|(&public, status)| {
                let Some(status) = status else {
                    return format!("{{\"ticket\":{public},\"status\":\"unknown\"}}");
                };
                let inner = Self::status_json(&status);
                format!(
                    "{{\"ticket\":{public},{}",
                    inner.strip_prefix('{').unwrap_or(&inner)
                )
            })
            .collect();
        HttpResponse::json(200, format!("{{\"tickets\":[{}]}}", entries.join(",")))
    }

    /// Counts one terminal outcome into the
    /// `serve_installed`/`serve_vetoed` counters.
    fn count(&self, status: &TicketStatus) {
        match status {
            TicketStatus::Installed { .. } => self.telemetry.add(names::SERVE_INSTALLED, 1),
            _ => self.telemetry.add(names::SERVE_VETOED, 1),
        }
    }

    /// Counts a public ticket's first observed terminal status
    /// (idempotent per ticket).
    fn count_first(&self, public: u64, status: &TicketStatus) {
        for status in self.tickets.first_terminal([(public, status)]) {
            self.count(status);
        }
    }

    /// The status object every ticket endpoint answers with.
    fn status_json(status: &TicketStatus) -> String {
        match status {
            TicketStatus::Unknown => "{\"status\":\"unknown\"}".to_string(),
            TicketStatus::Pending { run } => format!(
                "{{\"status\":\"pending\",\"dispatched\":{}}}",
                run.is_some()
            ),
            TicketStatus::Installed { state } => {
                format!("{{\"status\":\"installed\",\"seq\":{}}}", state.seq)
            }
            TicketStatus::Invalidated { vetoers } => format!(
                "{{\"status\":\"invalidated\",\"vetoers\":{}}}",
                vetoers_json(vetoers)
            ),
            TicketStatus::Aborted { reason } => {
                format!("{{\"status\":\"aborted\",\"reason\":{}}}", js(reason))
            }
        }
    }

    /// The explicit §5 scoping surface: `enter`/`examine`/`update`/
    /// `leave` on a session pinned to the (order, party) pair. The
    /// working copy lives server-side across requests; the outermost
    /// `leave` initiates coordination in the session's mode.
    fn scope_call(
        &self,
        g: usize,
        action: &str,
        req: &HttpRequest,
    ) -> Result<HttpResponse, HttpResponse> {
        let p = self.party_index(req, "customer")?;
        let no_scope = || HttpResponse::json(409, "{\"error\":\"no open scope\"}");
        let mut sessions = self.sessions.lock().expect("sessions");
        match action {
            "enter" => {
                let mode = self.mode_of(req)?;
                let session = sessions.entry((g, p)).or_insert_with(|| Session {
                    ctrl: Controller::new(self.handles[g][p].clone(), self.object.clone())
                        .mode(mode)
                        .timeout(self.sync_timeout),
                    depth: 0,
                });
                if let Err(e) = session.ctrl.enter() {
                    sessions.remove(&(g, p));
                    return Err(error(404, &e.to_string()));
                }
                session.depth += 1;
                Ok(json_bytes(
                    session.ctrl.state().map(|s| s.to_vec()).unwrap_or_default(),
                ))
            }
            "examine" => {
                let session = sessions.get_mut(&(g, p)).ok_or_else(no_scope)?;
                session
                    .ctrl
                    .examine()
                    .map_err(|e| error(409, &e.to_string()))?;
                Ok(json_bytes(
                    session.ctrl.state().map(|s| s.to_vec()).unwrap_or_default(),
                ))
            }
            "update" => {
                let body = Self::body_of(req)?;
                let session = sessions.get_mut(&(g, p)).ok_or_else(no_scope)?;
                let working = session
                    .ctrl
                    .state()
                    .map_err(|_| HttpResponse::json(409, "{\"error\":\"no working state\"}"))?;
                let mut order = Order::from_bytes(working).ok_or_else(|| {
                    HttpResponse::json(500, "{\"error\":\"undecodable working state\"}")
                })?;
                let op = body.op.as_deref().unwrap_or("line");
                Self::action_delta(op, &body)
                    .and_then(|delta| delta.apply(&mut order))
                    .map_err(|msg| error(400, &msg))?;
                let bytes = order.to_bytes();
                // Keep the working copy current AND mark the scope as an
                // update-kind access carrying the latest whole state.
                session
                    .ctrl
                    .set_state(bytes.clone())
                    .and_then(|()| session.ctrl.update(bytes))
                    .map_err(|e| error(409, &e.to_string()))?;
                Ok(HttpResponse::json(200, "{\"ok\":true}"))
            }
            "leave" => {
                // Take the session out of the map before leaving: a
                // synchronous leave blocks for the whole coordination
                // round, and other sessions must stay serviceable.
                let mut session = sessions.remove(&(g, p)).ok_or_else(no_scope)?;
                drop(sessions);
                session.depth = session.depth.saturating_sub(1);
                let outermost = session.depth == 0;
                let result = session.ctrl.leave();
                if !outermost {
                    self.sessions
                        .lock()
                        .expect("sessions")
                        .insert((g, p), session);
                }
                match result {
                    // Inner leave never coordinates; outer-only.
                    Ok(None) => Ok(HttpResponse::json(200, "{\"outcome\":\"none\"}")),
                    Ok(Some(_)) if !outermost => {
                        Ok(HttpResponse::json(200, "{\"outcome\":\"none\"}"))
                    }
                    Ok(Some(ticket)) => {
                        // A synchronous leave has already committed inside
                        // Controller::leave — its outcome is known; the
                        // other modes hand out a pollable ticket.
                        let installed = self.handles[g][p]
                            .read(|c| c.outcome_of_ticket(&ticket.ticket))
                            .is_some_and(|outcome| outcome.is_installed());
                        if installed {
                            self.telemetry.add(names::SERVE_INSTALLED, 1);
                            return Ok(HttpResponse::json(200, "{\"outcome\":\"installed\"}"));
                        }
                        let public = self.tickets.publish(g, p, &[ticket.ticket])[0];
                        Ok(HttpResponse::json(202, format!("{{\"ticket\":{public}}}")))
                    }
                    Err(CoordError::Invalidated { vetoers }) => {
                        self.telemetry.add(names::SERVE_VETOED, 1);
                        Err(invalidated(&vetoers))
                    }
                    Err(CoordError::Busy { .. }) => Err(self.backpressure()),
                    Err(CoordError::Timeout(_)) => Err(error(504, "coordination timed out")),
                    Err(e) => Err(error(500, &e.to_string())),
                }
            }
            _ => unreachable!("routed actions only"),
        }
    }
}

#[cfg(test)]
mod ticket_table {
    use super::*;

    fn terminal() -> TicketStatus {
        TicketStatus::Aborted {
            reason: "terminal".into(),
        }
    }

    #[test]
    fn an_entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<TicketRef>(), 16);
    }

    #[test]
    fn ids_never_issued_resolve_to_nothing() {
        let table = PublicTickets::new();
        assert_eq!(table.publish(3, 1, &[TicketId(7), TicketId(8)]), [1, 2]);
        assert_eq!(
            table.resolve(&[0, 1, 2, 3, u64::MAX]),
            [
                None,
                Some((3, 1, TicketId(7))),
                Some((3, 1, TicketId(8))),
                None,
                None
            ]
        );
    }

    #[test]
    fn tickets_published_from_several_threads_resolve_to_their_own() {
        let table = Arc::new(PublicTickets::new());
        let start = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4usize)
            .map(|g| {
                let (table, start) = (Arc::clone(&table), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let mut issued = Vec::new();
                    for round in 0..500u64 {
                        let p = (round % 2) as usize;
                        let tickets: Vec<TicketId> = (0..1 + round % 3)
                            .map(|i| TicketId(1000 * g as u64 + 10 * round + i))
                            .collect();
                        let publics = table.publish(g, p, &tickets);
                        assert_eq!(publics.len(), tickets.len());
                        // One publication's ids are consecutive.
                        assert!(publics.windows(2).all(|w| w[1] == w[0] + 1));
                        issued.extend(
                            publics
                                .into_iter()
                                .zip(tickets)
                                .map(|(public, t)| (public, (g, p, t))),
                        );
                    }
                    issued
                })
            })
            .collect();
        let mut issued: Vec<(u64, Resolved)> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("publisher"))
            .collect();
        issued.sort_by_key(|&(public, _)| public);
        // Every id from 1 up was issued exactly once.
        assert!(issued
            .iter()
            .map(|&(public, _)| public)
            .eq(1..=issued.len() as u64));
        let publics: Vec<u64> = issued.iter().map(|&(public, _)| public).collect();
        let resolved = table.resolve(&publics);
        for ((public, expected), found) in issued.iter().zip(resolved) {
            assert_eq!(found, Some(*expected), "public ticket {public}");
        }
        let next = issued.len() as u64 + 1;
        assert_eq!(table.resolve(&[next]), [None]);
    }

    #[test]
    fn a_terminal_status_is_counted_once_and_only_for_issued_ids() {
        let table = PublicTickets::new();
        table.publish(0, 0, &[TicketId(1), TicketId(2)]);
        let (done, pending) = (terminal(), TicketStatus::Pending { run: None });
        let first = table.first_terminal([(1, &done), (2, &pending), (9, &done)]);
        assert_eq!(first, [&done]);
        let again = table.first_terminal([(1, &done), (2, &done)]);
        assert_eq!(again, [&done]);
        assert!(table.first_terminal([(1, &done), (2, &done)]).is_empty());
    }
}
