//! Seeded operation streams and the generator's own model of the state they
//! should leave behind.
//!
//! A stream is a pure function of `(seed, client, index)`: it never looks at
//! a clock or at a reply, so the same seed gives byte-identical requests
//! whatever the timing. To keep the *outcome* just as deterministic, every
//! order is written by exactly one client (client `c` of `n` owns the orders
//! `o % n == c`), which issues its ops one at a time: the last write to a
//! cell is then fixed by the stream, not by a race, and the model can be
//! exact. It also means no two proposals ever race on one group, which the
//! slices need: a proposer that loses such a race retries after a 1-8 ms
//! timer, and the sharded runtime's timer wheel can hold a sub-tick timer
//! for a full 1.024 s revolution, stalling the blocked client for a second.
//! `order-mixed` measures that path on its own, in a contention burst after
//! the slices (see `http::contention_burst`).
//!
//! The coordinators reject null transitions, so every valid mutation must
//! change its cell; the stream tracks the cell's value and never repeats it.
//! Invalid mutations use values no valid op ever writes (odd prices, huge
//! quantities, foreign delivery terms), so they differ from *any* reachable
//! state and are vetoed by the peers' role rules regardless of interleaving.

use crate::config::{self, CATALOGUE};
use b2b_apps::{Order, OrderLine, OrderUpdate};

/// SplitMix64: tiny, seedable, and owned by the benchmark so that a change
/// to the repo's vendored `rand` cannot change the workloads.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for sub-purpose `lane` of `seed`.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipfian ranks over `n` items by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of rank 0, the head.
    #[cfg(test)]
    pub fn head_share(&self) -> f64 {
        self.cdf[0]
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

pub fn item_name(k: usize) -> String {
    format!("item{k}")
}

/// The one delivery-terms string valid `ship` ops commit (write-once field).
pub const TERMS: &str = "48h courier";
const QTY_MAX: u64 = 9_999;

/// Quantity every order's item `k` is seeded with during set-up.
pub fn seed_qty(order: usize, k: usize) -> u32 {
    1 + ((order * 7 + k * 13) % 50) as u32
}

/// The state set-up leaves every order in: the whole catalogue ordered,
/// nothing priced yet (`price` only needs the line to exist).
pub fn seeded_order(order: usize) -> Order {
    Order {
        lines: (0..CATALOGUE)
            .map(|k| OrderLine::new(item_name(k), seed_qty(order, k)))
            .collect(),
        delivery_terms: None,
    }
}

/// What a client asks of one order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    Read,
    /// Customer sets an item's quantity.
    Lines {
        item: usize,
        qty: u32,
    },
    /// Supplier prices an item.
    Price {
        item: usize,
        unit_price: u32,
    },
    /// Approver sanctions an item (four-party, one-way).
    Approve {
        item: usize,
    },
    /// Dispatcher commits [`TERMS`] (four-party, write-once).
    Ship,
    /// Customer tries to price an item: vetoed.
    BadCustomerPrice {
        item: usize,
        unit_price: u32,
    },
    /// Supplier tries to change a quantity: vetoed.
    BadSupplierQty {
        item: usize,
        qty: u32,
    },
    /// Customer tries to set delivery terms: vetoed.
    BadCustomerShip,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `200` with the order's JSON.
    ReadOk,
    /// `200 installed`.
    Installed,
    /// `409` carrying a veto reason; state unchanged.
    Vetoed,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub order: usize,
    pub action: Action,
}

impl Op {
    pub fn expect(&self) -> Expect {
        match self.action {
            Action::Read => Expect::ReadOk,
            Action::Lines { .. } | Action::Price { .. } | Action::Approve { .. } | Action::Ship => {
                Expect::Installed
            }
            Action::BadCustomerPrice { .. }
            | Action::BadSupplierQty { .. }
            | Action::BadCustomerShip => Expect::Vetoed,
        }
    }

    /// `(method, path, body)` of the HTTP request, `mode=sync`.
    pub fn http(&self) -> (&'static str, String, String) {
        let o = self.order;
        let item_body = |item: usize, field: &str, v: u32| {
            format!("{{\"item\":\"{}\",\"{field}\":{v}}}", item_name(item))
        };
        match &self.action {
            Action::Read => ("GET", format!("/orders/{o}"), String::new()),
            Action::Lines { item, qty } => (
                "POST",
                format!("/orders/{o}/lines?mode=sync"),
                item_body(*item, "qty", *qty),
            ),
            Action::Price { item, unit_price } => (
                "POST",
                format!("/orders/{o}/price?mode=sync"),
                item_body(*item, "unit_price", *unit_price),
            ),
            Action::Approve { item } => (
                "POST",
                format!("/orders/{o}/approve?mode=sync"),
                format!("{{\"item\":\"{}\"}}", item_name(*item)),
            ),
            Action::Ship => (
                "POST",
                format!("/orders/{o}/ship?mode=sync"),
                format!("{{\"terms\":\"{TERMS}\"}}"),
            ),
            Action::BadCustomerPrice { item, unit_price } => (
                "POST",
                format!("/orders/{o}/price?mode=sync&as=customer"),
                item_body(*item, "unit_price", *unit_price),
            ),
            Action::BadSupplierQty { item, qty } => (
                "POST",
                format!("/orders/{o}/lines?mode=sync&as=supplier"),
                item_body(*item, "qty", *qty),
            ),
            Action::BadCustomerShip => (
                "POST",
                format!("/orders/{o}/ship?mode=sync&as=customer"),
                "{\"terms\":\"never\"}".to_string(),
            ),
        }
    }

    /// The engine-level delta of a mutating op.
    pub fn delta(&self) -> Option<OrderUpdate> {
        match &self.action {
            Action::Read => None,
            Action::Lines { item, qty } | Action::BadSupplierQty { item, qty } => {
                Some(OrderUpdate::SetQuantity {
                    item: item_name(*item),
                    qty: *qty,
                })
            }
            Action::Price { item, unit_price } | Action::BadCustomerPrice { item, unit_price } => {
                Some(OrderUpdate::SetPrice {
                    item: item_name(*item),
                    unit_price: *unit_price,
                })
            }
            Action::Approve { item } => Some(OrderUpdate::Approve {
                item: item_name(*item),
            }),
            Action::Ship => Some(OrderUpdate::SetDeliveryTerms {
                terms: TERMS.to_string(),
            }),
            Action::BadCustomerShip => Some(OrderUpdate::SetDeliveryTerms {
                terms: "never".to_string(),
            }),
        }
    }

    /// One element of a `POST /orders/:id/bulk` body.
    fn bulk_element(&self) -> String {
        match &self.action {
            Action::Lines { item, qty } => {
                format!(
                    "{{\"op\":\"line\",\"item\":\"{}\",\"qty\":{qty}}}",
                    item_name(*item)
                )
            }
            Action::Price { item, unit_price } => format!(
                "{{\"op\":\"price\",\"item\":\"{}\",\"unit_price\":{unit_price}}}",
                item_name(*item)
            ),
            other => panic!("{other:?} does not travel in bulk windows"),
        }
    }
}

/// The body of a `POST /orders/:id/bulk` carrying `ops`.
pub fn bulk_body(ops: &[Op]) -> String {
    let elems: Vec<String> = ops.iter().map(Op::bulk_element).collect();
    format!("{{\"ops\":[{}]}}", elems.join(","))
}

/// The generator's model: what every order must hold once all valid ops
/// have installed and every invalid one has been vetoed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    pub orders: Vec<Order>,
}

impl Model {
    pub fn seeded(orders: usize) -> Model {
        Model {
            orders: (0..orders).map(seeded_order).collect(),
        }
    }

    /// Applies a valid op; reads and invalid ops leave the model alone.
    pub fn apply(&mut self, op: &Op) {
        if op.expect() == Expect::Installed {
            op.delta()
                .expect("mutations have deltas")
                .apply(&mut self.orders[op.order])
                .expect("streams only emit applicable deltas");
        }
    }

    /// Takes from `other` the orders client `client` of `clients` owns.
    pub fn merge_owned(&mut self, other: &Model, clients: usize, client: usize) {
        for o in (client..self.orders.len()).step_by(clients) {
            self.orders[o] = other.orders[o].clone();
        }
    }
}

fn fresh_qty(rng: &mut Rng, cur: u32) -> u32 {
    let q = 1 + rng.below(QTY_MAX) as u32;
    if q == cur {
        q % QTY_MAX as u32 + 1
    } else {
        q
    }
}

fn fresh_price(rng: &mut Rng, cur: Option<u32>) -> u32 {
    let p = 2 * (1 + rng.below(QTY_MAX) as u32);
    if Some(p) == cur {
        2 * ((p / 2) % QTY_MAX as u32 + 1)
    } else {
        p
    }
}

/// `order-sync`: one client's closed-loop stream of single `lines`/`price`
/// mutations over the orders it owns, picked uniformly.
pub struct SyncStream {
    rng: Rng,
    owned: Vec<usize>,
    pub model: Model,
}

impl SyncStream {
    pub fn new(seed: u64, client: usize, clients: usize, orders: usize) -> SyncStream {
        SyncStream {
            rng: Rng::lane(seed, 100 + client as u64),
            owned: (client..orders).step_by(clients).collect(),
            model: Model::seeded(orders),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let order = self.owned[self.rng.below(self.owned.len() as u64) as usize];
        let item = self.rng.below(CATALOGUE as u64) as usize;
        let line = &self.model.orders[order].lines[item];
        let action = if self.rng.below(2) == 0 {
            Action::Lines {
                item,
                qty: fresh_qty(&mut self.rng, line.qty),
            }
        } else {
            Action::Price {
                item,
                unit_price: fresh_price(&mut self.rng, line.unit_price),
            }
        };
        let op = Op { order, action };
        self.model.apply(&op);
        op
    }
}

/// `order-bulk` and `fleet-durable`: one client's closed-loop stream of
/// windows, round-robin over the orders it owns. A window is all one role's
/// (bulk requests carry one `as=`): customer `lines` windows and, when
/// `with_prices`, supplier `price` windows alternate per order.
pub struct WindowStream {
    rng: Rng,
    owned: Vec<usize>,
    cursor: usize,
    window: usize,
    with_prices: bool,
    pub model: Model,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Window {
    pub order: usize,
    /// `true`: a supplier window of `price` ops; else customer `lines`.
    pub supplier: bool,
    pub ops: Vec<Op>,
}

impl WindowStream {
    pub fn new(
        seed: u64,
        client: usize,
        clients: usize,
        orders: usize,
        window: usize,
        with_prices: bool,
    ) -> WindowStream {
        WindowStream {
            rng: Rng::lane(seed, 200 + client as u64),
            owned: (client..orders).step_by(clients).collect(),
            cursor: 0,
            window,
            with_prices,
            model: Model::seeded(orders),
        }
    }

    pub fn next_window(&mut self) -> Window {
        let order = self.owned[self.cursor % self.owned.len()];
        let lap = self.cursor / self.owned.len();
        self.cursor += 1;
        self.window_on(order, self.with_prices && lap % 2 == 1)
    }

    /// A window on `order` out of turn (the fault phase picks its groups).
    pub fn window_on(&mut self, order: usize, supplier: bool) -> Window {
        let ops = (0..self.window)
            .map(|i| {
                let item = i % CATALOGUE;
                let line = &self.model.orders[order].lines[item];
                let action = if supplier {
                    Action::Price {
                        item,
                        unit_price: fresh_price(&mut self.rng, line.unit_price),
                    }
                } else {
                    Action::Lines {
                        item,
                        qty: fresh_qty(&mut self.rng, line.qty),
                    }
                };
                let op = Op { order, action };
                self.model.apply(&op);
                op
            })
            .collect();
        Window {
            order,
            supplier,
            ops,
        }
    }
}

/// `order-mixed`: the one global open-loop stream. Every client replays all
/// of it (so every client holds the full model) and sends only the ops on
/// orders it owns; op `index` is due at [`due_ns`]`(index)` whoever sends it,
/// so the schedule never depends on a completion.
pub struct MixedStream {
    rng: Rng,
    zipf: Zipf,
    issued: u64,
    pub model: Model,
}

/// When op number `index` of the open-loop schedule is due, in ns after the
/// schedule starts.
pub fn due_ns(index: u64, rate: f64) -> u64 {
    (index as f64 * 1e9 / rate) as u64
}

impl MixedStream {
    pub fn new(seed: u64, orders: usize) -> MixedStream {
        MixedStream {
            rng: Rng::lane(seed, 300),
            zipf: Zipf::new(orders, config::ZIPF_S),
            issued: 0,
            model: Model::seeded(orders),
        }
    }

    /// Schedule index of the next op.
    pub fn next_index(&self) -> u64 {
        self.issued
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let order = self.zipf.sample(&mut self.rng);
        let u = self.rng.unit();
        let item = self.rng.below(CATALOGUE as u64) as usize;
        let action = if u < config::MIX_READ {
            Action::Read
        } else if u < config::MIX_READ + config::MIX_VALID {
            self.valid_mutation(order, item)
        } else {
            match self.rng.below(3) {
                0 => Action::BadCustomerPrice {
                    item,
                    unit_price: 2 * self.rng.below(QTY_MAX) as u32 + 1,
                },
                1 => Action::BadSupplierQty {
                    item,
                    qty: 1_000_000 + self.rng.below(QTY_MAX) as u32,
                },
                _ => Action::BadCustomerShip,
            }
        };
        let op = Op { order, action };
        self.model.apply(&op);
        op
    }

    /// A role uniformly among those that still have a legal action on
    /// `order`: customer and supplier always do; the approver while an item
    /// is unapproved (approval is one-way); the dispatcher while the terms
    /// are unset (write-once).
    fn valid_mutation(&mut self, order: usize, item: usize) -> Action {
        let state = &self.model.orders[order];
        let unapproved: Vec<usize> = (0..CATALOGUE)
            .filter(|k| !state.lines[*k].approved)
            .collect();
        let mut roles = vec![0u8, 1];
        if !unapproved.is_empty() {
            roles.push(2);
        }
        if state.delivery_terms.is_none() {
            roles.push(3);
        }
        let line = &state.lines[item];
        match roles[self.rng.below(roles.len() as u64) as usize] {
            0 => Action::Lines {
                item,
                qty: fresh_qty(&mut self.rng, line.qty),
            },
            1 => Action::Price {
                item,
                unit_price: fresh_price(&mut self.rng, line.unit_price),
            },
            2 => Action::Approve {
                item: unapproved[self.rng.below(unapproved.len() as u64) as usize],
            },
            _ => Action::Ship,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed(seed: u64, n: usize) -> Vec<Op> {
        let mut s = MixedStream::new(seed, 2048);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_same_expected_vetoes() {
        let (a, b) = (mixed(7, 40_000), mixed(7, 40_000));
        assert_eq!(a, b);
        let vetoes = |ops: &[Op]| -> Vec<usize> {
            ops.iter()
                .enumerate()
                .filter(|(_, o)| o.expect() == Expect::Vetoed)
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(vetoes(&a), vetoes(&b));
        // Byte-identical requests, not just equal structs.
        let wire = |ops: &[Op]| ops.iter().map(Op::http).collect::<Vec<_>>();
        assert_eq!(wire(&a), wire(&b));

        let mut s1 = SyncStream::new(7, 0, 2, 128);
        let mut s2 = SyncStream::new(7, 0, 2, 128);
        let mut w1 = WindowStream::new(7, 1, 2, 64, 64, true);
        let mut w2 = WindowStream::new(7, 1, 2, 64, 64, true);
        for _ in 0..2_000 {
            assert_eq!(s1.next_op(), s2.next_op());
            assert_eq!(w1.next_window(), w2.next_window());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        assert_ne!(mixed(7, 1_000), mixed(8, 1_000));
        let ops = |s: &mut SyncStream| (0..100).map(|_| s.next_op()).collect::<Vec<_>>();
        assert_ne!(
            ops(&mut SyncStream::new(1, 0, 2, 128)),
            ops(&mut SyncStream::new(2, 0, 2, 128))
        );
        assert_ne!(
            ops(&mut SyncStream::new(1, 0, 2, 128)),
            ops(&mut SyncStream::new(1, 1, 2, 128))
        );
    }

    #[test]
    fn zipf_head_and_mix_within_one_percent() {
        let n = 100_000;
        let ops = mixed(11, n);
        let share = |f: &dyn Fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / n as f64;
        let head = Zipf::new(2048, config::ZIPF_S).head_share();
        assert!((share(&|o| o.order == 0) - head).abs() < 0.01);
        assert!((share(&|o| o.expect() == Expect::ReadOk) - 0.60).abs() < 0.01);
        assert!((share(&|o| o.expect() == Expect::Installed) - 0.30).abs() < 0.01);
        assert!((share(&|o| o.expect() == Expect::Vetoed) - 0.10).abs() < 0.01);
    }

    #[test]
    fn open_loop_schedule_is_a_function_of_the_index() {
        let rate = config::MIXED_RATE;
        assert_eq!(due_ns(0, rate), 0);
        assert_eq!(due_ns(900, rate), 1_000_000_000);
        let mut s = MixedStream::new(3, 2048);
        for k in 0..50u64 {
            assert_eq!(s.next_index(), k);
            s.next_op();
        }
        for i in 0..10_000u64 {
            assert!(due_ns(i + 1, rate) > due_ns(i, rate));
        }
    }

    #[test]
    fn valid_ops_change_their_order_and_nothing_else_does() {
        let mut s = MixedStream::new(5, 32);
        for _ in 0..50_000 {
            let before = s.model.orders.clone();
            let op = s.next_op();
            if op.expect() == Expect::Installed {
                assert_ne!(before[op.order], s.model.orders[op.order], "{op:?}");
            } else {
                assert_eq!(before[op.order], s.model.orders[op.order]);
            }
        }
    }

    #[test]
    fn windows_stay_on_owned_orders_and_change_them() {
        let mut w = WindowStream::new(9, 0, 2, 64, 64, true);
        for _ in 0..200 {
            let before = w.model.clone();
            let win = w.next_window();
            assert_eq!(win.ops.len(), 64);
            assert_ne!(before.orders[win.order], w.model.orders[win.order]);
            assert_eq!(win.order % 2, 0);
        }
    }

    #[test]
    fn merge_takes_each_order_from_its_owner() {
        let mut a = SyncStream::new(4, 0, 2, 16);
        let mut b = SyncStream::new(4, 1, 2, 16);
        for _ in 0..2_000 {
            a.next_op();
            b.next_op();
        }
        let mut merged = Model::seeded(16);
        merged.merge_owned(&a.model, 2, 0);
        merged.merge_owned(&b.model, 2, 1);
        for o in 0..16 {
            let owner = if o % 2 == 0 { &a.model } else { &b.model };
            assert_eq!(merged.orders[o], owner.orders[o]);
            assert_ne!(merged.orders[o], seeded_order(o));
        }
    }
}
