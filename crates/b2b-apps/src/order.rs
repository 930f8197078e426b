//! The order-processing application of §5.2 (Figure 7).
//!
//! "A customer and supplier share the state of an order. Asymmetric
//! validation rules apply to state changes. The customer is allowed to add
//! items and the quantity required to an order but is not allowed to price
//! the items. The supplier can price items but cannot amend the order in
//! any other way."
//!
//! The alternative instantiation the paper sketches — "an approver to
//! sanction the items ordered by the customer and a dispatcher to commit
//! to delivery terms … shared between four parties" — is supported through
//! the optional roles of [`OrderRoles`].

use b2b_core::{B2BObject, Decision, FoldStep};
use b2b_crypto::{sha256, Digest32, PartyId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;

/// One line of an order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderLine {
    /// The item ordered.
    pub item: String,
    /// Quantity required (set by the customer).
    pub qty: u32,
    /// Unit price (set by the supplier).
    pub unit_price: Option<u32>,
    /// Whether the approver has sanctioned the line (four-party variant).
    pub approved: bool,
}

impl OrderLine {
    /// A new unpriced, unapproved line.
    pub fn new(item: impl Into<String>, qty: u32) -> OrderLine {
        OrderLine {
            item: item.into(),
            qty,
            unit_price: None,
            approved: false,
        }
    }
}

/// The shared order state.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Order {
    /// The order lines, in entry order.
    pub lines: Vec<OrderLine>,
    /// Delivery terms committed by the dispatcher (four-party variant).
    pub delivery_terms: Option<String>,
}

impl Order {
    /// An empty order.
    pub fn new() -> Order {
        Order::default()
    }

    /// The line for `item`, if present.
    pub fn line(&self, item: &str) -> Option<&OrderLine> {
        self.lines.iter().find(|l| l.item == item)
    }

    /// Adds or replaces the quantity for `item` (a customer action).
    pub fn set_quantity(&mut self, item: &str, qty: u32) {
        match self.lines.iter_mut().find(|l| l.item == item) {
            Some(line) => line.qty = qty,
            None => self.lines.push(OrderLine::new(item, qty)),
        }
    }

    /// Prices `item` (a supplier action). Returns `false` if absent.
    pub fn set_price(&mut self, item: &str, unit_price: u32) -> bool {
        match self.lines.iter_mut().find(|l| l.item == item) {
            Some(line) => {
                line.unit_price = Some(unit_price);
                true
            }
            None => false,
        }
    }

    /// Approves `item` (an approver action). Returns `false` if absent.
    pub fn approve(&mut self, item: &str) -> bool {
        match self.lines.iter_mut().find(|l| l.item == item) {
            Some(line) => {
                line.approved = true;
                true
            }
            None => false,
        }
    }

    /// Serialises the order (JSON) for coordination.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("order serialises")
    }

    /// Parses an order from coordinated state bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Order> {
        serde_json::from_slice(bytes).ok()
    }
}

impl fmt::Display for Order {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            " {:10} | {:>4} | {:>6} | {:>8}",
            "item", "qty", "price", "approved"
        )?;
        for l in &self.lines {
            writeln!(
                f,
                " {:10} | {:>4} | {:>6} | {:>8}",
                l.item,
                l.qty,
                l.unit_price
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into()),
                if l.approved { "yes" } else { "-" }
            )?;
        }
        if let Some(terms) = &self.delivery_terms {
            writeln!(f, " delivery: {terms}")?;
        }
        Ok(())
    }
}

/// An update-style delta (§4.3.1) on an order: one role action, applied
/// to whatever state the group currently agrees on at validation time —
/// so concurrent deltas from different organisations *compose* (and can
/// coalesce into one batched round) instead of overwriting each other,
/// as a whole-state proposal would.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderUpdate {
    /// Add `item`, or set its quantity (a customer action).
    SetQuantity {
        /// The item ordered.
        item: String,
        /// The new quantity.
        qty: u32,
    },
    /// Price `item` (a supplier action).
    SetPrice {
        /// The item priced.
        item: String,
        /// The unit price.
        unit_price: u32,
    },
    /// Approve `item` (an approver action, four-party variant).
    Approve {
        /// The item approved.
        item: String,
    },
    /// Commit delivery terms (a dispatcher action, four-party variant).
    SetDeliveryTerms {
        /// The committed terms.
        terms: String,
    },
}

impl OrderUpdate {
    /// Serialises the delta (JSON) for coordination.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("order update serialises")
    }

    /// Parses a delta from update bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<OrderUpdate> {
        serde_json::from_slice(bytes).ok()
    }

    /// Applies the delta to `order`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the delta no longer applies (e.g.
    /// pricing an item that was never ordered).
    pub fn apply(&self, order: &mut Order) -> Result<(), String> {
        self.change(order)?.install(order);
        Ok(())
    }

    /// What the delta does to `order`, or why it does not apply.
    fn change(&self, order: &Order) -> Result<Change, String> {
        let (item, edit): (&str, &dyn Fn(&mut OrderLine)) = match self {
            OrderUpdate::SetQuantity { item, qty } => (item, &|line| line.qty = *qty),
            OrderUpdate::SetPrice { item, unit_price } => {
                (item, &|line| line.unit_price = Some(*unit_price))
            }
            OrderUpdate::Approve { item } => (item, &|line| line.approved = true),
            OrderUpdate::SetDeliveryTerms { terms } => return Ok(Change::Terms(terms.clone())),
        };
        let Some(i) = order.lines.iter().position(|l| l.item == item) else {
            return match self {
                OrderUpdate::SetQuantity { qty, .. } => {
                    Ok(Change::Append(OrderLine::new(item, *qty)))
                }
                _ => Err(format!("no line for item {item}")),
            };
        };
        let mut line = order.lines[i].clone();
        edit(&mut line);
        Ok(Change::Line(i, line))
    }
}

/// What a delta does to the order it applies to: it replaces one line,
/// appends one, or sets the delivery terms.
enum Change {
    /// Line `i` becomes the given line.
    Line(usize, OrderLine),
    /// The line is appended.
    Append(OrderLine),
    /// The delivery terms are set.
    Terms(String),
}

impl Change {
    fn install(self, order: &mut Order) {
        match self {
            Change::Line(i, line) => order.lines[i] = line,
            Change::Append(line) => order.lines.push(line),
            Change::Terms(terms) => order.delivery_terms = Some(terms),
        }
    }
}

/// The text around an order's lines in its encoding ([`Order::to_bytes`]):
/// `HEAD`, the lines separated by commas, `TAIL`, the delivery terms, `}`.
const HEAD: &str = "{\"lines\":[";
const TAIL: &str = "],\"delivery_terms\":";

/// Where the lines of an order's encoding end: `ends[i]` is the offset
/// just past line `i`. A successor's bytes are the bytes before it with
/// the one part a delta changed spliced in, so nothing else is encoded.
#[derive(Clone)]
struct Layout {
    ends: Vec<usize>,
}

impl Layout {
    /// Encodes `order` exactly as [`Order::to_bytes`] does, with its
    /// layout, into a buffer of `capacity` bytes to begin with.
    fn encode(order: &Order, capacity: usize) -> (Vec<u8>, Layout) {
        let mut out = String::with_capacity(capacity);
        out.push_str(HEAD);
        let mut ends = Vec::with_capacity(order.lines.len());
        for (i, line) in order.lines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            line.write_json(&mut out);
            ends.push(out.len());
        }
        out.push_str(TAIL);
        order.delivery_terms.write_json(&mut out);
        out.push('}');
        (out.into_bytes(), Layout { ends })
    }

    /// The bytes of the order that `change` makes of the one `prev`
    /// encodes, this layout following them. `text` is scratch space.
    fn splice(&mut self, prev: &[u8], change: &Change, text: &mut String) -> Vec<u8> {
        text.clear();
        let lines_end = self.ends.last().copied().unwrap_or(HEAD.len());
        let (start, end) = match change {
            Change::Line(i, line) => {
                line.write_json(text);
                let start = match i {
                    0 => HEAD.len(),
                    i => self.ends[i - 1] + 1,
                };
                let end = self.ends[*i];
                for e in &mut self.ends[*i..] {
                    *e = *e + text.len() + start - end;
                }
                (start, end)
            }
            Change::Append(line) => {
                if !self.ends.is_empty() {
                    text.push(',');
                }
                line.write_json(text);
                self.ends.push(lines_end + text.len());
                (lines_end, lines_end)
            }
            Change::Terms(terms) => {
                terms.write_json(text);
                (lines_end + TAIL.len(), prev.len() - 1)
            }
        };
        let mut next = Vec::with_capacity(prev.len() - (end - start) + text.len());
        next.extend_from_slice(&prev[..start]);
        next.extend_from_slice(text.as_bytes());
        next.extend_from_slice(&prev[end..]);
        next
    }
}

/// The party-to-role assignment for an order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderRoles {
    /// May add items and set quantities.
    pub customer: PartyId,
    /// May price items, and nothing else.
    pub supplier: PartyId,
    /// Four-party variant: may flip lines to approved, and nothing else.
    pub approver: Option<PartyId>,
    /// Four-party variant: may commit delivery terms, and nothing else.
    pub dispatcher: Option<PartyId>,
}

impl OrderRoles {
    /// The classic two-party customer/supplier assignment (§5.2).
    pub fn two_party(customer: PartyId, supplier: PartyId) -> OrderRoles {
        OrderRoles {
            customer,
            supplier,
            approver: None,
            dispatcher: None,
        }
    }

    /// The four-party variant with approver and dispatcher.
    pub fn four_party(
        customer: PartyId,
        supplier: PartyId,
        approver: PartyId,
        dispatcher: PartyId,
    ) -> OrderRoles {
        OrderRoles {
            customer,
            supplier,
            approver: Some(approver),
            dispatcher: Some(dispatcher),
        }
    }
}

/// The shared order object: state + the asymmetric role rules.
///
/// An order is decoded once per install. A fold over the state the object
/// last installed starts from the typed order it holds, and installing
/// the state a fold reached takes the typed successor; both are matched by
/// the digest of the state's bytes, never by a copy of them. Beside each
/// typed order the object keeps where the lines of its bytes end, when the
/// bytes are the order's own encoding, so a fold splices each successor
/// instead of encoding it whole.
pub struct OrderObject {
    order: Order,
    roles: OrderRoles,
    /// Digest of the state bytes `order` was installed from.
    applied: Digest32,
    /// The layout of those bytes, when they are `order`'s own encoding.
    layout: Option<Layout>,
    /// The successor the last fold reached, under the digest of its bytes.
    folded: Cell<Option<Folded>>,
}

/// A fold's last successor: the digest of its bytes, the typed order and,
/// when the bytes are its encoding, their layout.
type Folded = (Digest32, Order, Option<Layout>);

/// The roles a party holds on an order.
#[derive(Clone, Copy)]
struct Role {
    customer: bool,
    supplier: bool,
    approver: bool,
    dispatcher: bool,
}

impl OrderObject {
    /// Creates the shared order for the given role assignment.
    pub fn new(roles: OrderRoles) -> OrderObject {
        let order = Order::new();
        let (bytes, layout) = Layout::encode(&order, 64);
        OrderObject {
            applied: sha256(&bytes),
            layout: Some(layout),
            order,
            roles,
            folded: Cell::new(None),
        }
    }

    /// The current order.
    pub fn order(&self) -> &Order {
        &self.order
    }

    /// The roles `proposer` holds, or why it may not act at all.
    fn role(&self, proposer: &PartyId) -> Result<Role, String> {
        let role = Role {
            customer: proposer == &self.roles.customer,
            supplier: proposer == &self.roles.supplier,
            approver: self.roles.approver.as_ref() == Some(proposer),
            dispatcher: self.roles.dispatcher.as_ref() == Some(proposer),
        };
        if !(role.customer || role.supplier || role.approver || role.dispatcher) {
            return Err(format!("{proposer} has no role on this order"));
        }
        Ok(role)
    }

    /// Checks one transition under the proposer's role. Returns the first
    /// violation, if any.
    fn check(&self, proposer: &PartyId, cur: &Order, next: &Order) -> Option<String> {
        let role = match self.role(proposer) {
            Ok(role) => role,
            Err(reason) => return Some(reason),
        };
        if let Some(reason) = check_terms(
            role,
            cur.delivery_terms.as_deref(),
            next.delivery_terms.as_deref(),
        ) {
            return Some(reason);
        }
        if role.dispatcher && next.lines != cur.lines {
            return Some("the dispatcher may not amend order lines".into());
        }
        // Lines may only be appended, never removed or reordered.
        if next.lines.len() < cur.lines.len() {
            return Some("order lines may not be removed".into());
        }
        next.lines
            .iter()
            .enumerate()
            .find_map(|(i, line)| self.check_line(role, proposer, cur.lines.get(i), line))
    }

    /// [`OrderObject::check`] of `cur` against what `change` makes of it:
    /// a line, or the terms, that the change leaves alone passes every
    /// rule, so only the changed part is looked at.
    fn check_change(&self, proposer: &PartyId, cur: &Order, change: &Change) -> Option<String> {
        let role = match self.role(proposer) {
            Ok(role) => role,
            Err(reason) => return Some(reason),
        };
        let (old, new) = match change {
            Change::Terms(terms) => {
                return check_terms(role, cur.delivery_terms.as_deref(), Some(terms))
            }
            Change::Line(i, new) => (Some(&cur.lines[*i]), new),
            Change::Append(new) => (None, new),
        };
        if role.dispatcher && old != Some(new) {
            return Some("the dispatcher may not amend order lines".into());
        }
        self.check_line(role, proposer, old, new)
    }

    /// The rules for line `new`, which was `old` (`None`: it is new).
    fn check_line(
        &self,
        role: Role,
        proposer: &PartyId,
        old: Option<&OrderLine>,
        new: &OrderLine,
    ) -> Option<String> {
        let Some(old) = old else {
            // A new line: customers only, unpriced and unapproved.
            if !role.customer {
                return Some(format!(
                    "only the customer may add items ({} added {})",
                    proposer, new.item
                ));
            }
            if new.unit_price.is_some() {
                return Some("the customer may not price items".into());
            }
            if new.approved {
                return Some("the customer may not approve items".into());
            }
            return None;
        };
        if new.item != old.item {
            return Some("items may not be renamed".into());
        }
        if new.qty != old.qty && !role.customer {
            return Some(format!(
                "only the customer may change quantities ({} touched {})",
                proposer, new.item
            ));
        }
        if new.unit_price != old.unit_price && !role.supplier {
            return Some(format!(
                "only the supplier may price items ({} priced {})",
                proposer, new.item
            ));
        }
        if new.approved != old.approved {
            if self.roles.approver.is_none() {
                return Some("no approver role on this order".into());
            }
            if !role.approver {
                return Some("only the approver may approve items".into());
            }
            if old.approved {
                return Some("approval may not be revoked".into());
            }
        }
        // Role exclusivity: each role touches only its fields.
        if role.customer && new.unit_price != old.unit_price {
            return Some("the customer may not price items".into());
        }
        if role.supplier && (new.qty != old.qty || new.approved != old.approved) {
            return Some("the supplier may not amend the order".into());
        }
        if role.approver && (new.qty != old.qty || new.unit_price != old.unit_price) {
            return Some("the approver may only approve".into());
        }
        None
    }

    /// `update` replayed over `cur` (`None`: the state did not decode) —
    /// what [`B2BObject::apply_update`] does to it, in typed form — and,
    /// for a `proposer`, the verdict [`B2BObject::validate_update`] gives.
    fn replay(
        &self,
        proposer: Option<&PartyId>,
        cur: Option<&Order>,
        update: &[u8],
    ) -> (Result<Next, String>, Option<Decision>) {
        let fail = |reason: String| {
            (
                Err(reason.clone()),
                proposer.map(|_| Decision::reject(reason)),
            )
        };
        let decide = |violation: Option<String>| match violation {
            None => Decision::accept(),
            Some(reason) => Decision::reject(reason),
        };
        if let Some(delta) = OrderUpdate::from_bytes(update) {
            let Some(cur) = cur else {
                return fail("undecodable order state".into());
            };
            let change = match delta.change(cur) {
                Ok(change) => change,
                Err(reason) => return fail(reason),
            };
            let verdict = proposer.map(|p| decide(self.check_change(p, cur, &change)));
            return (Ok(Next::Change(change)), verdict);
        }
        let Some(next) = Order::from_bytes(update) else {
            return fail("undecodable order update".into());
        };
        let verdict = match cur {
            Some(cur) => proposer.map(|p| decide(self.check(p, cur, &next))),
            None => proposer.map(|_| Decision::reject("undecodable order")),
        };
        (Ok(Next::Whole(next)), verdict)
    }
}

/// The delivery-terms rule: dispatcher only, write-once.
fn check_terms(role: Role, cur: Option<&str>, next: Option<&str>) -> Option<String> {
    if next != cur {
        if !role.dispatcher {
            return Some("only the dispatcher may set delivery terms".into());
        }
        if cur.is_some() {
            return Some("delivery terms are already committed".into());
        }
    }
    None
}

/// A successor order, replayed in typed form.
enum Next {
    /// A delta: the successor is the change applied, its bytes its
    /// encoding.
    Change(Change),
    /// A whole-state update: the successor's bytes are the update's own.
    Whole(Order),
}

impl B2BObject for OrderObject {
    fn get_state(&self) -> Vec<u8> {
        self.order.to_bytes()
    }

    fn apply_state(&mut self, state: &[u8]) {
        let digest = sha256(state);
        if digest == self.applied {
            return;
        }
        match self.folded.take() {
            Some((folded, order, layout)) if folded == digest => {
                self.order = order;
                self.layout = layout;
            }
            _ => match Order::from_bytes(state) {
                Some(order) => {
                    self.order = order;
                    self.layout = None;
                }
                None => return,
            },
        }
        self.applied = digest;
    }

    fn validate_state(&self, proposer: &PartyId, current: &[u8], proposed: &[u8]) -> Decision {
        let (Some(cur), Some(next)) = (Order::from_bytes(current), Order::from_bytes(proposed))
        else {
            return Decision::reject("undecodable order");
        };
        match self.check(proposer, &cur, &next) {
            None => Decision::accept(),
            Some(reason) => Decision::reject(reason),
        }
    }

    fn apply_update(&self, current: &[u8], update: &[u8]) -> Result<Vec<u8>, String> {
        // Updates arrive either as an [`OrderUpdate`] delta — replayed
        // against whatever state the group agrees on when the round
        // runs, so concurrent compatible actions compose — or as a
        // whole-state `Order` (the scoped enter/update/leave path),
        // which keeps last-writer-proposes semantics and lets the
        // validators veto stale snapshots.
        if let Some(delta) = OrderUpdate::from_bytes(update) {
            let mut order =
                Order::from_bytes(current).ok_or_else(|| "undecodable order state".to_string())?;
            delta.apply(&mut order)?;
            return Ok(order.to_bytes());
        }
        if Order::from_bytes(update).is_some() {
            return Ok(update.to_vec());
        }
        Err("undecodable order update".to_string())
    }

    /// Same decisions and reasons as the default (apply, re-encode, then
    /// [`B2BObject::validate_state`] decoding both sides again), but the
    /// update is applied and checked in typed form.
    fn validate_update(&self, proposer: &PartyId, current: &[u8], update: &[u8]) -> Decision {
        let (_, verdict) = self.replay(Some(proposer), Order::from_bytes(current).as_ref(), update);
        verdict.expect("a proposer gets a verdict")
    }

    /// The default fold's steps, replayed in typed form: `current` is
    /// decoded at most once — not at all when it is the state this object
    /// last installed — and each update is checked against the order the
    /// steps before it reached, by the part it changes. Each successor's
    /// bytes — their hash is what the batch link signs — are the bytes
    /// before it with that part spliced in; an order is encoded whole only
    /// when the bytes before it are not its own encoding (an undecoded
    /// start, or a whole-state update's bytes). The last successor is kept
    /// for [`B2BObject::apply_state`].
    fn fold_updates(
        &self,
        proposer: Option<&PartyId>,
        current: &[u8],
        updates: &[Vec<u8>],
    ) -> Vec<FoldStep> {
        let (mut cur, mut layout) = if sha256(current) == self.applied {
            (Some(Cow::Borrowed(&self.order)), self.layout.clone())
        } else {
            (Order::from_bytes(current).map(Cow::Owned), None)
        };
        let mut steps: Vec<FoldStep> = Vec::with_capacity(updates.len());
        // The step whose successor is the state reached so far, if any.
        let mut reached: Option<usize> = None;
        let mut text = String::new();
        for update in updates {
            let (next, verdict) = self.replay(proposer, cur.as_deref(), update);
            let next = match next {
                Err(reason) => Err(reason),
                Ok(Next::Whole(order)) => {
                    cur = Some(Cow::Owned(order));
                    layout = None;
                    Ok(update.clone())
                }
                Ok(Next::Change(change)) => {
                    let order = cur.as_mut().expect("a delta applies to an order").to_mut();
                    let prev = match reached.map(|i| &steps[i].next) {
                        Some(Ok(state)) => state.as_slice(),
                        _ => current,
                    };
                    match &mut layout {
                        Some(layout) => {
                            let bytes = layout.splice(prev, &change, &mut text);
                            change.install(order);
                            Ok(bytes)
                        }
                        None => {
                            change.install(order);
                            let (bytes, encoded) = Layout::encode(order, prev.len() + 64);
                            layout = Some(encoded);
                            Ok(bytes)
                        }
                    }
                }
            };
            if next.is_ok() {
                reached = Some(steps.len());
            }
            steps.push(FoldStep { next, verdict });
        }
        if let (Some(i), Some(Cow::Owned(order))) = (reached, cur) {
            let bytes = steps[i].next.as_ref().expect("a reached state");
            self.folded.set(Some((sha256(bytes), order, layout)));
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer() -> PartyId {
        PartyId::new("customer")
    }
    fn supplier() -> PartyId {
        PartyId::new("supplier")
    }

    fn two_party_object() -> OrderObject {
        OrderObject::new(OrderRoles::two_party(customer(), supplier()))
    }

    fn validate(obj: &OrderObject, who: &PartyId, cur: &Order, next: &Order) -> Decision {
        obj.validate_state(who, &cur.to_bytes(), &next.to_bytes())
    }

    #[test]
    fn figure7_script_validations() {
        let obj = two_party_object();
        // Customer orders 2 widget1s: valid.
        let s0 = Order::new();
        let mut s1 = s0.clone();
        s1.set_quantity("widget1", 2);
        assert!(validate(&obj, &customer(), &s0, &s1).is_accept());
        // Supplier prices widget1 at 10: valid.
        let mut s2 = s1.clone();
        assert!(s2.set_price("widget1", 10));
        assert!(validate(&obj, &supplier(), &s1, &s2).is_accept());
        // Customer orders 10 widget2s: valid.
        let mut s3 = s2.clone();
        s3.set_quantity("widget2", 10);
        assert!(validate(&obj, &customer(), &s2, &s3).is_accept());
        // Supplier prices widget2 AND changes the quantity: invalid.
        let mut s4 = s3.clone();
        assert!(s4.set_price("widget2", 7));
        s4.set_quantity("widget2", 99);
        let d = validate(&obj, &supplier(), &s3, &s4);
        assert!(!d.is_accept());
        let reason = d.reason.unwrap();
        assert!(
            reason.contains("only the customer may change quantities"),
            "unexpected reason: {reason}"
        );
    }

    #[test]
    fn customer_cannot_price() {
        let obj = two_party_object();
        let mut s0 = Order::new();
        s0.set_quantity("w", 1);
        let mut s1 = s0.clone();
        s1.set_price("w", 5);
        let d = validate(&obj, &customer(), &s0, &s1);
        assert!(!d.is_accept());
        // Nor add a pre-priced line.
        let s0 = Order::new();
        let mut s1 = s0.clone();
        s1.lines.push(OrderLine {
            item: "w".into(),
            qty: 1,
            unit_price: Some(3),
            approved: false,
        });
        assert!(!validate(&obj, &customer(), &s0, &s1).is_accept());
    }

    #[test]
    fn supplier_cannot_add_or_remove_items() {
        let obj = two_party_object();
        let s0 = Order::new();
        let mut s1 = s0.clone();
        s1.set_quantity("w", 1);
        assert!(!validate(&obj, &supplier(), &s0, &s1).is_accept());
        // Removal by anyone is rejected.
        let mut s2 = Order::new();
        s2.set_quantity("w", 1);
        let s3 = Order::new();
        assert!(!validate(&obj, &customer(), &s2, &s3).is_accept());
    }

    #[test]
    fn stranger_has_no_role() {
        let obj = two_party_object();
        let s0 = Order::new();
        let mut s1 = s0.clone();
        s1.set_quantity("w", 1);
        let d = validate(&obj, &PartyId::new("mallory"), &s0, &s1);
        assert!(!d.is_accept());
        assert!(d.reason.unwrap().contains("no role"));
    }

    #[test]
    fn four_party_approval_and_delivery() {
        let approver = PartyId::new("approver");
        let dispatcher = PartyId::new("dispatcher");
        let obj = OrderObject::new(OrderRoles::four_party(
            customer(),
            supplier(),
            approver.clone(),
            dispatcher.clone(),
        ));
        let mut s0 = Order::new();
        s0.set_quantity("w", 2);
        // Approver approves: valid.
        let mut s1 = s0.clone();
        assert!(s1.approve("w"));
        assert!(validate(&obj, &approver, &s0, &s1).is_accept());
        // Supplier trying to approve: invalid.
        assert!(!validate(&obj, &supplier(), &s0, &s1).is_accept());
        // Dispatcher commits delivery terms: valid, write-once.
        let mut s2 = s1.clone();
        s2.delivery_terms = Some("48h courier".into());
        assert!(validate(&obj, &dispatcher, &s1, &s2).is_accept());
        let mut s3 = s2.clone();
        s3.delivery_terms = Some("never".into());
        assert!(!validate(&obj, &dispatcher, &s2, &s3).is_accept());
        // Customer cannot set delivery terms.
        let mut s4 = s1.clone();
        s4.delivery_terms = Some("tomorrow".into());
        assert!(!validate(&obj, &customer(), &s1, &s4).is_accept());
        // Approval cannot be revoked, even by the approver.
        let mut s5 = s1.clone();
        s5.lines[0].approved = false;
        assert!(!validate(&obj, &approver, &s1, &s5).is_accept());
    }

    #[test]
    fn approval_rejected_in_two_party_orders() {
        let obj = two_party_object();
        let mut s0 = Order::new();
        s0.set_quantity("w", 2);
        let mut s1 = s0.clone();
        s1.approve("w");
        let d = validate(&obj, &customer(), &s0, &s1);
        assert!(!d.is_accept());
    }

    #[test]
    fn order_display_shows_lines() {
        let mut o = Order::new();
        o.set_quantity("widget1", 2);
        o.set_price("widget1", 10);
        let text = o.to_string();
        assert!(text.contains("widget1"));
        assert!(text.contains("10"));
    }

    #[test]
    fn order_bytes_roundtrip() {
        let mut o = Order::new();
        o.set_quantity("a", 1);
        o.set_price("a", 2);
        assert_eq!(Order::from_bytes(&o.to_bytes()).unwrap(), o);
        assert!(Order::from_bytes(b"junk").is_none());
    }

    #[test]
    fn update_bytes_roundtrip_and_disambiguation() {
        let u = OrderUpdate::SetPrice {
            item: "a".into(),
            unit_price: 7,
        };
        assert_eq!(OrderUpdate::from_bytes(&u.to_bytes()).unwrap(), u);
        // A delta never parses as a whole order, and vice versa — the
        // two update encodings stay unambiguous on the wire.
        assert!(Order::from_bytes(&u.to_bytes()).is_none());
        assert!(OrderUpdate::from_bytes(&Order::new().to_bytes()).is_none());
    }

    #[test]
    fn delta_updates_compose_against_the_live_state() {
        // Two concurrent deltas derived from the same base state chain
        // cleanly through apply_update: the second applies on top of the
        // first's result instead of overwriting it.
        let obj = two_party_object();
        let base = Order::new().to_bytes();
        let add_a = OrderUpdate::SetQuantity {
            item: "a".into(),
            qty: 2,
        };
        let add_b = OrderUpdate::SetQuantity {
            item: "b".into(),
            qty: 3,
        };
        let after_a = obj.apply_update(&base, &add_a.to_bytes()).unwrap();
        let after_ab = obj.apply_update(&after_a, &add_b.to_bytes()).unwrap();
        let order = Order::from_bytes(&after_ab).unwrap();
        assert_eq!(order.lines.len(), 2);
        // And the chained transition still passes role validation.
        assert!(obj
            .validate_update(&customer(), &after_a, &add_b.to_bytes())
            .is_accept());
    }

    #[test]
    fn delta_updates_surface_inapplicability() {
        let obj = two_party_object();
        let base = Order::new().to_bytes();
        let price = OrderUpdate::SetPrice {
            item: "ghost".into(),
            unit_price: 1,
        };
        let err = obj.apply_update(&base, &price.to_bytes()).unwrap_err();
        assert!(err.contains("no line for item"), "{err}");
        assert!(obj.apply_update(&base, b"junk").is_err());
        // Whole-state updates still pass through untouched.
        let mut o = Order::new();
        o.set_quantity("w", 1);
        assert_eq!(
            obj.apply_update(&base, &o.to_bytes()).unwrap(),
            o.to_bytes()
        );
    }

    /// What `validate_update` did before `OrderObject` overrode it: the
    /// trait's default, spelled out.
    fn default_validate_update(
        obj: &OrderObject,
        who: &PartyId,
        current: &[u8],
        update: &[u8],
    ) -> Decision {
        match obj.apply_update(current, update) {
            Ok(next) => obj.validate_state(who, current, &next),
            Err(reason) => Decision::reject(reason),
        }
    }

    /// Runs `script` against the evolving state; every step must get the
    /// default path's exact decision (verdict *and* reason). Accepted
    /// steps are applied. Returns the verdicts.
    fn assert_matches_default(obj: &OrderObject, script: &[(PartyId, Vec<u8>)]) -> Vec<bool> {
        let mut state = Order::new().to_bytes();
        script
            .iter()
            .map(|(who, update)| {
                let typed = obj.validate_update(who, &state, update);
                assert_eq!(
                    typed,
                    default_validate_update(obj, who, &state, update),
                    "{who} applying {}",
                    String::from_utf8_lossy(update)
                );
                if typed.is_accept() {
                    state = obj.apply_update(&state, update).unwrap();
                }
                typed.is_accept()
            })
            .collect()
    }

    #[test]
    fn typed_validate_update_matches_default_on_figure7_script() {
        let qty = |item: &str, qty| {
            OrderUpdate::SetQuantity {
                item: item.into(),
                qty,
            }
            .to_bytes()
        };
        let price = |item: &str, unit_price| {
            OrderUpdate::SetPrice {
                item: item.into(),
                unit_price,
            }
            .to_bytes()
        };
        // The supplier's Figure 7 cheat, as the whole-state update the
        // scoped path sends: price widget2 *and* change its quantity.
        let mut cheat = Order::new();
        cheat.set_quantity("widget1", 2);
        cheat.set_price("widget1", 10);
        cheat.set_quantity("widget2", 99);
        cheat.set_price("widget2", 7);
        let script = vec![
            (customer(), qty("widget1", 2)),
            (supplier(), price("widget1", 10)),
            (customer(), qty("widget2", 10)),
            (supplier(), cheat.to_bytes()),
            (supplier(), qty("widget2", 99)),
            (customer(), price("widget2", 7)),
            (supplier(), price("ghost", 1)),
            (PartyId::new("mallory"), qty("widget1", 3)),
            (
                customer(),
                OrderUpdate::Approve {
                    item: "widget1".into(),
                }
                .to_bytes(),
            ),
            (customer(), b"junk".to_vec()),
            (supplier(), price("widget2", 7)),
        ];
        let verdicts = assert_matches_default(&two_party_object(), &script);
        assert_eq!(
            verdicts,
            [true, true, true, false, false, false, false, false, false, false, true]
        );
        // An undecodable current state is rejected with the same reason.
        let obj = two_party_object();
        let d = obj.validate_update(&customer(), b"junk", &qty("w", 1));
        assert_eq!(
            d,
            default_validate_update(&obj, &customer(), b"junk", &qty("w", 1))
        );
        assert_eq!(d.reason.as_deref(), Some("undecodable order state"));
    }

    #[test]
    fn typed_validate_update_matches_default_on_four_party_roles() {
        let approver = PartyId::new("approver");
        let dispatcher = PartyId::new("dispatcher");
        let obj = OrderObject::new(OrderRoles::four_party(
            customer(),
            supplier(),
            approver.clone(),
            dispatcher.clone(),
        ));
        let qty = |qty| {
            OrderUpdate::SetQuantity {
                item: "w".into(),
                qty,
            }
            .to_bytes()
        };
        let approve = OrderUpdate::Approve { item: "w".into() }.to_bytes();
        let terms = |t: &str| OrderUpdate::SetDeliveryTerms { terms: t.into() }.to_bytes();
        let price = OrderUpdate::SetPrice {
            item: "w".into(),
            unit_price: 5,
        }
        .to_bytes();
        let script = vec![
            (customer(), qty(2)),
            (supplier(), approve.clone()),
            (approver.clone(), approve.clone()),
            (approver.clone(), price.clone()),
            (approver.clone(), qty(3)),
            (customer(), terms("tomorrow")),
            (dispatcher.clone(), terms("48h courier")),
            (dispatcher.clone(), terms("never")),
            (dispatcher.clone(), qty(9)),
            (supplier(), price),
            (customer(), qty(4)),
        ];
        let verdicts = assert_matches_default(&obj, &script);
        assert_eq!(
            verdicts,
            [true, false, true, false, false, false, true, false, false, true, true]
        );
    }

    #[test]
    fn delta_updates_still_veto_role_violations() {
        // A supplier delta that *applies* cleanly can still be vetoed by
        // role validation: only the customer adds lines.
        let obj = two_party_object();
        let base = Order::new().to_bytes();
        let add = OrderUpdate::SetQuantity {
            item: "w".into(),
            qty: 1,
        };
        let d = obj.validate_update(&supplier(), &base, &add.to_bytes());
        assert!(!d.is_accept());
    }

    #[test]
    fn a_fold_from_the_installed_state_and_its_install_match_a_decode() {
        let add = |qty| {
            OrderUpdate::SetQuantity {
                item: "w".into(),
                qty,
            }
            .to_bytes()
        };
        let mut memo = two_party_object();
        let fresh = two_party_object();
        let s0 = memo.get_state();
        // Folding from the installed state (typed start) equals a fold that
        // decodes it, step for step.
        let updates = vec![add(1), add(2)];
        let steps = memo.fold_updates(Some(&customer()), &s0, &updates);
        assert_eq!(steps, fresh.fold_updates(Some(&customer()), &s0, &updates));
        let reached = steps[1].next.clone().unwrap();
        // Installing what the fold reached takes the typed successor.
        memo.apply_state(&reached);
        assert_eq!(memo.order(), &Order::from_bytes(&reached).unwrap());
        assert_eq!(memo.get_state(), reached);
        // A fold from bytes other than the installed state decodes them.
        let steps = memo.fold_updates(Some(&customer()), &s0, &[add(7)]);
        assert_eq!(steps, fresh.fold_updates(Some(&customer()), &s0, &[add(7)]));
        // Installing other bytes than the fold reached decodes them.
        memo.apply_state(&s0);
        assert_eq!(memo.get_state(), s0);
        // An undecodable state leaves the order, and the next fold starts
        // from it.
        memo.apply_state(b"not an order");
        assert_eq!(memo.get_state(), s0);
        let steps = memo.fold_updates(Some(&customer()), &s0, &[add(3)]);
        assert_eq!(steps, fresh.fold_updates(Some(&customer()), &s0, &[add(3)]));
    }
}
