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
use b2b_crypto::PartyId;
use serde::{Deserialize, Serialize};
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
        match self {
            OrderUpdate::SetQuantity { item, qty } => {
                order.set_quantity(item, *qty);
                Ok(())
            }
            OrderUpdate::SetPrice { item, unit_price } => {
                if !order.set_price(item, *unit_price) {
                    return Err(format!("no line for item {item}"));
                }
                Ok(())
            }
            OrderUpdate::Approve { item } => {
                if !order.approve(item) {
                    return Err(format!("no line for item {item}"));
                }
                Ok(())
            }
            OrderUpdate::SetDeliveryTerms { terms } => {
                order.delivery_terms = Some(terms.clone());
                Ok(())
            }
        }
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
pub struct OrderObject {
    order: Order,
    roles: OrderRoles,
}

impl OrderObject {
    /// Creates the shared order for the given role assignment.
    pub fn new(roles: OrderRoles) -> OrderObject {
        OrderObject {
            order: Order::new(),
            roles,
        }
    }

    /// The current order.
    pub fn order(&self) -> &Order {
        &self.order
    }

    /// Checks one transition under the proposer's role. Returns the first
    /// violation, if any.
    fn check(&self, proposer: &PartyId, cur: &Order, next: &Order) -> Option<String> {
        let is_customer = proposer == &self.roles.customer;
        let is_supplier = proposer == &self.roles.supplier;
        let is_approver = self.roles.approver.as_ref() == Some(proposer);
        let is_dispatcher = self.roles.dispatcher.as_ref() == Some(proposer);
        if !(is_customer || is_supplier || is_approver || is_dispatcher) {
            return Some(format!("{proposer} has no role on this order"));
        }

        // Delivery terms: dispatcher only, write-once.
        if next.delivery_terms != cur.delivery_terms {
            if !is_dispatcher {
                return Some("only the dispatcher may set delivery terms".into());
            }
            if cur.delivery_terms.is_some() {
                return Some("delivery terms are already committed".into());
            }
        }
        if is_dispatcher && next.lines != cur.lines {
            return Some("the dispatcher may not amend order lines".into());
        }

        // Lines may only be appended, never removed or reordered.
        if next.lines.len() < cur.lines.len() {
            return Some("order lines may not be removed".into());
        }
        for (i, new_line) in next.lines.iter().enumerate() {
            let old_line = cur.lines.get(i);
            match old_line {
                None => {
                    // A new line: customers only, unpriced and unapproved.
                    if !is_customer {
                        return Some(format!(
                            "only the customer may add items ({} added {})",
                            proposer, new_line.item
                        ));
                    }
                    if new_line.unit_price.is_some() {
                        return Some("the customer may not price items".into());
                    }
                    if new_line.approved {
                        return Some("the customer may not approve items".into());
                    }
                }
                Some(old) => {
                    if new_line.item != old.item {
                        return Some("items may not be renamed".into());
                    }
                    if new_line.qty != old.qty && !is_customer {
                        return Some(format!(
                            "only the customer may change quantities ({} touched {})",
                            proposer, new_line.item
                        ));
                    }
                    if new_line.unit_price != old.unit_price && !is_supplier {
                        return Some(format!(
                            "only the supplier may price items ({} priced {})",
                            proposer, new_line.item
                        ));
                    }
                    if new_line.approved != old.approved {
                        if self.roles.approver.is_none() {
                            return Some("no approver role on this order".into());
                        }
                        if !is_approver {
                            return Some("only the approver may approve items".into());
                        }
                        if old.approved {
                            return Some("approval may not be revoked".into());
                        }
                    }
                    // Role exclusivity: each role touches only its fields.
                    if is_customer && new_line.unit_price != old.unit_price {
                        return Some("the customer may not price items".into());
                    }
                    if is_supplier && (new_line.qty != old.qty || new_line.approved != old.approved)
                    {
                        return Some("the supplier may not amend the order".into());
                    }
                    if is_approver
                        && (new_line.qty != old.qty || new_line.unit_price != old.unit_price)
                    {
                        return Some("the approver may only approve".into());
                    }
                }
            }
        }
        None
    }

    /// `update` replayed over `cur` (`None`: the state did not decode) —
    /// what [`B2BObject::apply_update`] computes, in typed form — and, for
    /// a `proposer`, the verdict [`B2BObject::validate_update`] gives.
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
        let decide = |cur: &Order, next: &Order| {
            proposer.map(|p| match self.check(p, cur, next) {
                None => Decision::accept(),
                Some(reason) => Decision::reject(reason),
            })
        };
        if let Some(delta) = OrderUpdate::from_bytes(update) {
            let Some(cur) = cur else {
                return fail("undecodable order state".into());
            };
            let mut next = cur.clone();
            if let Err(reason) = delta.apply(&mut next) {
                return fail(reason);
            }
            let verdict = decide(cur, &next);
            return (Ok(Next::Applied(next)), verdict);
        }
        let Some(next) = Order::from_bytes(update) else {
            return fail("undecodable order update".into());
        };
        let verdict = match cur {
            Some(cur) => decide(cur, &next),
            None => proposer.map(|_| Decision::reject("undecodable order")),
        };
        (Ok(Next::Whole(next)), verdict)
    }
}

/// A successor order, replayed in typed form.
enum Next {
    /// A delta applied: the successor's bytes are its encoding.
    Applied(Order),
    /// A whole-state update: the successor's bytes are the update's own.
    Whole(Order),
}

impl B2BObject for OrderObject {
    fn get_state(&self) -> Vec<u8> {
        self.order.to_bytes()
    }

    fn apply_state(&mut self, state: &[u8]) {
        if let Some(o) = Order::from_bytes(state) {
            self.order = o;
        }
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
    /// decoded once, each update applies to (and is checked against) the
    /// order the steps before it reached, and each successor is encoded
    /// once — its hash is what the batch link signs.
    fn fold_updates(
        &self,
        proposer: Option<&PartyId>,
        current: &[u8],
        updates: &[Vec<u8>],
    ) -> Vec<FoldStep> {
        let mut cur = Order::from_bytes(current);
        updates
            .iter()
            .map(|update| {
                let (next, verdict) = self.replay(proposer, cur.as_ref(), update);
                let next = next.map(|next| {
                    let (order, bytes) = match next {
                        Next::Applied(order) => {
                            let bytes = order.to_bytes();
                            (order, bytes)
                        }
                        Next::Whole(order) => (order, update.clone()),
                    };
                    cur = Some(order);
                    bytes
                });
                FoldStep { next, verdict }
            })
            .collect()
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
}
