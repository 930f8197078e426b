//! `OrderObject` replays a batch in typed form; these properties pin it to
//! the byte-level path it replaces.
//!
//! - Over random scripts — 2- and 4-party roles, valid, vetoed and
//!   inapplicable deltas, whole-state `Order` updates, junk bytes and an
//!   undecodable starting state — `fold_updates` equals the default fold
//!   (`fold_each`: one `apply_update` and one `validate_update` per update)
//!   at every step: the same successor bytes, the same verdict and reason.
//!   Each verdict also equals the trait's default `validate_update`
//!   (apply, then `validate_state` on the bytes).
//! - Over 64-delta batches on orders of 8 to 40 lines — lines appended
//!   and delivery terms set mid-batch, whole-state updates spelled
//!   non-canonically (whitespace, reordered keys) with deltas after them,
//!   and folds from the installed state after `apply_state` — every
//!   successor's bytes equal both `Order::to_bytes` of the typed successor
//!   and `fold_each`'s, with `fold_each`'s verdicts and reasons: the fold
//!   splices each successor into the bytes before it, so a splice into
//!   bytes it did not encode would show here.
//! - The derive-generated JSON writer encodes random `Order`s and
//!   `OrderUpdate`s byte for byte as the tree emitter does.

use b2b_apps::{Order, OrderLine, OrderObject, OrderRoles, OrderUpdate};
use b2b_core::{fold_each, B2BObject, Decision};
use b2b_crypto::PartyId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

const ITEMS: [&str; 6] = ["w1", "w2", "gear \"x\"", "π-bolt", "nut\\1", "ghost"];

fn customer() -> PartyId {
    PartyId::new("customer")
}
fn supplier() -> PartyId {
    PartyId::new("supplier")
}
fn approver() -> PartyId {
    PartyId::new("approver")
}
fn dispatcher() -> PartyId {
    PartyId::new("dispatcher")
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn random_order(rng: &mut StdRng) -> Order {
    let mut order = Order::new();
    for _ in 0..rng.gen_range(0..6usize) {
        let item = *pick(rng, &ITEMS);
        if order.line(item).is_some() {
            continue;
        }
        order.lines.push(OrderLine {
            item: item.to_string(),
            qty: *pick(rng, &[0, 1, 7, u32::MAX]),
            unit_price: rng.gen_bool(0.5).then(|| rng.gen_range(0..1000u32)),
            approved: rng.gen_bool(0.3),
        });
    }
    if rng.gen_bool(0.3) {
        order.delivery_terms = Some(pick(rng, &["48h", "courier \"fast\"", "é\n"]).to_string());
    }
    order
}

fn random_delta(rng: &mut StdRng) -> OrderUpdate {
    let item = pick(rng, &ITEMS).to_string();
    match rng.gen_range(0..4u32) {
        0 => OrderUpdate::SetQuantity {
            item,
            qty: rng.gen_range(0..20u32),
        },
        1 => OrderUpdate::SetPrice {
            item,
            unit_price: rng.gen_range(0..100u32),
        },
        2 => OrderUpdate::Approve { item },
        _ => OrderUpdate::SetDeliveryTerms {
            terms: pick(rng, &["48h", "never", "tomorrow"]).to_string(),
        },
    }
}

fn random_update(rng: &mut StdRng) -> Vec<u8> {
    match rng.gen_range(0..10u32) {
        0 => random_order(rng).to_bytes(),
        1 => pick(
            rng,
            &[&b"junk"[..], b"", b"{\"lines\":", b"\"SetPrice\"", b"null"],
        )
        .to_vec(),
        _ => random_delta(rng).to_bytes(),
    }
}

/// The trait's default `validate_update`, spelled out over the bytes.
fn default_verdict(obj: &OrderObject, who: &PartyId, current: &[u8], update: &[u8]) -> Decision {
    match obj.apply_update(current, update) {
        Ok(next) => obj.validate_state(who, current, &next),
        Err(reason) => Decision::reject(reason),
    }
}

fn check_scripts(roles: OrderRoles, parties: &[PartyId], seed: u64) {
    let obj = OrderObject::new(roles);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut accepted, mut vetoed, mut inapplicable) = (0, 0, 0);
    for _ in 0..400 {
        let current = match rng.gen_range(0..8u32) {
            0 => b"not an order".to_vec(),
            1 => Order::new().to_bytes(),
            _ => random_order(&mut rng).to_bytes(),
        };
        let updates: Vec<Vec<u8>> = (0..rng.gen_range(0..12usize))
            .map(|_| random_update(&mut rng))
            .collect();
        let proposer = rng.gen_bool(0.8).then(|| pick(&mut rng, parties).clone());
        let typed = obj.fold_updates(proposer.as_ref(), &current, &updates);
        assert_eq!(
            typed,
            fold_each(&obj, proposer.as_ref(), &current, &updates),
            "current {} updates {:?}",
            String::from_utf8_lossy(&current),
            updates
                .iter()
                .map(|u| String::from_utf8_lossy(u).into_owned())
                .collect::<Vec<_>>()
        );
        // Each verdict is the default's too, against the state before it.
        let mut state = current.clone();
        for (step, update) in typed.iter().zip(&updates) {
            if let Some(who) = &proposer {
                let verdict = step.verdict.clone().expect("a proposer gets verdicts");
                assert_eq!(verdict, default_verdict(&obj, who, &state, update));
                match (&step.next, verdict.is_accept()) {
                    (Err(_), _) => inapplicable += 1,
                    (Ok(_), true) => accepted += 1,
                    (Ok(_), false) => vetoed += 1,
                }
            } else {
                assert!(step.verdict.is_none());
            }
            if let Ok(next) = &step.next {
                state = next.clone();
            }
        }
    }
    // The scripts exercise every kind of step.
    assert!(accepted > 100 && vetoed > 100 && inapplicable > 100);
}

#[test]
fn typed_fold_equals_the_default_fold_for_two_party_roles() {
    check_scripts(
        OrderRoles::two_party(customer(), supplier()),
        &[customer(), supplier(), PartyId::new("mallory")],
        1,
    );
}

#[test]
fn typed_fold_equals_the_default_fold_for_four_party_roles() {
    check_scripts(
        OrderRoles::four_party(customer(), supplier(), approver(), dispatcher()),
        &[customer(), supplier(), approver(), dispatcher()],
        2,
    );
}

/// An item name for line `k` of a large order; every fifth needs escaping.
fn item(k: usize) -> String {
    match k % 5 {
        0 => format!("gear \"{k}\"\\"),
        _ => format!("item-{k}"),
    }
}

fn large_order(rng: &mut StdRng) -> Order {
    let mut order = Order::new();
    for k in 0..rng.gen_range(8..=40usize) {
        order.lines.push(OrderLine {
            item: item(k),
            qty: rng.gen_range(1..50u32),
            unit_price: rng.gen_bool(0.5).then(|| rng.gen_range(0..1000u32)),
            approved: rng.gen_bool(0.3),
        });
    }
    order
}

/// A delta on a large order: mostly on its lines, some appending a line
/// (items past the order's end) or pricing one that is absent, some
/// setting the delivery terms.
fn large_delta(rng: &mut StdRng, lines: usize) -> OrderUpdate {
    let item = item(rng.gen_range(0..lines + 6));
    match rng.gen_range(0..10u32) {
        0..=3 => OrderUpdate::SetQuantity {
            item,
            qty: rng.gen_range(1..50u32),
        },
        4..=6 => OrderUpdate::SetPrice {
            item,
            unit_price: rng.gen_range(0..1000u32),
        },
        7 | 8 => OrderUpdate::Approve { item },
        _ => OrderUpdate::SetDeliveryTerms {
            terms: pick(rng, &["48h", "courier \"fast\"", "é\n"]).to_string(),
        },
    }
}

/// `order` spelled as JSON the encoder never writes: spaces around every
/// token and every object's keys in reverse order. It decodes to `order`.
fn respelled(order: &Order) -> Vec<u8> {
    let json = |value: &dyn Fn(&mut String)| {
        let mut out = String::new();
        value(&mut out);
        out
    };
    let lines: Vec<String> = order
        .lines
        .iter()
        .map(|l| {
            format!(
                "{{ \"approved\" : {} , \"unit_price\" : {} , \"qty\" : {} , \"item\" : {} }}",
                l.approved,
                json(&|out| l.unit_price.write_json(out)),
                l.qty,
                json(&|out| l.item.write_json(out)),
            )
        })
        .collect();
    let text = format!(
        " {{ \"delivery_terms\" : {} ,\n \"lines\" : [ {} ] }} ",
        json(&|out| order.delivery_terms.write_json(out)),
        lines.join(" , ")
    );
    assert_eq!(Order::from_bytes(text.as_bytes()).as_ref(), Some(order));
    assert_ne!(text.as_bytes(), order.to_bytes());
    text.into_bytes()
}

/// `obj`'s fold of `updates` from `current`, held step by step to
/// `fold_each` and to a typed model: each successor's bytes are
/// `Order::to_bytes` of the model after the delta, or a whole-state
/// update's own bytes. Returns the state the fold reached.
fn assert_fold(
    obj: &OrderObject,
    proposer: Option<&PartyId>,
    current: &[u8],
    updates: &[Vec<u8>],
) -> Vec<u8> {
    let typed = obj.fold_updates(proposer, current, updates);
    let reference = fold_each(obj, proposer, current, updates);
    assert_eq!(typed.len(), updates.len());
    let mut model = Order::from_bytes(current);
    let mut state = current.to_vec();
    for (i, ((step, expected), update)) in typed.iter().zip(&reference).zip(updates).enumerate() {
        assert_eq!(
            step,
            expected,
            "step {i}: {}",
            String::from_utf8_lossy(update)
        );
        let Ok(next) = &step.next else {
            continue;
        };
        match OrderUpdate::from_bytes(update) {
            Some(delta) => {
                let order = model.as_mut().expect("a delta applied to an order");
                delta.apply(order).expect("the fold applied it");
                assert_eq!(next, &order.to_bytes(), "step {i}");
            }
            None => {
                assert_eq!(next, update, "step {i}");
                model = Order::from_bytes(update);
            }
        }
        state = next.clone();
    }
    state
}

#[test]
fn large_batches_splice_what_each_delta_changed() {
    let obj = OrderObject::new(OrderRoles::four_party(
        customer(),
        supplier(),
        approver(),
        dispatcher(),
    ));
    let parties = [customer(), supplier(), approver(), dispatcher()];
    let mut rng = StdRng::seed_from_u64(4);
    let (mut appended, mut terms, mut respelled_starts) = (0, 0, 0);
    for round in 0..60 {
        let order = large_order(&mut rng);
        let lines = order.lines.len();
        let mut updates: Vec<Vec<u8>> = (0..64)
            .map(|_| {
                let delta = large_delta(&mut rng, lines);
                match &delta {
                    OrderUpdate::SetQuantity { item, .. } if order.line(item).is_none() => {
                        appended += 1
                    }
                    OrderUpdate::SetDeliveryTerms { .. } => terms += 1,
                    _ => {}
                }
                delta.to_bytes()
            })
            .collect();
        // Every third batch has a whole-state update spelled as the
        // encoder never would mid-batch, deltas following it.
        if round % 3 == 0 {
            let at = rng.gen_range(0..48usize);
            updates[at] = respelled(&large_order(&mut rng));
            respelled_starts += 1;
        }
        // Half the batches start from non-canonical bytes.
        let current = if round % 2 == 0 {
            order.to_bytes()
        } else {
            respelled(&order)
        };
        let proposer = (round % 5 != 0).then(|| pick(&mut rng, &parties).clone());
        assert_fold(&obj, proposer.as_ref(), &current, &updates);
    }
    assert!(appended > 100 && terms > 100 && respelled_starts == 20);
}

#[test]
fn folds_from_the_installed_state_splice_into_its_bytes() {
    let mut obj = OrderObject::new(OrderRoles::two_party(customer(), supplier()));
    let fresh = OrderObject::new(OrderRoles::two_party(customer(), supplier()));
    let mut rng = StdRng::seed_from_u64(5);
    let mut state = obj.get_state();
    for round in 0..40 {
        let lines = obj.order().lines.len();
        let mut updates: Vec<Vec<u8>> = (0..64)
            .map(|_| large_delta(&mut rng, lines.max(8)).to_bytes())
            .collect();
        if round % 4 == 3 {
            // The install after this fold takes non-canonical bytes, so
            // the next fold cannot splice into them.
            updates[63] = respelled(&large_order(&mut rng));
        }
        // The customer's fold: the installed object (typed start, spliced
        // successors) equals a fresh object (decoded start) and the
        // default fold, step for step.
        let reached = assert_fold(&obj, Some(&customer()), &state, &updates);
        assert_eq!(
            obj.fold_updates(Some(&customer()), &state, &updates),
            fresh.fold_updates(Some(&customer()), &state, &updates)
        );
        // Fold again without a proposer (the memo is replaced), then
        // install what the fold reached.
        assert_fold(&obj, None, &state, &updates);
        obj.apply_state(&reached);
        assert_eq!(obj.order(), &Order::from_bytes(&reached).unwrap());
        state = reached;
        if round % 4 == 1 {
            // An install the last fold did not reach, in a spelling the
            // encoder never writes: the next fold cannot splice into it.
            state = respelled(&large_order(&mut rng));
            obj.apply_state(&state);
        }
    }
    assert!(obj.order().lines.len() >= 8);
}

/// What the tree emitter writes for `value`.
fn tree_json<T: Serialize>(value: &T) -> Vec<u8> {
    let mut tree = String::new();
    serde::json::write_value(&value.to_value(), &mut tree);
    tree.into_bytes()
}

#[test]
fn orders_and_deltas_stream_as_their_value_trees() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..2_000 {
        let order = random_order(&mut rng);
        assert_eq!(order.to_bytes(), tree_json(&order));
        let delta = random_delta(&mut rng);
        assert_eq!(delta.to_bytes(), tree_json(&delta));
        assert_eq!(OrderUpdate::from_bytes(&delta.to_bytes()), Some(delta));
    }
}
