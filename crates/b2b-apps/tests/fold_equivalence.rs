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
