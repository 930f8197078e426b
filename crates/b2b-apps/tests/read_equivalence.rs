//! The derive-generated JSON reader decodes orders exactly as the tree
//! path does: over random `Order`s and `OrderUpdate`s whose item names
//! and delivery terms hold quotes, backslashes, control characters and
//! non-BMP text, `from_bytes` equals `from_value` of the parsed tree — on
//! the canonical encoding, and on re-encodings with members shuffled,
//! unknown and repeated keys added and whitespace between the tokens.

use b2b_apps::{Order, OrderLine, OrderUpdate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

const CHARS: &str = "aZ7 \"\\/\n\t\u{0}\u{1f}\u{7f}éπ€🎈𝄞\u{10ffff}";

fn text(rng: &mut StdRng) -> String {
    let chars: Vec<char> = CHARS.chars().collect();
    (0..rng.gen_range(0..10usize))
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

fn random_order(rng: &mut StdRng) -> Order {
    let mut order = Order::new();
    for _ in 0..rng.gen_range(0..6usize) {
        order.lines.push(OrderLine {
            item: text(rng),
            qty: [0, 1, 7, u32::MAX][rng.gen_range(0..4usize)],
            unit_price: rng.gen_bool(0.5).then(|| rng.gen_range(0..1000u32)),
            approved: rng.gen_bool(0.3),
        });
    }
    if rng.gen_bool(0.5) {
        order.delivery_terms = Some(text(rng));
    }
    order
}

fn random_update(rng: &mut StdRng) -> OrderUpdate {
    match rng.gen_range(0..4u32) {
        0 => OrderUpdate::SetQuantity {
            item: text(rng),
            qty: rng.gen_range(0..u32::MAX),
        },
        1 => OrderUpdate::SetPrice {
            item: text(rng),
            unit_price: rng.gen_range(0..u32::MAX),
        },
        2 => OrderUpdate::Approve { item: text(rng) },
        _ => OrderUpdate::SetDeliveryTerms { terms: text(rng) },
    }
}

/// `v` with every object's members shuffled, an unknown member and a
/// repeat of an existing key (after the original, so the original still
/// wins) added to some of them.
fn scramble(rng: &mut StdRng, v: &Value) -> Value {
    match v {
        Value::Seq(items) => Value::Seq(items.iter().map(|i| scramble(rng, i)).collect()),
        Value::Map(entries) => {
            let mut out: Vec<(String, Value)> = entries
                .iter()
                .map(|(k, v)| (k.clone(), scramble(rng, v)))
                .collect();
            // An externally tagged enum is an object with exactly one key.
            let is_enum_tag =
                entries.len() == 1 && entries[0].0.starts_with(|c: char| c.is_ascii_uppercase());
            if !is_enum_tag {
                for i in (1..out.len()).rev() {
                    out.swap(i, rng.gen_range(0..=i));
                }
                if rng.gen_bool(0.5) {
                    out.insert(
                        rng.gen_range(0..=out.len()),
                        (
                            text(rng),
                            Value::Seq(vec![Value::Null, Value::Str(text(rng))]),
                        ),
                    );
                }
                if !out.is_empty() && rng.gen_bool(0.5) {
                    let key = out[rng.gen_range(0..out.len())].0.clone();
                    out.push((key, Value::Str("a repeat never wins".into())));
                }
            }
            Value::Map(out)
        }
        other => other.clone(),
    }
}

/// `v` scrambled, as JSON text with whitespace sprinkled between tokens.
fn respelled(rng: &mut StdRng, v: &Value) -> String {
    let v = scramble(rng, v);
    let mut compact = String::new();
    serde::json::write_value(&v, &mut compact);
    let mut out = String::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in compact.chars() {
        // Before punctuation, so no literal or number is split.
        if !in_string && "{}[]:,".contains(c) && rng.gen_bool(0.3) {
            out.push([' ', '\n', '\t', '\r'][rng.gen_range(0..4usize)]);
        }
        out.push(c);
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
        }
    }
    out
}

fn tree<T: Deserialize>(bytes: &[u8]) -> Option<T> {
    T::from_value(&serde::json::parse(std::str::from_utf8(bytes).ok()?).ok()?).ok()
}

#[test]
fn orders_and_updates_decode_as_the_tree_does() {
    let mut rng = StdRng::seed_from_u64(0x5EAD);
    for _ in 0..1_000 {
        let order = random_order(&mut rng);
        let bytes = order.to_bytes();
        assert_eq!(Order::from_bytes(&bytes).as_ref(), Some(&order));
        assert_eq!(Order::from_bytes(&bytes), tree::<Order>(&bytes));
        assert!(OrderUpdate::from_bytes(&bytes).is_none());

        let update = random_update(&mut rng);
        let bytes = update.to_bytes();
        assert_eq!(OrderUpdate::from_bytes(&bytes).as_ref(), Some(&update));
        assert_eq!(OrderUpdate::from_bytes(&bytes), tree::<OrderUpdate>(&bytes));
        assert_eq!(Order::from_bytes(&bytes), tree::<Order>(&bytes));

        for doc in [
            respelled(&mut rng, &order.to_value()),
            respelled(&mut rng, &update.to_value()),
        ] {
            let bytes = doc.as_bytes();
            assert_eq!(Order::from_bytes(bytes), tree::<Order>(bytes), "{doc}");
            assert_eq!(
                OrderUpdate::from_bytes(bytes),
                tree::<OrderUpdate>(bytes),
                "{doc}"
            );
        }
        // The scrambled encodings still decode to the original values.
        let doc = respelled(&mut rng, &order.to_value());
        assert_eq!(
            Order::from_bytes(doc.as_bytes()).as_ref(),
            Some(&order),
            "{doc}"
        );
        let doc = respelled(&mut rng, &update.to_value());
        assert_eq!(
            OrderUpdate::from_bytes(doc.as_bytes()).as_ref(),
            Some(&update),
            "{doc}"
        );
    }
}
