//! The shared-whiteboard member of §5.1's turn-taking application class,
//! and the composite-object variant §4 mentions ("the use of a composite
//! object to coordinate the states of multiple objects").

mod common;

use b2bobjects::apps::whiteboard::{Stroke, Whiteboard, WhiteboardObject};
use b2bobjects::apps::{CompositeObject, SharedCell};
use b2bobjects::core::Outcome;
use b2bobjects::crypto::PartyId;
use common::World;

fn stroke(author: &str, x: i32) -> Stroke {
    Stroke {
        author: PartyId::new(author),
        points: vec![(x, 0), (x, 10)],
        colour: "black".into(),
    }
}

#[test]
fn round_robin_drawing_with_vetoed_out_of_turn_stroke() {
    let names = ["a", "b", "c"];
    let mut world = World::new(&names, 150);
    let order: Vec<PartyId> = names.iter().map(|n| PartyId::new(*n)).collect();
    let factory = move || -> Box<dyn b2bobjects::core::B2BObject> {
        Box::new(WhiteboardObject::new(order.clone()))
    };
    world.share("board", "a", &["b", "c"], factory);

    // a → b → c draw in turn.
    for (i, who) in names.iter().enumerate() {
        let mut board = Whiteboard::from_bytes(&world.state(who, "board")).unwrap();
        board.draw(stroke(who, i as i32));
        let (_, outcome) = world.propose(who, "board", board.to_bytes());
        assert!(outcome.is_installed(), "{who}'s stroke in turn installs");
    }
    // It is a's turn again; b drawing out of turn is vetoed.
    let mut board = Whiteboard::from_bytes(&world.state("b", "board")).unwrap();
    board.draw(stroke("b", 99));
    let (_, outcome) = world.propose("b", "board", board.to_bytes());
    match outcome {
        Outcome::Invalidated { vetoers } => assert!(!vetoers.is_empty()),
        other => panic!("expected veto, got {other:?}"),
    }
    // All three replicas agree: exactly three strokes.
    for who in names {
        let board = Whiteboard::from_bytes(&world.state(who, "board")).unwrap();
        assert_eq!(board.strokes.len(), 3);
    }
}

#[test]
fn composite_object_coordinates_two_components_atomically() {
    // One coordination event covers a counter and a label; if either
    // component's rule rejects, neither changes.
    let counter_and_label = || -> Box<dyn b2bobjects::core::B2BObject> {
        Box::new(
            CompositeObject::new()
                .with_component(
                    "counter",
                    SharedCell::new(0u64).with_validator(|_w, old, new| {
                        if new >= old {
                            b2bobjects::core::Decision::accept()
                        } else {
                            b2bobjects::core::Decision::reject("counter shrank")
                        }
                    }),
                )
                .with_component("label", SharedCell::new(String::new())),
        )
    };
    let mut world = World::new(&["x", "y"], 151);
    world.share("pair", "x", &["y"], counter_and_label);

    // Build a valid composite transition: bump counter AND set label.
    let cur = world.state("x", "pair");
    let mut map: std::collections::BTreeMap<String, Vec<u8>> =
        serde_json::from_slice(&cur).unwrap();
    map.insert("counter".into(), serde_json::to_vec(&5u64).unwrap());
    map.insert(
        "label".into(),
        serde_json::to_vec(&"five".to_string()).unwrap(),
    );
    let (_, outcome) = world.propose("x", "pair", serde_json::to_vec(&map).unwrap());
    assert!(outcome.is_installed());

    // An invalid transition in ONE component blocks the whole event.
    let cur = world.state("y", "pair");
    let mut map: std::collections::BTreeMap<String, Vec<u8>> =
        serde_json::from_slice(&cur).unwrap();
    map.insert("counter".into(), serde_json::to_vec(&1u64).unwrap()); // shrink!
    map.insert(
        "label".into(),
        serde_json::to_vec(&"one".to_string()).unwrap(),
    );
    let (_, outcome) = world.propose("y", "pair", serde_json::to_vec(&map).unwrap());
    assert!(!outcome.is_installed());

    // Both components kept their previous agreed values, at both parties.
    for who in ["x", "y"] {
        let map: std::collections::BTreeMap<String, Vec<u8>> =
            serde_json::from_slice(&world.state(who, "pair")).unwrap();
        let counter: u64 = serde_json::from_slice(&map["counter"]).unwrap();
        let label: String = serde_json::from_slice(&map["label"]).unwrap();
        assert_eq!(counter, 5);
        assert_eq!(label, "five");
    }
}
