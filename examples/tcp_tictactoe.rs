//! Figure 5 replay over `b2b-net::shard_tcp` — the same Tic-Tac-Toe script as
//! `examples/tictactoe.rs`, but with each organisation's coordinator
//! reachable over a real OS socket, so the two servers can live in two
//! different processes (or hosts).
//!
//! Single process, loopback sockets (default):
//!
//! ```text
//! cargo run --example tcp_tictactoe
//! ```
//!
//! Two OS processes — run each line in its own terminal (order does not
//! matter; the transport reconnects until the peer is up):
//!
//! ```text
//! cargo run --example tcp_tictactoe -- cross  127.0.0.1:7401 127.0.0.1:7402
//! cargo run --example tcp_tictactoe -- nought 127.0.0.1:7402 127.0.0.1:7401
//! ```
//!
//! Arguments are `<role> <my-listen-addr> <peer-addr>`. Both processes
//! derive the same deterministic demo keys, so no key exchange is needed.
//! The party flows below are the *same functions* in both modes — where a
//! coordinator runs is a deployment decision, not a protocol one.

use b2bobjects::apps::tictactoe::{Board, GameObject, Mark, Players};
use b2bobjects::core::{Coordinator, ObjectId, Outcome};
use b2bobjects::crypto::{KeyPair, KeyRing, PartyId, Signer};
use b2bobjects::evidence::{EvidenceStore, MemStore};
use b2bobjects::net::poll::wait_for;
use b2bobjects::net::{GroupHandle, GroupId, ShardedTcpConfig, ShardedTcpEndpoint, ShardedTcpNet};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// The one coordination group the game runs in.
const GAME: GroupId = GroupId(0);
/// Deadline for in-game steps (sub-millisecond on loopback in practice).
const STEP: Duration = Duration::from_secs(30);
/// Deadline for the initial join — generous because in two-process mode a
/// human may take a while to start the second terminal.
const JOIN: Duration = Duration::from_secs(600);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => run_loopback(),
        [role, listen, peer] => run_party(role, listen, peer),
        _ => {
            eprintln!("usage: tcp_tictactoe [<cross|nought> <listen-addr> <peer-addr>]");
            std::process::exit(2);
        }
    }
}

fn players() -> Players {
    Players {
        cross: PartyId::new("cross"),
        nought: PartyId::new("nought"),
    }
}

fn game_factory() -> Box<dyn b2bobjects::core::B2BObject> {
    Box::new(GameObject::new(players()))
}

/// Builds one party's coordinator with the shared demo key material.
fn build_node(role: &str) -> (Coordinator, Arc<MemStore>) {
    // Both processes generate *both* keys from fixed seeds, so each can
    // verify the other without an exchange step. A deployment would load
    // certified keys instead (paper §4.1).
    let kp_c = KeyPair::generate_from_seed(1);
    let kp_n = KeyPair::generate_from_seed(2);
    let mut ring = KeyRing::new();
    ring.register(PartyId::new("cross"), kp_c.public_key());
    ring.register(PartyId::new("nought"), kp_n.public_key());
    let (kp, seed) = match role {
        "cross" => (kp_c, 1),
        "nought" => (kp_n, 2),
        other => panic!("unknown role {other:?}: expected cross or nought"),
    };
    let store = Arc::new(MemStore::new());
    let node = Coordinator::builder(PartyId::new(role), kp)
        .ring(ring)
        .store(store.clone())
        .seed(seed)
        .build();
    (node, store)
}

/// Proposes a mutated board and waits for the group's verdict.
fn play(handle: &GroupHandle<Coordinator>, mutate: impl Fn(&mut Board)) -> Outcome {
    let oid = ObjectId::new("game");
    handle.wait_until(STEP, |c| !c.is_busy(&oid));
    let state = handle
        .read(|c| c.agreed_state(&ObjectId::new("game")))
        .expect("board present");
    let mut board = Board::from_bytes(&state).unwrap();
    mutate(&mut board);
    let bytes = board.to_bytes();
    let run = handle.invoke(move |c, ctx| {
        c.propose_overwrite(&ObjectId::new("game"), bytes, ctx)
            .unwrap()
    });
    assert!(
        handle.wait_until(STEP, |c| c.outcome_of(&run).is_some()),
        "no outcome within {STEP:?}"
    );
    handle.read(|c| c.outcome_of(&run).cloned()).unwrap()
}

/// Blocks until the agreed board shows `mark` at (`row`, `col`) — the
/// peer's move has been installed here.
fn wait_mark(handle: &GroupHandle<Coordinator>, deadline: Duration, mark: Mark, row: u8, col: u8) {
    assert!(
        handle.wait_until(deadline, move |c| {
            c.agreed_state(&ObjectId::new("game"))
                .and_then(|s| Board::from_bytes(&s))
                .is_some_and(|b| b.at(row as usize, col as usize) == Some(mark))
        }),
        "peer's move never arrived within {deadline:?}"
    );
}

fn show(handle: &GroupHandle<Coordinator>) -> Board {
    Board::from_bytes(
        &handle
            .read(|c| c.agreed_state(&ObjectId::new("game")))
            .unwrap(),
    )
    .unwrap()
}

/// Cross's whole game: create the object, wait for Nought, play the
/// Figure 5 sequence ending with the cheating move.
fn drive_cross(handle: GroupHandle<Coordinator>, store: Arc<MemStore>) {
    let oid = ObjectId::new("game");
    handle.invoke(|c, _| {
        c.register_object(ObjectId::new("game"), Box::new(game_factory))
            .unwrap();
    });
    println!("[cross] game registered; waiting for nought to connect...");
    assert!(
        handle.wait_until(JOIN, |c| c.members(&oid).is_some_and(|m| m.len() == 2)),
        "nought never joined"
    );
    println!("[cross] nought joined the game");

    assert!(play(&handle, |b| b.play(Mark::X, 1, 1).unwrap()).is_installed());
    println!("[cross] played X at centre; waiting for nought's move");
    wait_mark(&handle, STEP, Mark::O, 0, 0);
    assert!(play(&handle, |b| b.play(Mark::X, 1, 2).unwrap()).is_installed());
    println!("[cross] played X middle-right; now attempting the Figure 5 cheat");

    match play(&handle, |b| b.cheat_set(Mark::O, 2, 1)) {
        Outcome::Invalidated { vetoers } => {
            println!(
                "[cross] cheat VETOED by {} — \"{}\"",
                vetoers[0].0, vetoers[0].1
            );
        }
        other => panic!("cheat should have been vetoed, got {other:?}"),
    }
    println!(
        "[cross] final board:\n{}\n[cross] evidence log holds {} signed records",
        show(&handle),
        store.records().len()
    );
    // Linger so the reliable layer can finish acknowledging the last
    // protocol frames to the peer before this process exits.
    handle.wait_until(STEP, |c| !c.is_busy(&oid));
    std::thread::sleep(Duration::from_secs(1));
}

/// Nought's whole game: join, answer Cross's moves, veto the cheat.
fn drive_nought(handle: GroupHandle<Coordinator>, store: Arc<MemStore>) {
    let oid = ObjectId::new("game");
    handle.invoke(|c, ctx| {
        c.request_connect(
            ObjectId::new("game"),
            Box::new(game_factory),
            PartyId::new("cross"),
            ctx,
        )
        .unwrap();
    });
    println!("[nought] connection requested (sponsor: cross); waiting for admission...");
    assert!(
        handle.wait_until(JOIN, |c| c.is_member(&oid)),
        "never admitted to the game"
    );
    println!("[nought] admitted; waiting for cross's opening move");

    wait_mark(&handle, STEP, Mark::X, 1, 1);
    assert!(play(&handle, |b| b.play(Mark::O, 0, 0).unwrap()).is_installed());
    println!("[nought] played O top-left; waiting for cross");
    wait_mark(&handle, STEP, Mark::X, 1, 2);

    // Cross's cheating proposal is next. This replica's validator vetoes
    // it, so the agreed board never changes — the attempt is visible only
    // in the evidence log, which is exactly the paper's point.
    let before = store.records().len();
    let board_before = show(&handle);
    if wait_for(STEP, || store.records().len() > before) {
        handle.wait_until(STEP, |c| !c.is_busy(&oid));
        println!("[nought] vetoed cross's invalid move; board unchanged:");
    } else {
        println!("[nought] no further proposals arrived; board:");
    }
    assert_eq!(show(&handle).to_bytes(), board_before.to_bytes());
    println!(
        "{}\n[nought] evidence log holds {} signed records of the game,\n\
         [nought] including cross's signed cheat proposal — forfeit provable offline",
        show(&handle),
        store.records().len()
    );
    std::thread::sleep(Duration::from_secs(1));
}

/// Default mode: both parties in this process, real loopback sockets,
/// each driven from its own thread by the same flows used cross-process.
fn run_loopback() {
    let (cross_node, cross_store) = build_node("cross");
    let (nought_node, nought_store) = build_node("nought");
    let net = ShardedTcpNet::spawn_loopback(vec![(GAME, vec![cross_node, nought_node])])
        .expect("bind loopback");
    println!(
        "loopback mode: cross on {}, nought on {}",
        net.endpoint(&PartyId::new("cross")).local_addr(),
        net.endpoint(&PartyId::new("nought")).local_addr()
    );
    let cross_handle = net.handle(GAME, &PartyId::new("cross"));
    let t = std::thread::spawn(move || drive_cross(cross_handle, cross_store));
    drive_nought(net.handle(GAME, &PartyId::new("nought")), nought_store);
    t.join().unwrap();
    net.shutdown();
}

/// Two-process mode: this process hosts one party and dials the other.
fn run_party(role: &str, listen: &str, peer: &str) {
    let peer_addr: SocketAddr = peer.parse().expect("peer address like 127.0.0.1:7402");
    let peer_id = PartyId::new(if role == "cross" { "nought" } else { "cross" });
    let (node, store) = build_node(role);
    let listener = TcpListener::bind(listen).expect("bind listen address");
    let mut endpoint = ShardedTcpEndpoint::spawn_with_listener(
        vec![(GAME, node)],
        listener,
        vec![(peer_id, peer_addr)],
        ShardedTcpConfig::default(),
    )
    .expect("start endpoint");
    endpoint.start();
    println!(
        "[{role}] listening on {}, peer at {peer_addr}",
        endpoint.local_addr()
    );
    let handle = endpoint.handle(GAME, &PartyId::new(role));
    match role {
        "cross" => drive_cross(handle, store),
        _ => drive_nought(handle, store),
    }
    let stats = endpoint.stats();
    println!(
        "[{role}] transport: {} frames / {} bytes sent, {} connects ({} reconnects)",
        stats.sent, stats.bytes_sent, stats.connects, stats.reconnects
    );
    endpoint.shutdown();
}
