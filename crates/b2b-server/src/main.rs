//! `b2b-serve` — stand-alone order-processing daemon.
//!
//! Boots the sharded engine fleet, opens the HTTP listener and serves
//! until the run budget expires (or forever with `--run-secs 0`).
//!
//! ```text
//! b2b-serve [--addr 127.0.0.1:8080] [--orders 256] [--parties 2]
//!           [--shards N] [--http-workers 8] [--run-secs 0]
//! ```

use b2b_core::CoordinatorConfig;
use b2b_crypto::VerifyPool;
use b2b_server::{OrderServer, OrderServerOptions};
use b2b_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Duration;

fn die(msg: &str) -> ! {
    eprintln!("b2b-serve: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut opts = OrderServerOptions {
        addr: "127.0.0.1:8080".to_string(),
        orders: 256,
        telemetry: Telemetry::new(),
        verify_pool: Some(Arc::new(VerifyPool::with_default_parallelism())),
        config: CoordinatorConfig::default(),
        ..OrderServerOptions::default()
    };
    let mut run_secs: u64 = 0;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
                .clone()
        };
        match flag {
            "--addr" => opts.addr = value("--addr"),
            "--orders" => {
                opts.orders = value("--orders")
                    .parse()
                    .unwrap_or_else(|_| die("--orders must be an integer"))
            }
            "--parties" => {
                opts.parties = value("--parties")
                    .parse()
                    .unwrap_or_else(|_| die("--parties must be 2 or 4"))
            }
            "--shards" => {
                opts.shards = Some(
                    value("--shards")
                        .parse()
                        .unwrap_or_else(|_| die("--shards must be an integer")),
                )
            }
            "--http-workers" => {
                opts.http_workers = value("--http-workers")
                    .parse()
                    .unwrap_or_else(|_| die("--http-workers must be an integer"))
            }
            "--run-secs" => {
                run_secs = value("--run-secs")
                    .parse()
                    .unwrap_or_else(|_| die("--run-secs must be an integer"))
            }
            "--help" | "-h" => {
                println!(
                    "usage: b2b-serve [--addr A] [--orders N] [--parties 2|4] \
                     [--shards S] [--http-workers W] [--run-secs T]"
                );
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    eprintln!(
        "b2b-serve: provisioning {} orders x {} parties...",
        opts.orders, opts.parties
    );
    let server = OrderServer::start(opts).unwrap_or_else(|e| die(&format!("bind failed: {e}")));
    println!("b2b-serve: listening on http://{}", server.addr());
    println!(
        "b2b-serve: try  curl -X POST http://{}/orders",
        server.addr()
    );

    if run_secs == 0 {
        // Serve until killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(run_secs));
    let (clean, records) = server.audit();
    eprintln!("b2b-serve: shutting down (evidence audit clean={clean}, {records} records)");
    server.shutdown();
}
