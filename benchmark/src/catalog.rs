//! The metric names and units the benchmark prints. `BENCHMARK.json` lists
//! the same names; a test keeps the two in step.

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0` on
/// every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("setup_rss_mb", "MiB"),
    ("updates_per_s", "1/s"),
    ("cpu_ms_per_kupdate", "ms"),
    ("op_p50_us", "us"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1` on
/// every workload. A metric that has no meaning on a workload (a `server.`
/// count on `fleet-durable`, `read_p50_us` off `order-mixed`) reads 0 there:
/// per-layer metrics carry no bound, so the 0 is never compared.
pub const PER_LAYER: [(&str, &str); 57] = [
    // Workload-scoped end-to-end figures. The contract wants every
    // end-to-end metric on every workload and never 0, so these five live
    // here under their own names.
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("veto_p50_us", "us"),
    ("recover_blackout_p50_ms", "ms"),
    ("reopen_records_per_s", "1/s"),
    // The tails, demoted from end-to-end: on the reference box their
    // spread over ten seeds (0.14-0.18 for p95, up to 0.24 for p99) is too
    // close to the largest bound the contract allows (0.25) to gate on.
    ("op_p95_us", "us"),
    ("op_p99_us", "us"),
    ("contended_write_p50_us", "us"),
    ("server.requests_per_update", "count"),
    ("server.backpressure_429_share", "share"),
    ("server.read_rtt_idle_p50_us", "us"),
    ("server.sync_overhead_us", "us"),
    ("net.httpd_rtt_p50_us", "us"),
    ("net.shard_invoke_rtt_p50_us", "us"),
    ("net.shard_events_per_update", "count"),
    ("net.timer_fires_per_update", "count"),
    ("net.inbox_full_stalls", "count"),
    ("net.retransmits_per_update", "count"),
    ("net.dedup_drops_per_update", "count"),
    ("net.mux_frames_per_update", "count"),
    ("net.mux_bytes_per_update", "B"),
    ("net.mux_write_syscalls_per_update", "count"),
    ("net.mux_read_stalls", "count"),
    ("core.rounds_per_update", "count"),
    ("core.batch_occupancy_mean", "count"),
    ("core.rounds_retried_per_update", "count"),
    ("core.rounds_aborted_per_update", "count"),
    ("core.contended_retries_per_write", "count"),
    ("core.engine_round_p50_us", "us"),
    ("core.join_ms_per_group", "ms"),
    ("crypto.signs_per_update", "count"),
    ("crypto.sig_verifies_per_update", "count"),
    ("crypto.sig_batch_verifies_per_update", "count"),
    ("crypto.sig_cache_hit_share", "share"),
    ("crypto.canonical_cache_hits_per_update", "count"),
    ("crypto.sign_us", "us"),
    ("crypto.verify_us", "us"),
    ("crypto.verify_batch_us_per_sig", "us"),
    ("crypto.sha256_mb_per_s", "MB/s"),
    ("crypto.est_us_per_update", "us"),
    ("evidence.records_per_update", "count"),
    ("evidence.wal_flushes_per_update", "count"),
    ("evidence.wal_bytes_per_update", "B"),
    ("evidence.snapshot_puts_per_update", "count"),
    ("evidence.mem_append_us", "us"),
    ("evidence.file_append_flush_us", "us"),
    ("evidence.file_snapshot_put_us", "us"),
    ("evidence.audit_records_per_s", "1/s"),
    ("evidence.rss_kb_per_kupdate", "KiB"),
    ("apps.order_validate_us", "us"),
    ("apps.order_apply_us", "us"),
    ("bench.sched_lag_p99_us", "us"),
    ("bench.slice_spread", "share"),
    ("bench.trace_overhead_share", "share"),
    ("bench.slo_miss_share", "share"),
    ("bench.unattributed_share", "share"),
    ("bench.samples_per_slice", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        &v.as_map()
            .unwrap()
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no {key}"))
            .1
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        match field(doc, key) {
            Value::Seq(items) => items
                .iter()
                .map(|m| {
                    (
                        text(field(m, "name")).to_string(),
                        text(field(m, "unit")).to_string(),
                    )
                })
                .collect(),
            other => panic!("{key} is not a list: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = match field(&doc, "workloads") {
            Value::Seq(items) => items
                .iter()
                .map(|m| text(field(m, "name")).to_string())
                .collect(),
            other => panic!("{other:?}"),
        };
        let own: Vec<&str> = crate::config::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, own);
    }
}
