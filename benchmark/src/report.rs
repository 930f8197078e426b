//! What a run leaves behind: the contract's one-line JSON on stdout, a
//! result file with provenance and every figure, and the Chrome trace.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::config;
use crate::measure::SliceStats;
use crate::trace::{self, SpanBuf};
use serde::Value;

pub type Readings = Vec<(&'static str, f64)>;

/// The reading called `name`, or 0 when the workload has none.
pub fn reading(readings: &Readings, name: &str) -> f64 {
    readings
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0.0)
}

/// `BENCHMARK.json` at the root of the checkout, if it parses.
pub fn benchmark_json() -> Option<Value> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// `run_seconds` of `BENCHMARK.json`: the default for `suite` and `aa`.
pub fn run_seconds() -> f64 {
    benchmark_json()
        .and_then(|doc| field(&doc, "run_seconds").and_then(number))
        .unwrap_or(20.0)
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub plan: String,
    pub temp_fs: String,
    pub wall_s: f64,
    pub phases: Vec<(&'static str, f64)>,
    pub correct: bool,
    pub misses: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Readings,
    pub per_layer: Readings,
    pub slices: Vec<SliceStats>,
    pub spans: Vec<SpanBuf>,
}

fn metric_map(catalog: &[(&str, &str)], readings: &Readings) -> Value {
    Value::Map(
        catalog
            .iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("value".to_string(), Value::F64(reading(readings, name))),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

impl Report {
    /// The contract's result object: every end-to-end metric when untraced,
    /// every per-layer metric when traced.
    fn contract_line(&self) -> Value {
        let metrics = if self.traced {
            metric_map(&PER_LAYER, &self.per_layer)
        } else {
            metric_map(&END_TO_END, &self.end_to_end)
        };
        Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), metrics),
        ])
    }

    /// Human-readable table on stderr, then the result object as the last
    /// line of stdout.
    pub fn print(&self) {
        let (catalog, readings): (&[(&str, &str)], _) = if self.traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        for (name, unit) in catalog {
            eprintln!("{:<40} {:>16.4} {unit}", name, reading(readings, name));
        }
        eprintln!(
            "{}: correct={} attempted={} failed={} wall={:.1}s",
            self.workload, self.correct, self.attempted, self.failed, self.wall_s
        );
        println!(
            "{}",
            serde_json::to_string(&self.contract_line()).expect("result serialises")
        );
    }

    /// `benchmark/out/result-<workload>-trace<0|1>.json`, and for a traced
    /// run `benchmark/out/trace-<workload>.json`.
    pub fn write_files(&self) {
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).expect("create benchmark/out");
        let slice_rows = self
            .slices
            .iter()
            .map(|x| {
                Value::Map(vec![
                    ("ops".to_string(), Value::U64(x.ops as u64)),
                    ("updates_per_s".to_string(), Value::F64(x.updates_per_s)),
                    (
                        "cpu_ms_per_kupdate".to_string(),
                        Value::F64(x.cpu_ms_per_kupdate),
                    ),
                    ("op_p50_us".to_string(), Value::F64(x.op_p50_us)),
                    ("op_p95_us".to_string(), Value::F64(x.op_p95_us)),
                    ("op_p99_us".to_string(), Value::F64(x.op_p99_us)),
                ])
            })
            .collect();
        let self_times = trace::self_times(&self.spans)
            .into_iter()
            .map(|(name, n, total, own)| {
                Value::Map(vec![
                    ("span".to_string(), s(name)),
                    ("count".to_string(), Value::U64(n)),
                    ("total_us".to_string(), Value::F64(total)),
                    ("self_us".to_string(), Value::F64(own)),
                ])
            })
            .collect();
        let trace_file = self.traced.then(|| format!("trace-{}.json", self.workload));
        let provenance = Value::Map(vec![
            ("seed".to_string(), Value::U64(self.seed)),
            ("seconds".to_string(), Value::F64(self.seconds)),
            ("plan".to_string(), s(&self.plan)),
            (
                "nproc".to_string(),
                Value::U64(
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1) as u64,
                ),
            ),
            (
                "load_threads".to_string(),
                Value::U64(config::load_threads() as u64),
            ),
            ("shards".to_string(), Value::U64(config::SHARDS as u64)),
            (
                "http_workers".to_string(),
                Value::U64(config::HTTP_WORKERS as u64),
            ),
            (
                "verify_pool".to_string(),
                Value::U64(config::VERIFY_POOL as u64),
            ),
            (
                "mixed_rate_ops_per_s".to_string(),
                Value::F64(config::MIXED_RATE),
            ),
            ("mixed_slo_us".to_string(), Value::U64(config::MIXED_SLO_US)),
            ("injected_message_delay".to_string(), s("none")),
            ("temp_dir_fs".to_string(), s(&self.temp_fs)),
            ("wall_s".to_string(), Value::F64(self.wall_s)),
            (
                "phase_s".to_string(),
                Value::Map(
                    self.phases
                        .iter()
                        .map(|(name, secs)| (name.to_string(), Value::F64(*secs)))
                        .collect(),
                ),
            ),
            (
                "trace_file".to_string(),
                trace_file.clone().map(s).unwrap_or(Value::Null),
            ),
        ]);
        // Per-layer figures this run did not measure (probes run only when
        // traced) are left out of the file rather than written as 0.
        let measured_layers: Vec<(&str, &str)> = PER_LAYER
            .iter()
            .copied()
            .filter(|(name, _)| self.per_layer.iter().any(|(n, _)| n == name))
            .collect();
        let doc = Value::Map(vec![
            ("workload".to_string(), s(self.workload)),
            ("smoke".to_string(), Value::Bool(self.smoke)),
            ("claim".to_string(), Value::Null),
            ("provenance".to_string(), provenance),
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            (
                "oracle_misses".to_string(),
                Value::Seq(self.misses.iter().map(s).collect()),
            ),
            (
                "end_to_end".to_string(),
                metric_map(&END_TO_END, &self.end_to_end),
            ),
            (
                "per_layer".to_string(),
                metric_map(&measured_layers, &self.per_layer),
            ),
            ("slices".to_string(), Value::Seq(slice_rows)),
            ("span_self_times".to_string(), Value::Seq(self_times)),
        ]);
        let name = format!(
            "result-{}-trace{}.json",
            self.workload,
            u8::from(self.traced)
        );
        std::fs::write(
            dir.join(name),
            serde_json::to_string(&doc).expect("result serialises") + "\n",
        )
        .expect("write result file");
        if let Some(file) = trace_file {
            std::fs::write(dir.join(file), trace::chrome_json(&self.spans)).expect("write trace");
        }
    }
}
