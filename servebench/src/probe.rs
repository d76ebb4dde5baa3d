//! The traced run's reads of single layers: the server's own `Stats`
//! scrape, and direct timing of the public calls each layer makes.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use privehd_core::{ModelPlan, PlanKernel};
use privehd_serve::wire::frame::DEFAULT_MAX_BODY;
use privehd_serve::wire::Frame;
use privehd_serve::{ClientEdge, ModelId, QueryVec, ShardedRegistry};

use crate::predict;
use crate::report::median;

/// The stage decomposition and counters of one `Stats` scrape.
pub struct Scrape {
    /// Stage name → (p50 in µs, sample count).
    pub stages: HashMap<String, (f64, u64)>,
    pub batch_size_mean: f64,
    /// Requests the engine refused plus `Busy` answers from the wire.
    pub rejected: f64,
}

impl Scrape {
    pub fn parse(text: &str) -> Self {
        const STAGE: &str = "privehd_serve_stage_latency_seconds";
        let mut stages: HashMap<String, (f64, u64)> = HashMap::new();
        let mut scalars: HashMap<&str, f64> = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let label = |name: &str| {
                key.split(&format!("{name}=\""))
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .map(str::to_owned)
            };
            if let Some(rest) = key.strip_prefix(STAGE) {
                let Some(stage) = label("stage") else {
                    continue;
                };
                let entry = stages.entry(stage).or_default();
                if rest.starts_with("_count") {
                    entry.1 = value as u64;
                } else if label("quantile").as_deref() == Some("0.5") {
                    entry.0 = value * 1e6;
                }
            } else {
                scalars.insert(key, value);
            }
        }
        let get = |k: &str| scalars.get(k).copied().unwrap_or(0.0);
        Self {
            stages,
            batch_size_mean: get("privehd_serve_batch_size_mean"),
            rejected: get("privehd_serve_requests_total{outcome=\"rejected\"}")
                + get("privehd_wire_busy_rejections_total"),
        }
    }

    /// p50 of `stage` in µs, 0 when the stage saw no requests.
    pub fn p50(&self, stage: &str) -> f64 {
        self.stages.get(stage).map_or(0.0, |s| s.0)
    }

    /// Sum of the p50s of the stages a request passes through in turn:
    /// everything but the end-to-end summary itself and `encode`, which
    /// the server records inside `admission`.
    pub fn stage_p50_sum(&self) -> f64 {
        self.stages
            .iter()
            .filter(|(name, _)| !matches!(name.as_str(), "end_to_end" | "encode"))
            .map(|(_, (p50, _))| p50)
            .sum()
    }
}

/// Median wall time of one call, timing `batch` calls at a time.
fn per_call_ns(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

pub struct Probes {
    pub predict_us: f64,
    pub prepare_us: f64,
    pub prepare_packed_us: f64,
    pub plan_compile_ms: f64,
    pub get_ns: f64,
    pub frame_encode_ns: f64,
    pub frame_decode_ns: f64,
    pub kernel: PlanKernel,
}

pub struct ProbeInputs<'a> {
    pub plan: &'a ModelPlan,
    pub model: &'a privehd_core::HdModel,
    /// Test sample 0 as the worker scores it.
    pub query: QueryVec,
    /// The workload's edge (masked on masked-raw) and an unmasked one
    /// on the same basis, for packed preparation.
    pub edge: &'a ClientEdge,
    pub packed_edge: &'a ClientEdge,
    pub features: &'a [Vec<f64>],
    pub registry: &'a ShardedRegistry,
    pub id: &'a ModelId,
    /// A request frame exactly as the workload sends it.
    pub frame: &'a Frame,
}

pub fn run(inp: &ProbeInputs<'_>) -> Probes {
    let predict_ns = per_call_ns(25, 20, || {
        black_box(predict(inp.plan, black_box(&inp.query)).expect("predict"));
    });
    let x = &inp.features[0];
    let prepare_ns = per_call_ns(15, 4, || {
        black_box(inp.edge.prepare(black_box(x)).expect("prepare"));
    });
    let batch = &inp.features[..inp.features.len().min(32)];
    let prepare_packed_ns = per_call_ns(7, 1, || {
        black_box(
            inp.packed_edge
                .prepare_batch_packed(black_box(batch))
                .expect("prepare packed"),
        );
    }) / batch.len() as f64;
    let compile_ns = per_call_ns(9, 1, || {
        black_box(ModelPlan::compile(black_box(inp.model)));
    });
    let get_ns = per_call_ns(15, 1_000, || {
        black_box(inp.registry.get(black_box(inp.id)));
    });
    let mut buf = Vec::new();
    let encode_ns = per_call_ns(15, 200, || {
        buf.clear();
        inp.frame.encode_into(&mut buf).expect("encode frame");
        black_box(&buf);
    });
    let decode_ns = per_call_ns(15, 200, || {
        black_box(Frame::decode(black_box(&buf), DEFAULT_MAX_BODY).expect("decode frame"));
    });
    Probes {
        predict_us: predict_ns / 1e3,
        prepare_us: prepare_ns / 1e3,
        prepare_packed_us: prepare_packed_ns / 1e3,
        plan_compile_ms: compile_ns / 1e6,
        get_ns,
        frame_encode_ns: encode_ns,
        frame_decode_ns: decode_ns,
        kernel: inp.plan.kernel(),
    }
}
