//! The set-up a server owner pays: train on the generated data, publish
//! every tenant, start the engine and the wire server, and connect.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use privehd_core::{
    Encoder, EncoderConfig, HdModel, Hypervector, ObfuscateConfig, QuantScheme, RetrainConfig,
    ScalarEncoder,
};
use privehd_serve::wire::{WireConfig, WireServer};
use privehd_serve::{ClientEdge, ModelId, ServeConfig, ServeEngine, ShardedRegistry};

use crate::data::{Sample, CLASSES, DIM, FEATURES};

/// Retraining epochs (Eq. 5), fixed so set-up does the same work on
/// every seed.
const RETRAIN_EPOCHS: usize = 2;

/// Admission caps raised above the defaults so that a healthy run sheds
/// nothing: with the default 32 requests in flight per connection, a
/// steal stall of a few ms at thousands of requests per second answers
/// `Busy`. Every other field keeps its default.
pub const MAX_IN_FLIGHT: usize = 4_096;
pub const QUEUE_DEPTH: usize = 8_192;
pub const TENANT_QUOTA: usize = 4_096;

/// Fig. 9's private point: bipolar queries with half the dimensions
/// masked.
pub fn masked_obfuscation() -> ObfuscateConfig {
    ObfuscateConfig::new(QuantScheme::Bipolar).with_masked_dims(DIM / 2)
}

/// The edge both sides share: one encoder basis (`basis_seed`) plus
/// the query obfuscation.
pub fn edge(basis_seed: u64, obfuscation: ObfuscateConfig) -> ClientEdge {
    ClientEdge::new(
        EncoderConfig::new(FEATURES, DIM).with_seed(basis_seed),
        obfuscation,
    )
    .expect("valid edge configuration")
}

pub struct Tenant {
    pub id: ModelId,
    /// Sign-quantized classes (packed popcount kernel) rather than
    /// full precision (dense kernel).
    pub packed: bool,
    /// Share of the traffic.
    pub weight: f64,
}

/// What the server owner runs for a workload.
pub struct Plan<'a> {
    pub tenants: &'a [Tenant],
    pub train: &'a [Sample],
    pub basis_seed: u64,
    /// Register a server-side edge for raw-feature frames.
    pub raw_edge: Option<ObfuscateConfig>,
}

/// Wall time of each set-up step, in seconds.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub encode: f64,
    pub train: f64,
    pub publish: f64,
    pub start: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.encode + self.train + self.publish + self.start
    }
}

/// A running serve stack with one connected client socket.
pub struct Stack {
    pub registry: Arc<ShardedRegistry>,
    pub engine: ServeEngine,
    pub server: WireServer,
    pub stream: TcpStream,
    /// The model each tenant serves.
    pub models: Vec<HdModel>,
}

impl Stack {
    pub fn shutdown(self) {
        drop(self.stream);
        self.server.shutdown();
        self.engine.shutdown();
    }
}

pub fn setup(plan: &Plan<'_>) -> (Stack, SetupTimes) {
    let t0 = Instant::now();
    let encoder = ScalarEncoder::new(EncoderConfig::new(FEATURES, DIM).with_seed(plan.basis_seed))
        .expect("valid encoder configuration");
    let inputs: Vec<Vec<f64>> = plan.train.iter().map(|(x, _)| x.clone()).collect();
    let encoded = encoder.encode_batch(&inputs).expect("encode training set");
    let t1 = Instant::now();
    let pairs: Vec<(Hypervector, usize)> = encoded
        .into_iter()
        .zip(plan.train.iter().map(|(_, y)| *y))
        .collect();
    let mut dense = HdModel::train(CLASSES, DIM, &pairs).expect("train");
    let fixed = RetrainConfig {
        epochs: RETRAIN_EPOCHS,
        target_accuracy: f64::INFINITY,
        stop_when_converged: false,
    };
    dense.retrain(&pairs, &fixed).expect("retrain");
    let packed = plan.tenants.iter().any(|t| t.packed).then(|| {
        let mut m = dense.clone();
        m.quantize_classes(QuantScheme::Bipolar);
        m
    });
    let t2 = Instant::now();
    let registry = Arc::new(ShardedRegistry::new());
    let mut models = Vec::with_capacity(plan.tenants.len());
    for t in plan.tenants {
        let model = if t.packed {
            packed.as_ref()
        } else {
            Some(&dense)
        };
        let model = model
            .expect("a quantized model exists for packed tenants")
            .clone();
        registry
            .publish(&t.id, model.clone(), "trained")
            .expect("publish trained model");
        models.push(model);
    }
    let t3 = Instant::now();
    let serve = ServeConfig::builder()
        .queue_depth(QUEUE_DEPTH)
        .tenant_quota(TENANT_QUOTA)
        .build()
        .expect("valid serve configuration");
    let engine = ServeEngine::start(Arc::clone(&registry), serve).expect("engine starts");
    let mut wire = WireConfig::builder().max_in_flight(MAX_IN_FLIGHT);
    if let Some(obfuscation) = plan.raw_edge {
        for t in plan.tenants {
            wire = wire.edge(t.id.clone(), edge(plan.basis_seed, obfuscation));
        }
    }
    let wire = wire.build().expect("valid wire configuration");
    let server = WireServer::start("127.0.0.1:0", engine.handle(), wire).expect("server starts");
    let stream = TcpStream::connect(server.local_addr()).expect("connect to the server");
    let t4 = Instant::now();
    let times = SetupTimes {
        encode: (t1 - t0).as_secs_f64(),
        train: (t2 - t1).as_secs_f64(),
        publish: (t3 - t2).as_secs_f64(),
        start: (t4 - t3).as_secs_f64(),
    };
    let stack = Stack {
        registry,
        engine,
        server,
        stream,
        models,
    };
    (stack, times)
}
