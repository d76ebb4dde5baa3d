//! Serving throughput: single-query submission vs micro-batched
//! serving across batch sizes, reporting queries/sec.
//!
//! `serve_max_batch/1` is the single-query baseline — with `max_batch
//! = 1` the batcher flushes every request alone, so each query pays the
//! full dispatch cost. Larger `max_batch` values amortize dispatch and
//! let the worker pool run whole batches; on multi-core hardware the
//! micro-batched configurations should clear ≥ 2× the baseline
//! queries/sec. A closed-loop client keeps a fixed window of requests
//! in flight so every configuration is measured under saturation.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use privehd_core::prelude::*;
use privehd_core::Hypervector;
use privehd_serve::{ModelId, ServeConfig, ServeEngine, ShardedRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 2_000;
const CLASSES: usize = 26;
const QUERIES_PER_ITER: usize = 512;
const IN_FLIGHT: usize = 128;

fn synthetic_model(seed: u64) -> HdModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = (0..CLASSES)
        .map(|_| Hypervector::from_vec((0..DIM).map(|_| rng.gen_range(-50.0..50.0)).collect()))
        .collect();
    let mut m = HdModel::from_classes(classes).expect("non-empty classes");
    m.refresh_norms();
    m
}

fn queries(seed: u64, n: usize) -> Vec<Hypervector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Hypervector::from_vec((0..DIM).map(|_| rng.gen_range(-20.0..20.0)).collect()))
        .collect()
}

/// Pumps `queries` through `engine` with a bounded in-flight window and
/// waits for every response.
fn pump(engine: &ServeEngine, queries: &[Hypervector]) {
    pump_tenants(engine, queries, std::slice::from_ref(&ModelId::default()));
}

fn bench_serving_batch_sizes(c: &mut Criterion) {
    let model = synthetic_model(1);
    let qs = queries(2, QUERIES_PER_ITER);
    let mut group = c.benchmark_group("serve_max_batch");
    group.throughput(Throughput::Elements(QUERIES_PER_ITER as u64));
    for max_batch in [1usize, 8, 64, 256] {
        let registry =
            Arc::new(ShardedRegistry::with_model(model.clone(), "bench").expect("publishable"));
        let config = ServeConfig {
            max_batch,
            queue_depth: 4_096,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry, config).expect("engine");
        group.bench_with_input(
            BenchmarkId::from_parameter(max_batch),
            &max_batch,
            |b, _| b.iter(|| pump(&engine, &qs)),
        );
        engine.shutdown();
    }
    group.finish();
}

/// Like [`pump`] but spreads the queries round-robin over `tenants` via
/// the per-model submission path.
fn pump_tenants(engine: &ServeEngine, queries: &[Hypervector], tenants: &[ModelId]) {
    let mut pending = std::collections::VecDeque::with_capacity(IN_FLIGHT);
    for (i, q) in queries.iter().enumerate() {
        let id = &tenants[i % tenants.len()];
        if pending.len() == IN_FLIGHT {
            let p: privehd_serve::PendingPrediction = pending.pop_front().expect("non-empty");
            p.wait().expect("prediction");
        }
        loop {
            match engine.submit(id, q.clone()) {
                Ok(p) => {
                    pending.push_back(p);
                    break;
                }
                Err(privehd_serve::ServeError::QueueFull) => {
                    if let Some(p) = pending.pop_front() {
                        p.wait().expect("prediction");
                    }
                }
                Err(e) => panic!("submit failed: {e}"),
            }
        }
    }
    for p in pending {
        p.wait().expect("prediction");
    }
}

fn bench_multi_tenant_serving(c: &mut Criterion) {
    // Per-model batching cost as the same total traffic spreads over
    // more tenants: with T tenants each batch holds ~1/T of the window,
    // so this measures the routing + smaller-batch overhead.
    let model = synthetic_model(7);
    let qs = queries(8, QUERIES_PER_ITER);
    let mut group = c.benchmark_group("serve_tenants");
    group.throughput(Throughput::Elements(QUERIES_PER_ITER as u64));
    for tenants in [1usize, 4, 16] {
        let registry = Arc::new(ShardedRegistry::new());
        let ids: Vec<ModelId> = (0..tenants)
            .map(|t| ModelId::new(format!("tenant-{t}")))
            .collect();
        for id in &ids {
            registry
                .publish(id, model.clone(), "bench")
                .expect("publishable");
        }
        let config = ServeConfig {
            max_batch: 64,
            queue_depth: 4_096,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry, config).expect("engine");
        group.bench_with_input(BenchmarkId::from_parameter(tenants), &tenants, |b, _| {
            b.iter(|| pump_tenants(&engine, &qs, &ids))
        });
        engine.shutdown();
    }
    group.finish();
}

fn bench_predict_batch_api(c: &mut Criterion) {
    // The core batch API underneath the engine: sequential loop vs
    // scoped-thread fan-out (identical results, see core::model tests).
    let model = synthetic_model(3);
    let qs = queries(4, 256);
    let mut group = c.benchmark_group("predict_batch_256");
    group.throughput(Throughput::Elements(256));
    group.bench_function("sequential", |b| {
        b.iter(|| {
            qs.iter()
                .map(|q| model.predict(q).expect("predict"))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| model.predict_batch(&qs).expect("predict_batch"))
    });
    group.finish();
}

fn bench_obfuscated_query_path(c: &mut Criterion) {
    // Dense vs bit-packed classification of a bipolar (obfuscated)
    // query.
    let model = synthetic_model(5);
    let packed = privehd_core::BipolarHv::random(DIM, 6);
    let dense = packed.to_dense();
    let mut group = c.benchmark_group("obfuscated_query_path");
    group.bench_function("dense", |b| {
        b.iter(|| model.predict(&dense).expect("predict"))
    });
    group.bench_function("packed", |b| {
        b.iter(|| model.predict_packed(&packed).expect("predict_packed"))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serving_batch_sizes, bench_multi_tenant_serving, bench_predict_batch_api,
        bench_obfuscated_query_path
);
criterion_main!(benches);
