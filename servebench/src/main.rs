//! Open-loop serving benchmark for the Prive-HD serve stack.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload packed-open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process trains a model on a seeded ISOLET-shaped surrogate
//! (617 features, D = 10 000, 26 classes), starts the engine and the
//! wire server on loopback, and offers requests open loop over one TCP
//! connection. It uses only the public API of `privehd-core` and
//! `privehd-serve`, and reads per-layer busy time from `/proc`.
//!
//! Phases: set-up (repeated, median reported), warm-up, the *base* rate
//! (light, so the batch window dominates), warm-up, the *loaded* rate
//! (below the knee), and a rollout phase that republishes unchanged
//! weights. `--trace 1` adds the stats scrape, a rate sweep for
//! capacity, direct calls into each layer, and writes the benchmark's
//! spans to `servebench/traces/`. The last stdout line is the JSON
//! result; every answer is checked against an in-process `ModelPlan`.

mod data;
mod load;
mod probe;
mod procfs;
mod report;
mod stack;

use std::collections::HashSet;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use privehd_core::{HdError, ModelPlan, ObfuscateConfig, PlanKernel, Prediction, QuantScheme};
use privehd_serve::wire::{Frame, QueryPayload, RequestFrame, WireClient};
use privehd_serve::{ModelId, QueryVec};

use crate::data::{Rng, CLASSES, DIM};
use crate::load::{Conn, PhaseRun, Republish};
use crate::report::{median, quantile, Metrics};
use crate::stack::Tenant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const WARM_FIRST: f64 = 1.0;
const WARM: f64 = 0.5;
/// Shares of `--seconds` spent in the measured phases.
const BASE_SHARE: f64 = 0.35;
const LOADED_SHARE: f64 = 0.5;
const ROLLOUT_SHARE: f64 = 0.15;
const ROLLOUT_EVERY: Duration = Duration::from_millis(100);
/// Offered-rate multiples of the loaded rate tried by the capacity
/// sweep, each for `SWEEP_STEP` seconds; it stops after two steps in a
/// row miss the limit.
const SWEEP: [f64; 10] = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0];
const SWEEP_STEP: f64 = 1.0;
/// `capacity_qps` is the highest swept rate at which 99% of requests
/// are answered within this limit.
const CAPACITY_LIMIT: Duration = Duration::from_millis(25);

struct Workload {
    name: &'static str,
    tenants: Vec<Tenant>,
    /// Raw-feature frames, encoded and masked server-side.
    raw: bool,
    base_qps: f64,
    loaded_qps: f64,
    /// Republish tenant 0 this often during every phase.
    republish_every: Option<Duration>,
}

fn single(packed: bool) -> Vec<Tenant> {
    vec![Tenant {
        id: ModelId::new("isolet"),
        packed,
        weight: 1.0,
    }]
}

fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        // The paper's cheapest private query: 1-bit frames against a
        // sign-quantized model, so wire and batching dominate.
        "packed-open" => Workload {
            name: "packed-open",
            tenants: single(true),
            raw: false,
            base_qps: 1_000.0,
            loaded_qps: 2_000.0,
            republish_every: None,
        },
        // The same frames against a full-precision model: the dense
        // kernel dominates server CPU.
        "dense-open" => Workload {
            name: "dense-open",
            tenants: single(false),
            raw: false,
            base_qps: 1_000.0,
            loaded_qps: 1_500.0,
            republish_every: None,
        },
        // Raw features encoded and half-masked on the server's pool.
        "masked-raw" => Workload {
            name: "masked-raw",
            tenants: single(false),
            raw: true,
            base_qps: 150.0,
            loaded_qps: 300.0,
            republish_every: None,
        },
        // Eight tenants, packed and dense, skewed traffic, tenant 0
        // republished with unchanged weights twice a second.
        "tenants-republish" => Workload {
            name: "tenants-republish",
            tenants: [0.30, 0.20, 0.14, 0.10, 0.08, 0.07, 0.06, 0.05]
                .iter()
                .enumerate()
                .map(|(i, &weight)| Tenant {
                    id: ModelId::new(format!("tenant-{i}")),
                    packed: i % 2 == 0,
                    weight,
                })
                .collect(),
            raw: false,
            base_qps: 1_000.0,
            loaded_qps: 2_000.0,
            republish_every: Some(Duration::from_millis(500)),
        },
        _ => return None,
    };
    Some(w)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(self::workload(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload packed-open|dense-open|masked-raw|tenants-republish \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            ExitCode::from(2)
        }
    }
}

/// Scores `query` the way a serve worker does: packed queries through
/// the popcount or dense-sign kernel, dense ones through the dense
/// kernel.
pub fn predict(plan: &ModelPlan, query: &QueryVec) -> Result<Prediction, HdError> {
    match query {
        QueryVec::Packed(q) => plan.predict_packed(q),
        QueryVec::Dense(q) => plan.predict_dense(q),
    }
}

/// Counts over every checked phase.
#[derive(Default)]
struct Tally {
    attempted: usize,
    answered: usize,
    right_label: usize,
    mismatches: usize,
    errors: Vec<String>,
}

/// What every answer is checked against.
struct Reference {
    /// `expected[tenant][sample]`: class and score bits from the
    /// in-process plan.
    expected: Vec<Vec<(u32, u64)>>,
    labels: Vec<usize>,
    /// (tenant, version) pairs this run published.
    known: HashSet<(usize, u64)>,
}

impl Reference {
    /// Call once every phase's publishes are `known`: a response may
    /// name a version published in a later phase's schedule.
    fn check(&self, phase: &PhaseRun, tally: &mut Tally) {
        tally.attempted += phase.attempted();
        if let Some(e) = &phase.broken {
            tally.errors.push(e.clone());
        }
        for (req, reply) in phase.reqs.iter().zip(&phase.replies) {
            let Some(Ok(answer)) = reply.as_ref().map(|r| r.outcome.as_ref()) else {
                continue;
            };
            tally.answered += 1;
            let (class, score_bits) = self.expected[req.tenant][req.sample];
            if !answer.tenant_ok
                || !self.known.contains(&(req.tenant, answer.version))
                || answer.class != class
                || answer.score_bits != score_bits
            {
                tally.mismatches += 1;
            }
            if answer.class as usize == self.labels[req.sample] {
                tally.right_label += 1;
            }
        }
    }
}

/// One measured phase with the thread readings around it and the
/// host's steal during it.
struct Measured {
    run: PhaseRun,
    before: procfs::Snapshot,
    after: procfs::Snapshot,
    steal: f64,
}

impl Measured {
    /// `f(usage of the threads named prefix*)` per answered query.
    fn per_query(&self, prefix: &str, f: impl Fn(procfs::Usage) -> f64) -> f64 {
        f(self.before.usage_until(&self.after, prefix)) / self.run.answered().max(1) as f64
    }
}

/// Time from each publish to the first response of that tenant stamped
/// with the new (or a later) version, in ms.
fn rollout_ms(phases: &[&PhaseRun]) -> Vec<f64> {
    let mut out = Vec::new();
    for phase in phases {
        for p in &phase.published {
            let first = phase
                .reqs
                .iter()
                .zip(&phase.replies)
                .filter(|(req, _)| req.tenant == p.tenant)
                .filter_map(|(_, r)| {
                    let r = r.as_ref()?;
                    matches!(&r.outcome, Ok(a) if a.version >= p.version).then_some(r.at)
                })
                .min();
            if let Some(at) = first {
                out.push((at - p.start).as_secs_f64() * 1e3);
            }
        }
    }
    out
}

fn run(args: &Args) -> ExitCode {
    let w = &args.workload;
    let epoch = Instant::now();

    // Input generation: dataset, client-side query encoding, frames.
    let data = data::isolet_surrogate(args.seed);
    let basis_seed = args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xB;
    let packed_edge = stack::edge(basis_seed, ObfuscateConfig::new(QuantScheme::Bipolar));
    let edge = if w.raw {
        stack::edge(basis_seed, stack::masked_obfuscation())
    } else {
        packed_edge.clone()
    };
    let test_x: Vec<Vec<f64>> = data.test.iter().map(|(x, _)| x.clone()).collect();
    // Client-encoded 1-bit queries; raw-feature workloads send
    // `test_x` and the server encodes them.
    let packed = (!w.raw).then(|| {
        packed_edge
            .prepare_batch_packed(&test_x)
            .expect("encode test queries")
    });
    // Sample `s` as the worker scores it: the masked encoding is made
    // on demand so the benchmark holds no dense copies.
    let scored = |s: usize| match &packed {
        Some(q) => QueryVec::Packed(q[s].clone()),
        None => QueryVec::Dense(edge.prepare(&test_x[s]).expect("prepare query")),
    };
    let ids: Vec<ModelId> = w.tenants.iter().map(|t| t.id.clone()).collect();
    let request = |id: &ModelId, s: usize| {
        let payload = match &packed {
            Some(q) => QueryPayload::Packed(q[s].clone()),
            None => QueryPayload::Raw(test_x[s].clone()),
        };
        Frame::Request(RequestFrame {
            // Stamped with the real id at send time.
            request_id: 0,
            model: id.clone(),
            payload,
        })
    };
    let templates: Vec<Vec<Vec<u8>>> = ids
        .iter()
        .map(|id| {
            (0..test_x.len())
                .map(|s| {
                    request(id, s)
                        .encode()
                        .expect("benchmark frames fit the wire format")
                })
                .collect()
        })
        .collect();

    // Set-up, as the server owner pays it.
    let plan = stack::Plan {
        tenants: &w.tenants,
        train: &data.train,
        basis_seed,
        raw_edge: w.raw.then(stack::masked_obfuscation),
    };
    let ticks = procfs::cpu_ticks();
    let mut setups = Vec::with_capacity(SETUPS);
    let stack = loop {
        let (s, t) = stack::setup(&plan);
        setups.push(t);
        if setups.len() == SETUPS {
            break s;
        }
        s.shutdown();
    };
    let steal_setup = ticks.steal_pct_until(&procfs::cpu_ticks());

    // The reference answers, from plans compiled in-process.
    let plans: Vec<ModelPlan> = stack.models.iter().map(ModelPlan::compile).collect();
    let mut expected = vec![Vec::with_capacity(test_x.len()); plans.len()];
    for s in 0..test_x.len() {
        let query = scored(s);
        for (t, plan) in plans.iter().enumerate() {
            let p = predict(plan, &query).expect("reference prediction");
            expected[t].push((p.class as u32, p.score.to_bits()));
        }
    }
    let mut reference = Reference {
        expected,
        labels: data.test.iter().map(|(_, y)| *y).collect(),
        known: (0..ids.len()).map(|t| (t, 1)).collect(),
    };

    // Load phases.
    let mut conn = Conn::new(stack.stream.try_clone().expect("clone stream")).expect("connection");
    let weights: Vec<f64> = w.tenants.iter().map(|t| t.weight).collect();
    let mut rng = Rng::new(args.seed ^ 0x10AD);
    let republish = |every| Republish {
        registry: &stack.registry,
        tenant: 0,
        id: &ids[0],
        model: &stack.models[0],
        every,
    };
    let during = w.republish_every.map(republish);
    let rollout_publish = republish(ROLLOUT_EVERY);
    let mut phase = |rate: f64, secs: f64, rp: Option<&Republish<'_>>, spans: bool| {
        let n = ((rate * secs).round() as usize).max(1);
        let reqs = data::schedule(&mut rng, n, rate, &weights, test_x.len());
        load::run(&mut conn, &templates, &ids, reqs, rp, spans)
    };
    let mut measure = |rate: f64, secs: f64, spans: bool| {
        let (ticks, before) = (procfs::cpu_ticks(), procfs::snapshot());
        let run = phase(rate, secs, during.as_ref(), spans);
        Measured {
            run,
            before,
            after: procfs::snapshot(),
            steal: ticks.steal_pct_until(&procfs::cpu_ticks()),
        }
    };
    let s = args.seconds;

    let warm_base = measure(w.base_qps, WARM_FIRST, false);
    let base = measure(w.base_qps, s * BASE_SHARE, false);
    // The traced run repeats the base phase with spans on; the pair
    // gives the spans' own overhead.
    let base_traced = args
        .trace
        .then(|| measure(w.base_qps, s * BASE_SHARE, true));
    let warm_loaded = measure(w.loaded_qps, WARM, false);
    let loaded = measure(w.loaded_qps, s * LOADED_SHARE, args.trace);
    let rollout = phase(
        w.base_qps,
        s * ROLLOUT_SHARE,
        Some(&rollout_publish),
        args.trace,
    );
    let mut checked: Vec<&PhaseRun> = [&warm_base, &base, &warm_loaded, &loaded]
        .into_iter()
        .chain(base_traced.as_ref())
        .map(|m| &m.run)
        .collect();
    checked.push(&rollout);
    for p in checked.iter().flat_map(|p| &p.published) {
        reference.known.insert((p.tenant, p.version));
    }
    let mut tally = Tally::default();
    for p in &checked {
        reference.check(p, &mut tally);
    }

    let answered = loaded.run.answered();
    let cpu_us = |prefix| loaded.per_query(prefix, |u| u.cpu_ns as f64 / 1e3);
    let switches = |prefix| loaded.per_query(prefix, |u| u.voluntary as f64);
    let base_lat = base.run.latencies_us();
    let loaded_lat = loaded.run.latencies_us();
    let rollouts = rollout_ms(&checked);
    let publish_ms: Vec<f64> = checked
        .iter()
        .flat_map(|p| &p.published)
        .map(|p| (p.end - p.start).as_secs_f64() * 1e3)
        .collect();
    let setup_med =
        |f: fn(&stack::SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let mut e2e = Metrics::default();
    e2e.add("setup_s", setup_med(stack::SetupTimes::total), "s", SETUPS);
    e2e.add("latency_p50_us", median(&base_lat), "us", base_lat.len());
    e2e.add(
        "latency_p50_us.loaded",
        median(&loaded_lat),
        "us",
        loaded_lat.len(),
    );
    e2e.add("cpu_us_per_query", cpu_us(procfs::ALL), "us", answered);
    e2e.add(
        "answered_ratio",
        tally.answered as f64 / tally.attempted.max(1) as f64,
        "fraction",
        tally.attempted,
    );
    e2e.add(
        "accuracy",
        tally.right_label as f64 / tally.answered.max(1) as f64,
        "fraction",
        tally.answered,
    );
    e2e.add("rss_peak_mb", procfs::vm_hwm_mb(), "MB", 1);
    e2e.add("rollout_ms", median(&rollouts), "ms", rollouts.len());

    let mut layer = Metrics::default();
    layer.add(
        "wire.cpu_us_per_query",
        cpu_us(procfs::WIRE),
        "us",
        answered,
    );
    layer.add(
        "wire.ctx_switches_per_query",
        switches(procfs::WIRE),
        "count",
        answered,
    );
    let sent = loaded.run.sent.len();
    layer.add(
        "wire.req_bytes_per_query",
        loaded.run.bytes_sent as f64 / sent.max(1) as f64,
        "B",
        sent,
    );
    layer.add(
        "engine.sched_cpu_us_per_query",
        cpu_us(procfs::SCHED),
        "us",
        answered,
    );
    layer.add(
        "engine.worker_cpu_us_per_query",
        cpu_us(procfs::WORKER),
        "us",
        answered,
    );
    layer.add(
        "engine.worker_ctx_switches_per_query",
        switches(procfs::WORKER),
        "count",
        answered,
    );
    layer.add(
        "pool.cpu_us_per_query",
        cpu_us(procfs::POOL),
        "us",
        answered,
    );
    layer.add(
        "registry.publish_ms",
        median(&publish_ms),
        "ms",
        publish_ms.len(),
    );
    layer.add("setup.encode_s", setup_med(|t| t.encode), "s", SETUPS);
    layer.add("setup.train_s", setup_med(|t| t.train), "s", SETUPS);
    layer.add("setup.publish_s", setup_med(|t| t.publish), "s", SETUPS);
    layer.add("setup.start_s", setup_med(|t| t.start), "s", SETUPS);
    layer.add("env.steal_pct.setup", steal_setup, "%", 1);
    layer.add("env.steal_pct.base", base.steal, "%", 1);
    layer.add("env.steal_pct", loaded.steal, "%", 1);
    let late: Vec<f64> = [&base.run, &loaded.run]
        .iter()
        .flat_map(|p| p.lateness_us())
        .collect();
    layer.add(
        "env.gen_late_p99_us",
        quantile(&late, 0.99),
        "us",
        late.len(),
    );
    layer.add(
        "latency_p99_us",
        quantile(&base_lat, 0.99),
        "us",
        base_lat.len(),
    );
    layer.add(
        "latency_p99_us.loaded",
        quantile(&loaded_lat, 0.99),
        "us",
        loaded_lat.len(),
    );

    if args.trace {
        let inputs = TracedInputs {
            checked: &checked,
            base_p50: median(&base_lat),
            traced_base: &base_traced.as_ref().expect("traced base phase").run,
            probe: probe::ProbeInputs {
                plan: &plans[0],
                model: &stack.models[0],
                query: scored(0),
                edge: &edge,
                packed_edge: &packed_edge,
                features: &test_x,
                registry: &stack.registry,
                id: &ids[0],
                frame: &request(&ids[0], 0),
            },
            epoch,
        };
        traced(args, &stack, &mut layer, &inputs, |rate, secs| {
            phase(rate, secs, None, false)
        });
    }
    drop(conn);
    stack.shutdown();

    println!(
        "# workload {} seed {} seconds {} trace {} | kernel {} | non-default config: \
         WireConfig.max_in_flight={} ServeConfig.queue_depth={} ServeConfig.tenant_quota={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plans[0].kernel().label(),
        stack::MAX_IN_FLIGHT,
        stack::QUEUE_DEPTH,
        stack::TENANT_QUOTA,
    );
    e2e.print_table("end to end");
    layer.print_table("per layer");
    let correct = tally.mismatches == 0 && tally.errors.is_empty();
    for e in &tally.errors {
        println!("# error: {e}");
    }
    println!("# reference mismatches: {}", tally.mismatches);
    let shown = if args.trace { &layer } else { &e2e };
    println!(
        "{}",
        report::result_line(
            correct,
            tally.attempted,
            tally.attempted - tally.answered,
            shown
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct TracedInputs<'a> {
    /// Every phase run before the scrape.
    checked: &'a [&'a PhaseRun],
    base_p50: f64,
    traced_base: &'a PhaseRun,
    probe: probe::ProbeInputs<'a>,
    epoch: Instant,
}

/// The traced run's additions: the stats scrape, the spans' overhead,
/// the capacity sweep, direct calls into each layer, and the span file.
fn traced(
    args: &Args,
    stack: &stack::Stack,
    layer: &mut Metrics,
    inp: &TracedInputs<'_>,
    mut sweep_phase: impl FnMut(f64, f64) -> PhaseRun,
) {
    let w = &args.workload;
    // One scrape, read after the measured phases; its histograms cover
    // every request since start, as does `all` below.
    let text = WireClient::connect(stack.server.local_addr())
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.stats().map_err(|e| e.to_string()))
        .unwrap_or_else(|e| {
            println!("# error: stats scrape failed: {e}");
            String::new()
        });
    let scrape = probe::Scrape::parse(&text);
    let stage = |layer: &mut Metrics, name: &str, stage: &str| {
        let n = scrape.stages.get(stage).map_or(0, |s| s.1) as usize;
        layer.add(name, scrape.p50(stage), "us", n);
    };
    stage(layer, "wire.decode_p50_us", "wire_decode");
    stage(layer, "wire.write_p50_us", "wire_write");
    stage(layer, "engine.admission_p50_us", "admission");
    stage(layer, "engine.queue_wait_p50_us", "queue_wait");
    stage(layer, "engine.batch_wait_p50_us", "batch_wait");
    stage(layer, "engine.snapshot_resolve_p50_us", "snapshot_resolve");
    stage(layer, "plan.served_predict_p50_us", "predict");
    stage(layer, "edge.served_encode_p50_us", "encode");
    let all: Vec<f64> = inp.checked.iter().flat_map(|p| p.latencies_us()).collect();
    layer.add(
        "engine.unattributed_p50_us",
        median(&all) - scrape.stage_p50_sum(),
        "us",
        all.len(),
    );
    layer.add("engine.batch_size_mean", scrape.batch_size_mean, "count", 1);
    layer.add("engine.rejected", scrape.rejected, "count", 1);

    let traced_lat = inp.traced_base.latencies_us();
    layer.add(
        "trace.overhead_pct",
        100.0 * (median(&traced_lat) / inp.base_p50 - 1.0),
        "%",
        traced_lat.len(),
    );

    let mut capacity = 0.0;
    let mut steps = 0;
    let mut misses = 0;
    for m in SWEEP {
        let rate = w.loaded_qps * m;
        steps += 1;
        if sweep_phase(rate, SWEEP_STEP).within(CAPACITY_LIMIT) >= 0.99 {
            capacity = rate;
            misses = 0;
        } else {
            misses += 1;
            if misses == 2 {
                break;
            }
        }
    }
    layer.add("capacity_qps", capacity, "1/s", steps);

    let p = probe::run(&inp.probe);
    layer.add("wire.frame_encode_ns", p.frame_encode_ns, "ns", 1);
    layer.add("wire.frame_decode_ns", p.frame_decode_ns, "ns", 1);
    layer.add("plan.predict_us", p.predict_us, "us", 1);
    layer.add("edge.prepare_us", p.prepare_us, "us", 1);
    layer.add("edge.prepare_packed_us", p.prepare_packed_us, "us", 1);
    layer.add("registry.plan_compile_ms", p.plan_compile_ms, "ms", 1);
    layer.add("registry.get_ns", p.get_ns, "ns", 1);
    // Bytes the compiled kernel streams per query, computed from the
    // matrix and query sizes (not measured).
    let served = stack.registry.get(inp.probe.id).expect("tenant 0 is live");
    let query = match inp.probe.query {
        QueryVec::Packed(_) => DIM / 8,
        QueryVec::Dense(_) => DIM * 8,
    };
    let matrix = match p.kernel {
        PlanKernel::PackedPopcount { .. } => served.packed_memory_bytes().unwrap_or(0),
        PlanKernel::DenseTiled { .. } => CLASSES * DIM * 8,
    };
    layer.add("kernels.bytes_per_query", (matrix + query) as f64, "B", 1);

    if let Err(e) = write_spans(args, inp) {
        println!("# error: writing spans failed: {e}");
    }
}

/// Writes the traced phases' spans as JSON lines: one `send` and one
/// `recv` span per request (sharing its id), one per `publish`, and
/// one per phase; times in µs since the process started.
fn write_spans(args: &Args, inp: &TracedInputs<'_>) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let t = |at: Instant| load::us(at - inp.epoch);
    let traced = inp
        .checked
        .iter()
        .filter(|p| p.sent.iter().any(|(a, b)| a != b));
    for (k, phase) in traced.enumerate() {
        let end = phase.replies.iter().flatten().map(|r| r.decoded).max();
        writeln!(
            out,
            r#"{{"span":"phase","phase":{k},"start_us":{:.3},"end_us":{:.3}}}"#,
            t(phase.start),
            t(end.unwrap_or(phase.start))
        )?;
        for (i, ((s0, s1), req)) in phase.sent.iter().zip(&phase.reqs).enumerate() {
            let id = phase.base_id + i as u64;
            writeln!(
                out,
                r#"{{"span":"send","req":{id},"tenant":{},"due_us":{:.3},"start_us":{:.3},"end_us":{:.3}}}"#,
                req.tenant,
                t(phase.due(i)),
                t(*s0),
                t(*s1)
            )?;
            if let Some(r) = &phase.replies[i] {
                writeln!(
                    out,
                    r#"{{"span":"recv","req":{id},"ok":{},"start_us":{:.3},"end_us":{:.3}}}"#,
                    r.outcome.is_ok(),
                    t(r.at),
                    t(r.decoded)
                )?;
            }
        }
        for p in &phase.published {
            writeln!(
                out,
                r#"{{"span":"publish","tenant":{},"version":{},"start_us":{:.3},"end_us":{:.3}}}"#,
                p.tenant,
                p.version,
                t(p.start),
                t(p.end)
            )?;
        }
    }
    out.flush()?;
    println!("# spans written to {}", path.display());
    Ok(())
}
