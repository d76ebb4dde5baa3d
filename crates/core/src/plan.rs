//! Publish-time compilation of the encode∘obfuscate∘predict pipeline.
//!
//! Every serving request used to walk generic, config-driven code: the
//! edge re-derived the obfuscation permutation per call and the engine
//! re-decided kernel dispatch (dense vs packed snapshot) per batch —
//! even though all of it is fully
//! determined the moment a model is published. This module compiles
//! those decisions **once**:
//!
//! * [`EncodePlan`] — the client-side encode∘obfuscate transform as one
//!   precomputed keep-mask table. Under [`QuantScheme::Bipolar`] (the
//!   paper's inference operating point, §III-C) it drives the fused
//!   [`kernels::scalar_encode_bipolar_masked`] kernel, which never
//!   accumulates masked dimensions at all; other schemes run one fused
//!   quantize+mask output pass over the encode kernel's accumulator.
//!   Either way the permutation is materialized exactly once, at
//!   compile time (pinned by [`crate::obfuscate::permutation_build_count`]).
//! * [`ModelPlan`] — the server-side scoring pipeline: shared-ownership
//!   pins of the dense/packed class snapshots plus a one-time kernel
//!   selection ([`PlanKernel`]) that engine workers dispatch through
//!   instead of re-probing per batch (pinned by [`kernel_probe_count`]).
//!
//! This module also holds the only scoring code: one crate-private
//! function per query representation (`score_dense` for a dense query,
//! `score_packed` for a 1-bit one) and the shared argmax. The
//! [`HdModel`] predict entries and the [`ModelPlan`] ones both delegate
//! to them; they differ only in where the class snapshots come from.
//!
//! Every compiled path is bit-identical to the generic composition it
//! replaces; `tests/properties.rs` holds plans to the generic paths
//! across schemes, masks and word-boundary dimensions.

// The compiled plan dispatch runs on the serve request path; this file
// is listed in the analyzer's PANIC_PATH_SCOPE, so keep it free of
// panic-capable constructs outside tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::encoder::{Encoder, ScalarEncoder};
use crate::error::HdError;
use crate::hypervector::{BipolarHv, Hypervector};
use crate::kernels::{self, ClassMatrix, PackedClassMatrix};
use crate::model::{HdModel, Prediction};
use crate::obfuscate::{ObfuscateConfig, Obfuscator};
use crate::quantize::QuantScheme;

/// Process-wide count of kernel-selection probes: one per *generic*
/// predict entry ([`HdModel::predict`] and friends re-decide dense vs
/// packed and the dispatch path on every call) and one per
/// [`ModelPlan::compile`]. Serving audits read it through
/// [`kernel_probe_count`] to pin that requests served through a
/// compiled plan never re-probe.
static KERNEL_PROBES: AtomicU64 = AtomicU64::new(0);

/// Number of kernel-selection probes since process start. Monotonic;
/// read by conversion-counting tests, not for synchronization.
pub fn kernel_probe_count() -> u64 {
    // Relaxed: a monotonic event counter sampled by audit tests; no
    // other memory is published through it.
    KERNEL_PROBES.load(Ordering::Relaxed)
}

/// Records one kernel-selection probe (generic predict entry or plan
/// compile).
pub(crate) fn note_kernel_probe() {
    // Relaxed: monotonic audit counter (see KERNEL_PROBES); no ordering
    // with other memory is required.
    KERNEL_PROBES.fetch_add(1, Ordering::Relaxed);
}

const WORD_BITS: usize = 64;

/// The scoring kernel a compiled [`ModelPlan`] dispatches through —
/// selected once per publish instead of re-decided per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKernel {
    /// The class rows factor into `sign × scale` word blocks: score
    /// packed queries with pure `XOR` + `POPCNT` word arithmetic over
    /// `hv_words` words per class.
    PackedPopcount {
        /// Packed words per class row (`⌈dim/64⌉`).
        hv_words: usize,
    },
    /// General dense rows: `f64` scoring against the contiguous
    /// [`ClassMatrix`].
    DenseTiled,
}

impl PlanKernel {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PlanKernel::PackedPopcount { .. } => "packed-popcount",
            PlanKernel::DenseTiled => "dense-tiled",
        }
    }
}

/// The client-side encode∘obfuscate transform, compiled to one
/// precomputed keep-mask table.
///
/// Compilation materializes the obfuscation permutation exactly once
/// (the same seeded shuffle as [`Obfuscator::new`], so masks are
/// bit-identical) and stores it as a packed keep bitmap.
/// [`EncodePlan::apply`] is then a single table-driven pass:
/// bit-identical to `obfuscator.obfuscate(&encoder.encode(input)?)`
/// with no per-call permutation work and — under
/// [`QuantScheme::Bipolar`] — no accumulation of masked dimensions at
/// all.
#[derive(Debug, Clone)]
pub struct EncodePlan {
    scheme: QuantScheme,
    dim: usize,
    masked_dims: usize,
    /// One bit per dimension; set ⇔ the dimension survives the mask.
    /// `⌈dim/64⌉` words, zero tail bits.
    keep_words: Vec<u64>,
}

impl EncodePlan {
    /// Compiles the plan for queries of dimension `dim` — one
    /// permutation build, at compile time.
    ///
    /// # Errors
    ///
    /// Same contract as [`Obfuscator::new`]:
    /// [`HdError::EmptyDimension`] if `dim == 0`,
    /// [`HdError::InvalidConfig`] if `masked_dims >= dim`.
    pub fn compile(dim: usize, config: ObfuscateConfig) -> Result<Self, HdError> {
        let obfuscator = Obfuscator::new(dim, config)?;
        Ok(Self::from_obfuscator(&obfuscator))
    }

    /// Compiles the plan from an already-constructed obfuscator without
    /// re-materializing the permutation.
    pub fn from_obfuscator(obfuscator: &Obfuscator) -> Self {
        let dim = obfuscator.dim();
        let hv_words = dim.div_ceil(WORD_BITS);
        let mut keep_words = vec![u64::MAX; hv_words];
        let tail = dim % WORD_BITS;
        if tail != 0 {
            if let Some(last) = keep_words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        for &j in obfuscator.masked_indices() {
            if let Some(word) = keep_words.get_mut(j / WORD_BITS) {
                *word &= !(1u64 << (j % WORD_BITS));
            }
        }
        Self {
            scheme: obfuscator.config().scheme,
            dim,
            masked_dims: obfuscator.masked_indices().len(),
            keep_words,
        }
    }

    /// The quantization scheme baked into the plan.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Query dimensionality the plan was compiled for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of dimensions the mask nullifies.
    pub fn masked_dims(&self) -> usize {
        self.masked_dims
    }

    /// The packed keep bitmap (bit set ⇔ dimension survives;
    /// `⌈dim/64⌉` words, zero tail bits).
    pub fn keep_words(&self) -> &[u64] {
        &self.keep_words
    }

    /// Encodes and obfuscates one feature vector in a single
    /// table-driven pass — bit-identical to
    /// `obfuscator.obfuscate(&encoder.encode(input)?)`.
    ///
    /// Under [`QuantScheme::Bipolar`] the fused masked kernel skips the
    /// entire accumulation of masked dimensions (the quantized sign is
    /// σ-independent, so nothing about a masked dimension is ever
    /// needed); NaN inputs fall back to the generic composition, whose
    /// NaN semantics are the contract. Other schemes need the full
    /// accumulator for the σ estimate, so they run the encode kernel
    /// and fuse quantization + masking into one output pass.
    ///
    /// # Errors
    ///
    /// [`HdError::DimensionMismatch`] if the encoder's output dimension
    /// differs from the compiled plan's, and
    /// [`HdError::FeatureCountMismatch`] for a wrong input length.
    pub fn apply(&self, encoder: &ScalarEncoder, input: &[f64]) -> Result<Hypervector, HdError> {
        let config = encoder.config();
        if config.dim != self.dim {
            return Err(HdError::DimensionMismatch {
                expected: self.dim,
                actual: config.dim,
            });
        }
        if input.len() != config.features {
            return Err(HdError::FeatureCountMismatch {
                expected: config.features,
                actual: input.len(),
            });
        }
        if self.scheme == QuantScheme::Bipolar {
            if let Some(acc) = kernels::scalar_encode_bipolar_masked(
                encoder.item_memory_transposed(),
                input,
                config.levels,
                &self.keep_words,
            ) {
                return Ok(Hypervector::from_vec(acc));
            }
            // NaN input: the fused integer kernel cannot represent the
            // poisoned accumulator; the generic pass below resolves it
            // exactly like encode-then-obfuscate does.
        }
        let mut h = encoder.encode(input)?;
        // σ is estimated from the *pre-mask* accumulator, exactly as
        // `Obfuscator::obfuscate` does.
        let sigma = QuantScheme::empirical_sigma(&h).max(f64::MIN_POSITIVE);
        for (chunk, &keep) in h.as_mut_slice().chunks_mut(WORD_BITS).zip(&self.keep_words) {
            for (b, v) in chunk.iter_mut().enumerate() {
                *v = if keep >> b & 1 == 1 {
                    self.scheme.quantize_value(*v, sigma)
                } else {
                    0.0
                };
            }
        }
        Ok(h)
    }
}

/// The server-side scoring pipeline compiled once per published model:
/// shared-ownership pins of the scoring snapshots plus the one-time
/// [`PlanKernel`] selection request workers dispatch through.
///
/// Every predict method runs the same scoring function (scores,
/// tie-breaking, error contract) as the corresponding [`HdModel`] entry
/// point — but performs no per-call cache probing and no packability
/// re-decision.
#[derive(Debug, Clone)]
pub struct ModelPlan {
    dim: usize,
    dense: Arc<ClassMatrix>,
    packed: Option<Arc<PackedClassMatrix>>,
    kernel: PlanKernel,
}

impl ModelPlan {
    /// Compiles the plan: builds/pins both scoring snapshots and
    /// selects the kernel. Counts as exactly one kernel-selection probe
    /// (see [`kernel_probe_count`]).
    pub fn compile(model: &HdModel) -> Self {
        note_kernel_probe();
        let dim = model.dim();
        let dense = model.matrix_arc();
        let packed = model.packed_matrix_arc();
        let kernel = match &packed {
            Some(p) => PlanKernel::PackedPopcount {
                hv_words: p.dim().div_ceil(WORD_BITS),
            },
            None => PlanKernel::DenseTiled,
        };
        Self {
            dim,
            dense,
            packed,
            kernel,
        }
    }

    /// Hypervector dimensionality the plan scores at.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.dense.num_classes()
    }

    /// The kernel selected at compile time.
    pub fn kernel(&self) -> PlanKernel {
        self.kernel
    }

    /// Scores a bit-packed bipolar query through the compiled kernel —
    /// the same scoring as [`HdModel::predict_packed`], with zero
    /// per-call dispatch decisions.
    ///
    /// # Errors
    ///
    /// [`HdError::DimensionMismatch`] for a wrong query dimension,
    /// [`HdError::ZeroNorm`] if every class hypervector is zero and
    /// [`HdError::NonFiniteQuery`] if a score is NaN.
    pub fn predict_packed(&self, query: &BipolarHv) -> Result<Prediction, HdError> {
        score_packed(self.dim, &self.dense, self.packed.as_deref(), query)
    }

    /// Scores a dense query through the compiled kernel — the same
    /// scoring as [`HdModel::predict`].
    ///
    /// # Errors
    ///
    /// Same contract as [`ModelPlan::predict_packed`].
    pub fn predict_dense(&self, query: &Hypervector) -> Result<Prediction, HdError> {
        score_dense(self.dim, &self.dense, query)
    }
}

fn check_dim(expected: usize, actual: usize) -> Result<(), HdError> {
    if actual == expected {
        Ok(())
    } else {
        Err(HdError::DimensionMismatch { expected, actual })
    }
}

/// The one dense scoring body: cosine-like scores of `query` against
/// the `dense` class rows (the query norm is a shared factor and is
/// skipped, Eq. 4), then the shared argmax.
pub(crate) fn score_dense(
    dim: usize,
    dense: &ClassMatrix,
    query: &Hypervector,
) -> Result<Prediction, HdError> {
    check_dim(dim, query.dim())?;
    if dense.all_zero() {
        return Err(HdError::ZeroNorm);
    }
    let mut scores = Vec::new();
    dense.scores_into(query.as_slice(), &mut scores);
    prediction_from_scores(scores)
}

/// The one packed scoring body: `XOR` + `POPCNT` against the packed
/// class rows when they exist, otherwise sign-selected dots against
/// the `dense` rows; then the shared argmax.
pub(crate) fn score_packed(
    dim: usize,
    dense: &ClassMatrix,
    packed: Option<&PackedClassMatrix>,
    query: &BipolarHv,
) -> Result<Prediction, HdError> {
    check_dim(dim, query.dim())?;
    let mut scores = Vec::new();
    match packed {
        Some(packed) if !packed.all_zero() => {
            packed.scores_packed_into(query.words(), &mut scores);
        }
        Some(_) => return Err(HdError::ZeroNorm),
        None => {
            if dense.all_zero() {
                return Err(HdError::ZeroNorm);
            }
            dense.scores_packed_into(query.words(), &mut scores);
        }
    }
    prediction_from_scores(scores)
}

/// Shared argmax: winner = the last maximal score, matching
/// `Iterator::max_by` on ties. A NaN score (a NaN query component)
/// is a typed [`HdError::NonFiniteQuery`], never a panic.
pub(crate) fn prediction_from_scores(scores: Vec<f64>) -> Result<Prediction, HdError> {
    let mut best: Option<(usize, f64)> = None;
    for (class, &score) in scores.iter().enumerate() {
        if score.is_nan() {
            return Err(HdError::NonFiniteQuery);
        }
        if best.is_none_or(|(_, top)| score >= top) {
            best = Some((class, score));
        }
    }
    let (class, score) = best.ok_or(HdError::EmptyInput("class scores"))?;
    Ok(Prediction {
        class,
        score,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncoderConfig;

    fn trained_model(dim: usize, seed: u64) -> (ScalarEncoder, HdModel) {
        let enc = ScalarEncoder::new(EncoderConfig::new(6, dim).with_seed(seed)).unwrap();
        let mut model = HdModel::new(2, dim).unwrap();
        for i in 0..8 {
            let t = i as f64 / 40.0;
            let a = vec![0.1 + t, 0.2, 0.1, 0.9 - t, 0.8, 0.9];
            let b = vec![0.9 - t, 0.8, 0.9, 0.1 + t, 0.2, 0.1];
            model.bundle(0, &enc.encode(&a).unwrap()).unwrap();
            model.bundle(1, &enc.encode(&b).unwrap()).unwrap();
        }
        (enc, model)
    }

    #[test]
    fn compile_selects_dense_for_float_rows_and_popcount_for_sign_rows() {
        let (_, mut model) = trained_model(300, 3);
        let plan = ModelPlan::compile(&model);
        assert!(matches!(plan.kernel(), PlanKernel::DenseTiled));
        model.quantize_classes(QuantScheme::Bipolar);
        let plan = ModelPlan::compile(&model);
        assert!(matches!(
            plan.kernel(),
            PlanKernel::PackedPopcount { hv_words: 5, .. }
        ));
        assert_eq!(plan.num_classes(), 2);
        assert_eq!(plan.dim(), 300);
    }

    #[test]
    fn plan_predicts_bit_identically_to_the_model() {
        let (enc, model) = trained_model(300, 5);
        let plan = ModelPlan::compile(&model);
        let q = enc.encode(&[0.2, 0.3, 0.1, 0.8, 0.7, 0.9]).unwrap();
        assert_eq!(plan.predict_dense(&q).unwrap(), model.predict(&q).unwrap());
        let packed = BipolarHv::random(300, 9);
        assert_eq!(
            plan.predict_packed(&packed).unwrap(),
            model.predict_packed(&packed).unwrap()
        );
    }

    #[test]
    fn plan_mirrors_model_error_contract() {
        let (_, model) = trained_model(300, 7);
        let plan = ModelPlan::compile(&model);
        let short = Hypervector::from_vec(vec![1.0; 64]);
        assert_eq!(
            plan.predict_dense(&short),
            Err(HdError::DimensionMismatch {
                expected: 300,
                actual: 64
            })
        );
        let untrained = HdModel::new(2, 64).unwrap();
        let plan = ModelPlan::compile(&untrained);
        assert_eq!(
            plan.predict_dense(&Hypervector::from_vec(vec![1.0; 64])),
            Err(HdError::ZeroNorm)
        );
        assert_eq!(
            plan.predict_packed(&BipolarHv::random(64, 0)),
            Err(HdError::ZeroNorm)
        );
    }

    #[test]
    fn encode_plan_matches_generic_composition() {
        let (enc, _) = trained_model(300, 11);
        for scheme in QuantScheme::ALL {
            let cfg = ObfuscateConfig::new(scheme)
                .with_masked_dims(90)
                .with_seed(4);
            let ob = Obfuscator::new(300, cfg).unwrap();
            let plan = EncodePlan::compile(300, cfg).unwrap();
            assert_eq!(plan.masked_dims(), 90);
            let input = [0.15, 0.5, 0.85, 0.3, 0.7, 0.05];
            let generic = ob.obfuscate(&enc.encode(&input).unwrap()).unwrap();
            let fused = plan.apply(&enc, &input).unwrap();
            assert_eq!(
                fused.as_slice(),
                generic.as_slice(),
                "{scheme}: compiled plan must bit-match encode∘obfuscate"
            );
        }
    }

    #[test]
    fn encode_plan_nan_falls_back_to_generic_semantics() {
        let (enc, _) = trained_model(200, 13);
        let cfg = ObfuscateConfig::new(QuantScheme::Bipolar)
            .with_masked_dims(50)
            .with_seed(2);
        let ob = Obfuscator::new(200, cfg).unwrap();
        let plan = EncodePlan::compile(200, cfg).unwrap();
        let input = [0.1, f64::NAN, 0.3, 0.4, 0.5, 0.6];
        let generic = ob.obfuscate(&enc.encode(&input).unwrap()).unwrap();
        let fused = plan.apply(&enc, &input).unwrap();
        assert_eq!(fused.as_slice(), generic.as_slice());
    }

    #[test]
    fn encode_plan_validates_like_the_generic_path() {
        let (enc, _) = trained_model(200, 17);
        let cfg = ObfuscateConfig::new(QuantScheme::Bipolar);
        assert!(EncodePlan::compile(0, cfg).is_err());
        assert!(EncodePlan::compile(8, cfg.with_masked_dims(8)).is_err());
        let plan = EncodePlan::compile(200, cfg).unwrap();
        assert_eq!(
            plan.apply(&enc, &[0.5; 4]),
            Err(HdError::FeatureCountMismatch {
                expected: 6,
                actual: 4
            })
        );
        let other = EncodePlan::compile(100, cfg).unwrap();
        assert!(matches!(
            other.apply(&enc, &[0.5; 6]),
            Err(HdError::DimensionMismatch { .. })
        ));
    }

    // NOTE: the counter is process-global and other unit tests exercise
    // the (probe-counted) generic predict paths concurrently, so this
    // only asserts the lower bound here; the exact "zero probes per
    // served request" audit lives in `privehd-serve/tests/plan_probes.rs`
    // where it owns its test binary.
    #[test]
    fn compile_notes_a_kernel_probe() {
        let (_, model) = trained_model(128, 19);
        let before = kernel_probe_count();
        let _plan = ModelPlan::compile(&model);
        assert!(kernel_probe_count() > before, "compile must probe");
    }

    #[test]
    fn argmax_keeps_the_last_maximum_and_types_nan() {
        let p = prediction_from_scores(vec![0.5, f64::NEG_INFINITY, 0.5, -1.0]).unwrap();
        assert_eq!((p.class, p.score), (2, 0.5));
        assert_eq!(
            prediction_from_scores(vec![0.5, f64::NAN]),
            Err(HdError::NonFiniteQuery)
        );
        assert_eq!(
            prediction_from_scores(Vec::new()),
            Err(HdError::EmptyInput("class scores"))
        );
    }
}
