//! # privehd-data
//!
//! Dataset substrate for the Prive-HD reproduction.
//!
//! The paper evaluates on UCI ISOLET (speech, 617 features, 26 classes),
//! MNIST (28×28 handwritten digits, 10 classes) and the Caltech web faces
//! set (608 features, 2 classes). Those corpora are not available in this
//! environment, so this crate provides *parametric synthetic surrogates*
//! with matched shape (feature count, class count, level quantization) and
//! tunable class separability, calibrated so the non-private
//! full-precision HD model reaches the paper's accuracy band. Every
//! Prive-HD claim concerns the encoding pipeline — reversibility,
//! sensitivity, quantization noise — not dataset semantics, so matching
//! shape and separability preserves the relevant behaviour (see
//! docs/DESIGN.md §4).
//!
//! * [`synthetic`] — Gaussian class-cluster generator with controllable
//!   prototype separation and sample noise.
//! * [`digits`] — stroke-rendered 28×28 digit images for the MNIST
//!   surrogate, so the reconstruction-attack figures operate on real
//!   pixel grids (and can be rendered as ASCII art).
//! * [`surrogates`] — the three named datasets used throughout the paper:
//!   [`surrogates::isolet`], [`surrogates::face`], [`surrogates::mnist`].
//! * [`sampling`] — seeded Gaussian sampling shared with the privacy
//!   crate.
//! * [`io`] — CSV import/export so the experiments run unchanged on the
//!   real UCI/MNIST corpora when they are available.
//! * [`features`] — fitted normalizers and level-occupancy diagnostics
//!   for preprocessing real corpora onto the Eq. (1) feature grid.
//!
//! ## Example
//!
//! ```
//! use privehd_data::surrogates;
//!
//! let ds = surrogates::isolet(100, 30, 1);
//! assert_eq!(ds.features(), 617);
//! assert_eq!(ds.num_classes(), 26);
//! assert_eq!(ds.train().len(), 26 * 100);
//! ```

// No unsafe: every unsafe site in the workspace lives in privehd-core
// under the analyze unsafe-audit ledger (see docs/ANALYSIS.md).
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod dataset;
pub mod digits;
pub mod features;
pub mod io;
pub mod sampling;
pub mod surrogates;
pub mod synthetic;

pub use dataset::{Dataset, Sample};
pub use sampling::NormalSampler;
pub use synthetic::{ClusterSpec, SyntheticGenerator};
