//! # phox-nn
//!
//! The neural-network model zoo for the `phox` accelerator simulators:
//!
//! * [`transformer`] — the Transformer configurations the paper evaluates
//!   TRON on (BERT-base/large, GPT-2, ViT-B/16) with an executable fp64
//!   reference stack and fake-int8 variant;
//! * [`gnn`] — CSR graphs plus GCN / GraphSAGE / GIN / GAT reference
//!   models, the families the GHOST evaluation covers;
//! * [`datasets`] — deterministic synthetic workloads with the published
//!   shapes of Cora / Citeseer / Pubmed / Reddit, an R-MAT generator for
//!   realistic degree skew, SBM community graphs and separable sequence
//!   tasks for accuracy experiments;
//! * [`census`] — the static operation inventory ([`census::OpCensus`])
//!   both the photonic simulators and the electronic baselines consume;
//! * [`engine`] — the backend traits the one transformer forward and the
//!   one GNN forward are written against, with the digital backends; the
//!   TRON and GHOST functional simulators are the photonic backends;
//! * [`int8`] — the true int8 execution layer ([`int8::QuantLinear`]):
//!   weight products on the `i8 x i8 -> i32` kernels behind
//!   `forward_int8` on both model families;
//! * [`quant_eval`] — the "8-bit ≈ fp32" analysis of §VI;
//! * [`tasks`] — the other graph tasks §III motivates (link prediction,
//!   graph classification).
//!
//! # Example
//!
//! ```
//! use phox_nn::transformer::TransformerConfig;
//!
//! let bert = TransformerConfig::bert_base(128);
//! let census = bert.census();
//!
//! ```

// Index-based loops are the clearest idiom for the dense-matrix and
// per-ring arithmetic throughout this crate.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod census;
pub mod datasets;
pub mod decode;
pub mod engine;
pub mod gnn;
pub mod int8;
pub mod quant_eval;
pub mod tasks;
pub mod transformer;

pub use census::OpCensus;
