//! # phox-photonics
//!
//! Silicon-photonic device models for the TRON (transformer) and GHOST
//! (GNN) accelerator simulators: microring resonators, EO/TO/TED tuning,
//! heterodyne/homodyne/thermal crosstalk, VCSELs, balanced
//! photodetectors, SOAs, ADC/DAC converters, receiver noise budgets, WDM
//! link power budgets, MR bank arrays, coherent summation, and a
//! constraint-driven design-space search.
//!
//! The models follow §IV–§V of *"Accelerating Neural Networks for Large
//! Language Models and Graph Processing with Silicon Photonics"*
//! (DATE 2024); see the repository DESIGN.md for the substitution table
//! mapping each paper artifact (Lumerical-calibrated device curves) to the
//! analytic model implemented here.
//!
//! # Example
//!
//! ```
//! use phox_photonics::mr::MrConfig;
//! use phox_photonics::crosstalk::HeterodyneAnalysis;
//!
//! # fn main() -> Result<(), phox_photonics::PhotonicError> {
//! let mr = MrConfig::default().validated()?;
//! // How many 8-bit-clean WDM channels fit at 1.6 nm spacing?
//! let n = HeterodyneAnalysis::max_channels(&mr, 1.6, 8);
//! assert!(n >= 2);
//! # Ok(())
//! # }
//! ```

// Index-based loops are the clearest idiom for the dense-matrix and
// per-ring arithmetic throughout this crate.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod analog;
pub mod bank;
pub mod coherent;
pub mod constants;
pub mod converter;
pub mod crosstalk;
pub mod design_space;
pub mod devices;
pub mod fault;
pub mod link;
pub mod mr;
pub mod noise;
pub mod pcm;
pub mod summation;
pub mod tuning;
pub mod variation;

use std::error::Error;
use std::fmt;

/// Error type for all photonic device and design-space operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PhotonicError {
    /// A configuration field was non-physical.
    InvalidConfig {
        /// Which constraint was violated.
        what: &'static str,
    },
    /// A value was outside the representable range.
    ValueOutOfRange {
        /// The offending value.
        value: f64,
        /// Lower bound of the valid range.
        lo: f64,
        /// Upper bound of the valid range.
        hi: f64,
    },
    /// A required resonance shift exceeded the tuning range.
    TuningRangeExceeded {
        /// Shift that was requested, nm.
        required_nm: f64,
        /// Maximum available shift, nm.
        available_nm: f64,
    },
    /// A WDM comb did not fit within one free spectral range.
    FsrExceeded {
        /// Comb width required, nm.
        required_nm: f64,
        /// Available FSR, nm.
        fsr_nm: f64,
    },
    /// Received optical power fell below photodetector sensitivity.
    SignalUndetectable {
        /// Received power, dBm.
        received_dbm: f64,
        /// Detector sensitivity, dBm.
        sensitivity_dbm: f64,
    },
    /// The noise budget cannot reach the target precision at any power.
    PrecisionUnreachable {
        /// Target effective bits.
        target_bits: u32,
        /// Best achievable effective bits.
        achieved_bits: f64,
    },
    /// The laser cannot supply the required per-channel power.
    LaserBudgetExceeded {
        /// Required laser power, dBm.
        required_dbm: f64,
        /// Available laser power, dBm.
        available_dbm: f64,
    },
    /// A design-space sweep found no feasible point.
    NoFeasibleDesign {
        /// Number of candidates examined.
        examined: usize,
    },
    /// The same device cell was faulted twice in one plan or schedule.
    /// Duplicate faults on one cell are contradictory (which level is
    /// the ring stuck at?), so they are rejected when the plan is built
    /// rather than silently resolved last-wins.
    DuplicateFault {
        /// Which fault type was duplicated (e.g. `"stuck-MR cell"`,
        /// `"dead ADC lane"`).
        what: &'static str,
        /// Array row (or receiver lane) of the duplicated cell.
        row: usize,
        /// Wavelength channel of the duplicated cell (0 for per-lane
        /// faults, which have no channel coordinate).
        channel: usize,
    },
    /// A numerical routine failed.
    NumericalFailure {
        /// Which routine.
        what: &'static str,
        /// Underlying detail.
        detail: String,
    },
    /// A failure in an upstream subsystem (memory model, architecture
    /// metrics, baseline evaluation, tensor algebra) whose error type
    /// this crate cannot depend on. The message preserves the upstream
    /// Display rendering so the root cause is never erased.
    Upstream {
        /// Which subsystem failed (e.g. `"memsim"`, `"arch"`, `"tensor"`).
        subsystem: &'static str,
        /// The upstream error, rendered.
        message: String,
    },
    /// A failure wrapped with the pipeline stage it occurred in. The
    /// chain bottoms out at the root device-physics failure, reachable
    /// through [`std::error::Error::source`] or
    /// [`PhotonicError::root_cause`].
    Context {
        /// The stage that was executing when the source failure occurred.
        stage: &'static str,
        /// The wrapped failure.
        source: Box<PhotonicError>,
    },
}

impl PhotonicError {
    /// Wraps the error with the pipeline stage it occurred in.
    #[must_use]
    pub fn ctx(self, stage: &'static str) -> PhotonicError {
        PhotonicError::Context {
            stage,
            source: Box::new(self),
        }
    }

    /// Builds an [`PhotonicError::Upstream`] from a foreign error,
    /// preserving its Display rendering.
    pub fn upstream(subsystem: &'static str, err: impl fmt::Display) -> PhotonicError {
        PhotonicError::Upstream {
            subsystem,
            message: err.to_string(),
        }
    }

    /// Walks the [`PhotonicError::Context`] chain to the innermost
    /// (root-cause) error.
    pub fn root_cause(&self) -> &PhotonicError {
        let mut cur = self;
        while let PhotonicError::Context { source, .. } = cur {
            cur = source;
        }
        cur
    }
}

/// The ledger-invariant guard of the cost models: a decomposition
/// (per-stage energies, latency components) must sum back to the total it
/// decomposes to within 1e-9 relative error.
///
/// # Errors
///
/// [`PhotonicError::NumericalFailure`] naming `what` when the two
/// disagree or either is NaN.
pub fn check_close(what: &'static str, expected: f64, actual: f64) -> Result<(), PhotonicError> {
    let scale = expected.abs().max(actual.abs()).max(f64::MIN_POSITIVE);
    let rel = (expected - actual).abs() / scale;
    if rel.is_nan() || rel > 1e-9 {
        return Err(PhotonicError::NumericalFailure {
            what,
            detail: format!("expected {expected:e}, decomposition sums to {actual:e}"),
        });
    }
    Ok(())
}

/// The part of `total_s` not hidden behind `hidden_s`: the serialised
/// remainder after overlap, which cannot be negative.
///
/// # Errors
///
/// [`PhotonicError::NumericalFailure`] naming `what` for a negative or
/// NaN remainder, instead of a `.max(0.0)` clamp that would hide a
/// modeling bug.
pub fn exposed_time_s(
    what: &'static str,
    total_s: f64,
    hidden_s: f64,
) -> Result<f64, PhotonicError> {
    let exposed = total_s - hidden_s;
    if exposed.is_nan() || exposed < 0.0 {
        return Err(PhotonicError::NumericalFailure {
            what,
            detail: format!("total {total_s:e} s is less than the hidden component {hidden_s:e} s"),
        });
    }
    Ok(exposed)
}

/// Extension trait adding [`PhotonicError::ctx`] directly on `Result`,
/// so call sites can annotate failures with the stage they occurred in
/// without erasing the cause:
///
/// ```
/// use phox_photonics::{Ctx, PhotonicError};
///
/// fn provision() -> Result<(), PhotonicError> {
///     Err(PhotonicError::LaserBudgetExceeded {
///         required_dbm: 14.0,
///         available_dbm: 10.0,
///     })
/// }
/// let err = provision().ctx("provisioning the weight bank").unwrap_err();
/// assert!(err.to_string().contains("provisioning the weight bank"));
/// assert!(std::error::Error::source(&err).is_some());
/// ```
pub trait Ctx<T> {
    /// Annotates the error with the stage it occurred in, converting
    /// foreign error types through their `Into<PhotonicError>` impls.
    fn ctx(self, stage: &'static str) -> Result<T, PhotonicError>;
}

impl<T, E: Into<PhotonicError>> Ctx<T> for Result<T, E> {
    fn ctx(self, stage: &'static str) -> Result<T, PhotonicError> {
        self.map_err(|e| e.into().ctx(stage))
    }
}

impl From<phox_tensor::TensorError> for PhotonicError {
    /// Tensor-algebra failures surface as [`PhotonicError::Upstream`]
    /// with the shape details preserved.
    fn from(e: phox_tensor::TensorError) -> Self {
        PhotonicError::upstream("tensor", e)
    }
}

impl fmt::Display for PhotonicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhotonicError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            PhotonicError::ValueOutOfRange { value, lo, hi } => {
                write!(f, "value {value} outside representable range [{lo}, {hi}]")
            }
            PhotonicError::TuningRangeExceeded {
                required_nm,
                available_nm,
            } => write!(
                f,
                "tuning range exceeded: need {required_nm:.4} nm, have {available_nm:.4} nm"
            ),
            PhotonicError::FsrExceeded {
                required_nm,
                fsr_nm,
            } => write!(
                f,
                "channel comb of {required_nm:.3} nm exceeds the {fsr_nm:.3} nm free spectral range"
            ),
            PhotonicError::SignalUndetectable {
                received_dbm,
                sensitivity_dbm,
            } => write!(
                f,
                "received {received_dbm:.2} dBm is below the {sensitivity_dbm:.2} dBm sensitivity"
            ),
            PhotonicError::PrecisionUnreachable {
                target_bits,
                achieved_bits,
            } => write!(
                f,
                "cannot reach {target_bits} effective bits (best achievable {achieved_bits:.2})"
            ),
            PhotonicError::LaserBudgetExceeded {
                required_dbm,
                available_dbm,
            } => write!(
                f,
                "laser budget exceeded: need {required_dbm:.2} dBm per channel, have {available_dbm:.2} dBm"
            ),
            PhotonicError::NoFeasibleDesign { examined } => {
                write!(f, "no feasible design point among {examined} candidates")
            }
            PhotonicError::DuplicateFault { what, row, channel } => {
                write!(f, "duplicate {what} at (row {row}, channel {channel})")
            }
            PhotonicError::NumericalFailure { what, detail } => {
                write!(f, "numerical failure in {what}: {detail}")
            }
            PhotonicError::Upstream { subsystem, message } => {
                write!(f, "{subsystem} failure: {message}")
            }
            PhotonicError::Context { stage, source } => {
                write!(f, "{stage}: {source}")
            }
        }
    }
}

impl Error for PhotonicError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PhotonicError::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}
