//! Output verification after the timed phase, against the f32 exact
//! reference `a3::core::attention::attention`.

use a3::core::attention::attention;
use a3::core::Matrix;

/// What an output must satisfy to pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// The quantized datapath: right length, finite, and relative L2 error
    /// against exact below `tolerance`.
    WithinTolerance(f64),
    /// The approximate datapath: right length and finite. Its error is
    /// reported, not bounded, because approximation is the point.
    Finite,
}

/// Verification tally.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Verdict {
    /// Outputs checked.
    pub checked: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// Sum of relative L2 errors against exact, over the outputs that
    /// passed a reference check.
    pub rel_err_sum: f64,
    /// Outputs that passed a reference check.
    pub measured: u64,
    /// Largest relative L2 error seen, failed outputs included.
    pub max_rel_err: f64,
}

impl Verdict {
    /// Mean relative L2 error of the outputs that passed a reference check.
    /// Repeated passes reproduce the first bit for bit, so this is also the
    /// mean over every returned output.
    pub fn mean_rel_err(&self) -> f64 {
        self.rel_err_sum / self.measured.max(1) as f64
    }

    /// Checks one output against the exact attention of `query` over
    /// (`keys`, `values`).
    pub fn check(
        &mut self,
        check: Check,
        output: &[f32],
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) {
        self.checked += 1;
        let reference = match attention(keys, values, query) {
            Ok(r) => r,
            Err(_) => {
                self.failed += 1;
                return;
            }
        };
        let err = rel_l2(output, &reference);
        self.max_rel_err = self.max_rel_err.max(err);
        let shaped = output.len() == reference.len() && output.iter().all(|x| x.is_finite());
        let ok = shaped
            && match check {
                Check::WithinTolerance(tol) => err < tol,
                Check::Finite => true,
            };
        if ok {
            self.rel_err_sum += err;
            self.measured += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Adds another tally to this one.
    pub fn merge(&mut self, other: &Verdict) {
        self.checked += other.checked;
        self.failed += other.failed;
        self.rel_err_sum += other.rel_err_sum;
        self.measured += other.measured;
        self.max_rel_err = self.max_rel_err.max(other.max_rel_err);
    }

    /// Counts an output that should equal an already verified one: a later
    /// pass of the same trace must reproduce the first pass bit for bit.
    pub fn check_repeat(&mut self, output: &[f32], first: &[f32]) {
        self.checked += 1;
        if !same_bits(output, first) {
            self.failed += 1;
        }
    }
}

/// `‖out − reference‖ / ‖reference‖`; infinite when the shapes differ.
pub fn rel_l2(out: &[f32], reference: &[f32]) -> f64 {
    if out.len() != reference.len() {
        return f64::INFINITY;
    }
    let (mut diff, mut norm) = (0.0f64, 0.0f64);
    for (&o, &r) in out.iter().zip(reference) {
        diff += f64::from(o - r).powi(2);
        norm += f64::from(r).powi(2);
    }
    (diff / norm.max(f64::MIN_POSITIVE)).sqrt()
}

/// Bitwise equality of two outputs (NaN payloads included).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
