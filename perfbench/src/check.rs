//! Output checks against the f64 host reference.
//!
//! Every timed call's outputs are checked on a seeded sample of problems
//! the simulator actually executed (under sampled execution the others
//! hold stale input by definition). Errors are normwise backward errors in
//! units of `n·ε_f32`, so one bound serves every shape.

use crate::inputs::SplitMix64;
use regla_core::host::{lu::split_lu, qr::extract_r, qr::form_q};
use regla_core::{BatchRun, Mat, MatBatch, Op, ProblemStatus};
use regla_gpu_sim::{ExecMode, LaunchConfig};
use regla_model::Approach;

/// Largest accepted backward error, in units of `n·ε_f32`. A backward
/// stable f32 factorization of these well-conditioned inputs lands near
/// 1; a wrong reflector, pivot or solution lands orders of magnitude
/// above.
pub const BOUND_N_EPS: f64 = 16.0;

/// Problems sampled per checked call.
pub const SAMPLE: usize = 24;

/// Outcome of checking one call: problems attempted, problems failed
/// (non-Ok status, or a sampled problem above the bound) and the largest
/// sampled backward error.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    pub attempted: usize,
    pub failed: usize,
    pub worst: f64,
}

impl Checked {
    pub fn merge(&mut self, o: Checked) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.worst = self.worst.max(o.worst);
    }
}

fn mat64(b: &MatBatch<f32>, k: usize, cols: usize) -> Mat<f64> {
    Mat::from_fn(b.rows(), cols, |i, j| b.get(k, i, j) as f64)
}

fn n_eps(n: usize) -> f64 {
    n as f64 * f32::EPSILON as f64
}

/// `‖A − QR‖ / ‖A‖`, with Q rebuilt from the stored reflectors and taus.
fn qr_error(a: &MatBatch<f32>, out: &MatBatch<f32>, taus: &MatBatch<f32>, p: usize) -> f64 {
    let n = a.cols();
    let a64 = mat64(a, p, n);
    let f = mat64(out, p, n);
    let t: Vec<f64> = (0..n).map(|i| taus.get(p, i, 0) as f64).collect();
    let qr = form_q(&f, &t).matmul(&extract_r(&f));
    a64.frob_dist(&qr) / a64.frob_norm() / n_eps(n)
}

/// `‖A − LU‖ / ‖A‖` for the unpivoted in-place factor.
fn lu_error(a: &MatBatch<f32>, out: &MatBatch<f32>, p: usize) -> f64 {
    let n = a.cols();
    let a64 = mat64(a, p, n);
    let (l, u) = split_lu(&mat64(out, p, n));
    a64.frob_dist(&l.matmul(&u)) / a64.frob_norm() / n_eps(n)
}

/// Normwise backward error `‖Ax − b‖ / (‖A‖·‖x‖ + ‖b‖)` of the solution
/// the solver leaves in the last column of the augmented output.
fn solve_error(a: &MatBatch<f32>, b: &MatBatch<f32>, out: &MatBatch<f32>, p: usize) -> f64 {
    let n = a.cols();
    let a64 = mat64(a, p, n);
    let x: Vec<f64> = (0..n).map(|i| out.get(p, i, n) as f64).collect();
    let bv: Vec<f64> = (0..n).map(|i| b.get(p, i, 0) as f64).collect();
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let r: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|k| a64[(i, k)] * x[k]).sum::<f64>() - bv[i])
        .collect();
    norm(&r) / (a64.frob_norm() * norm(&x) + norm(&bv)) / n_eps(n)
}

/// Problems whose outputs the simulator computed: every problem under
/// `ExecMode::Full`, the problems of the executed blocks otherwise.
fn executed_problems(run: &BatchRun<f32>, exec: ExecMode) -> Vec<usize> {
    let count = run.status.len();
    if exec == ExecMode::Full {
        return (0..count).collect();
    }
    let Some(first) = run.stats.launches.first() else {
        return Vec::new();
    };
    let per_block = if run.approach == Approach::PerThread {
        first.threads_per_block
    } else {
        1
    };
    LaunchConfig::new(first.grid_blocks, first.threads_per_block)
        .exec(exec)
        .executed_blocks()
        .into_iter()
        .flat_map(|b| b * per_block..((b + 1) * per_block).min(count))
        .collect()
}

/// Up to [`SAMPLE`] distinct entries of `pool`, chosen by `seed`.
fn sample(mut pool: Vec<usize>, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let k = SAMPLE.min(pool.len());
    for i in 0..k {
        let j = i + (rng.next_u64() % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// Check one run of `op` on inputs `a` (and `b`): every status must be
/// `Ok`, and the sampled executed problems must be within the bound.
pub fn run(
    op: Op,
    a: &MatBatch<f32>,
    b: Option<&MatBatch<f32>>,
    run: &BatchRun<f32>,
    exec: ExecMode,
    seed: u64,
) -> Checked {
    let mut c = Checked {
        attempted: a.count(),
        failed: run
            .status
            .iter()
            .filter(|s| **s != ProblemStatus::Ok)
            .count(),
        worst: 0.0,
    };
    for p in sample(executed_problems(run, exec), seed) {
        if run.status[p] != ProblemStatus::Ok {
            continue;
        }
        let err = match (op, b, run.taus.as_ref()) {
            (Op::Qr, _, Some(taus)) => qr_error(a, &run.out, taus, p),
            (Op::Lu, _, _) => lu_error(a, &run.out, p),
            (Op::GjSolve | Op::QrSolve, Some(b), _) => solve_error(a, b, &run.out, p),
            _ => f64::INFINITY,
        };
        if err.is_nan() || err > BOUND_N_EPS {
            c.failed += 1;
        }
        c.worst = c.worst.max(if err.is_nan() { f64::INFINITY } else { err });
    }
    c
}
