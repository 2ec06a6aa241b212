//! The four workloads and the layer probes they share.
//!
//! A workload is run as repetitions. Each repetition makes fresh inputs
//! from its own seed (outside the timed region), times only the public
//! calls, checks their outputs, and records its simulated-clock values.
//! With tracing on, it also wraps benchmark-side spans around the calls
//! and probes the layers a public call does not report on its own.

mod fleet;
mod serve;
mod sweep;

pub use fleet::FleetRecovery;
pub use serve::ServeMixed;
pub use sweep::Sweep;

use crate::metrics::{add, Layers, Metric, Rep};
use regla_core::{MatBatch, Session};
use regla_gpu_sim::{GlobalMemory, LaunchStats};
use regla_model::Algorithm;
use std::hint::black_box;
use std::time::Instant;

pub trait Workload {
    /// What setup builds and the timed calls reuse.
    type Inst;

    /// Build the Session, Fleet or ServeEngine a user builds once and warm
    /// it up on inputs from `seed`. Returns the host seconds of the build
    /// and the warm-up calls (input generation excluded).
    fn setup(&self, seed: u64) -> Result<(f64, Self::Inst), String>;

    /// One repetition on inputs derived from `seed`.
    fn rep(&self, inst: &Self::Inst, seed: u64, trace: bool) -> Result<Rep, String>;

    /// The simulated-clock end-to-end metrics, from the first repetitions
    /// (whose seeds depend only on the workload seed).
    fn sim_metrics(&self, reps: &[Rep]) -> Vec<Metric>;
}

/// Seconds `f` takes, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = black_box(f());
    (t.elapsed().as_secs_f64(), r)
}

/// Fold the launches of one public call into the launch-layer metrics.
pub fn launch_layers(layers: &mut Layers, launches: &[LaunchStats]) {
    for l in launches {
        add(layers, "launch.host_s", l.sim_wall_s);
        add(layers, "launch.blocks_replayed", l.sim_blocks as f64);
        add(layers, "launch.count", 1.0);
        add(layers, "launch.fast", f64::from(u8::from(l.sim_fast)));
        add(
            layers,
            "launch.hits",
            f64::from(u8::from(l.sim_sched_cache_hit)),
        );
        add(layers, "launch.sim_cycles", l.cycles);
        add(layers, "launch.sim_dram_bytes", l.dram_bytes);
        add(layers, "launch.waves", l.waves as f64);
        add(layers, "launch.warps", l.occupancy.warps_per_sm as f64);
    }
}

/// Turn the launch sums of one repetition into its ratios.
pub fn finish_launch_layers(layers: &mut Layers) {
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let n = get(layers, "launch.count");
    if n > 0.0 {
        let host = get(layers, "launch.host_s");
        let blocks = get(layers, "launch.blocks_replayed");
        layers.insert("launch.fast_frac", get(layers, "launch.fast") / n);
        layers.insert("launch.sched_hit_frac", get(layers, "launch.hits") / n);
        layers.insert("launch.occupancy", get(layers, "launch.warps") / n);
        if host > 0.0 {
            layers.insert("launch.blocks_per_s", blocks / host);
        }
    }
}

/// Time the data path of one call the way `Session::run_with` runs it:
/// upload of the (augmented) batch into a device memory sized like the
/// session's, then download of the factor, the taus when the call
/// produces them, and the status flags. Returns upload plus download
/// seconds, after adding both to `layers`.
pub fn probe_transfers(layers: &mut Layers, aug: &MatBatch<f32>, nfac: usize, taus: bool) -> f64 {
    let (m, cols, count) = (aug.rows(), aug.cols(), aug.count());
    let tau_words = count * nfac;
    let mut gmem = GlobalMemory::new(aug.words_per_mat() * count + tau_words + count + 4096);
    let (up, ptr) = timed(|| aug.to_device(&mut gmem));
    let d_tau = gmem.alloc(tau_words.max(1));
    let d_flag = gmem.alloc(count);
    gmem.h2d(d_flag, &vec![0.0; count]);
    let (down, _) = timed(|| {
        let out = MatBatch::<f32>::from_device(m, cols, count, &gmem, ptr);
        let t = taus.then(|| MatBatch::<f32>::from_device(nfac, 1, count, &gmem, d_tau));
        let mut flags = vec![0.0f32; count];
        gmem.d2h(d_flag, &mut flags);
        (out, t, flags)
    });
    let words = aug.words_per_mat() * count;
    add(layers, "batch.upload_s", up);
    add(layers, "batch.download_s", down);
    add(
        layers,
        "batch.words_moved",
        (2 * words + if taus { tau_words } else { 0 } + count) as f64,
    );
    up + down
}

/// Host microseconds per `regla_model::choose` call over `shapes`
/// (algorithm, n, batch), on `session`'s device.
pub fn predict_us(layers: &mut Layers, session: &Session, shapes: &[(Algorithm, usize, usize)]) {
    const CALLS: usize = 2000;
    let (s, _) = timed(|| {
        for i in 0..CALLS {
            let (alg, n, batch) = shapes[i % shapes.len()];
            let _ = black_box(regla_model::choose(
                session.params(),
                session.config(),
                alg,
                n,
                n,
                batch,
                1,
            ));
        }
    });
    add(layers, "model.predict_us", s / CALLS as f64 * 1e6);
}
