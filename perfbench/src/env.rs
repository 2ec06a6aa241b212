//! The run environment: what is recorded with every result, what refuses
//! to run, and the cross-invocation determinism store.

use std::path::PathBuf;

/// Variables that switch the simulator onto another path than the one
/// users get by default, so a number taken under them measures something
/// else.
const REFUSED_VARS: &[&str] = &[
    "REGLA_SIM_SLOW",
    "REGLA_SCHED_CACHE",
    "REGLA_FAST",
    "REGLA_SIM_THREADS",
];

/// Why this process must not measure, if it must not.
pub fn refusal() -> Option<String> {
    if cfg!(debug_assertions) {
        return Some("refusing to measure a debug build; build with --release".into());
    }
    let set: Vec<&str> = REFUSED_VARS
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    (!set.is_empty()).then(|| {
        format!(
            "refusing to measure with {} set: it changes the measured path",
            set.join(", ")
        )
    })
}

/// The commit of the checkout, read from `.git` in the working directory
/// (no process is spawned), or `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Functional-replay host threads a default launch resolves to, read
/// from the `LaunchStats` of one small run.
fn sim_host_threads() -> String {
    let a = regla_core::MatBatch::from_fn(4, 4, 64, |_, i, j| if i == j { 4.0 } else { 0.5 });
    regla_core::Session::new()
        .lu(&a)
        .ok()
        .and_then(|r| {
            r.stats
                .launches
                .first()
                .map(|l| l.sim_host_threads.to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One `# env` line per recorded fact.
pub fn lines() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut regla: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("REGLA_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    regla.sort();
    vec![
        format!("# env nproc={nproc}"),
        format!("# env sim_host_threads={}", sim_host_threads()),
        format!("# env profile={profile}"),
        format!("# env commit={}", git_commit()),
        format!("# env regla_vars=[{}]", regla.join(" ")),
    ]
}

/// Where this build keeps the simulated-clock fingerprints of earlier
/// invocations: next to the executable, keyed by the executable's size
/// and modification time, so a rebuild starts a fresh store.
fn store_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    Some(
        exe.parent()?
            .join(format!("perfbench-sim-{:x}-{mtime:x}", meta.len())),
    )
}

/// Compare this invocation's simulated-clock fingerprint for `key` with
/// the one an earlier invocation of the same build recorded, recording it
/// if none was. `Err` names the first differing line.
pub fn check_fingerprint(key: &str, fingerprint: &str) -> Result<(), String> {
    let Some(dir) = store_dir() else {
        return Ok(());
    };
    let path = dir.join(format!("{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == fingerprint => Ok(()),
        Ok(prev) => {
            let line = prev
                .lines()
                .zip(fingerprint.lines())
                .find(|(a, b)| a != b)
                .map_or_else(
                    || "length differs".to_string(),
                    |(a, b)| format!("{a} vs {b}"),
                );
            Err(format!(
                "simulated-clock drift against an earlier invocation: {line}"
            ))
        }
        Err(_) => {
            // Best effort: a read-only build directory only loses the
            // cross-invocation half of the check.
            let _ = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, fingerprint));
            Ok(())
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
