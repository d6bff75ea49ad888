//! The cold-rs benchmark: shared pieces of the end-to-end runner
//! (`perfbench`) and the traced per-layer runner (`perfbench-trace`).
//!
//! Everything here drives the program through the surfaces a user has:
//! the `cold train` recipe (`ColdConfig::builder` + `GibbsSampler` /
//! `ParallelGibbs`) and the `cold serve` binary over HTTP. Layer-internal
//! calls live only in the traced binary, so an API change inside one layer
//! cannot stop the end-to-end runs from building. See `README.md` for the
//! workloads and metrics.

pub mod args;
pub mod http;
pub mod report;
pub mod serve;
pub mod stats;
pub mod tracer;
pub mod train;

use std::path::{Path, PathBuf};

/// The three workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Train,
    ServePredict,
    ServeReload,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "train" => Ok(Self::Train),
            "serve_predict" => Ok(Self::ServePredict),
            "serve_reload" => Ok(Self::ServeReload),
            other => Err(format!(
                "unknown workload {other:?} (train, serve_predict, serve_reload)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Train => "train",
            Self::ServePredict => "serve_predict",
            Self::ServeReload => "serve_reload",
        }
    }

    pub fn is_training(self) -> bool {
        self == Self::Train
    }
}

/// Chain seed of the training workload, derived from the workload seed.
pub fn chain_seed(seed: u64) -> u64 {
    seed.wrapping_add(1)
}

/// Shards of the sharded chain the traced run measures the engine on, and
/// sequential chains side by side in `train`: the two cores of the host
/// the benchmark was defined on, fixed so the workloads are the same
/// everywhere.
pub const SHARDS: usize = 2;

/// Untimed preparation, run as `<binary> prep <workload> <seed> <seconds>
/// <dir>` in a child process so none of its memory counts towards the
/// measured process.
pub fn prep_main(argv: &[String]) -> Result<(), String> {
    let [workload, seed, seconds, dir] = argv else {
        return Err("usage: prep <workload> <seed> <seconds> <dir>".into());
    };
    let workload = Workload::parse(workload)?;
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let seconds: f64 = seconds.parse().map_err(|e| format!("seconds: {e}"))?;
    let dir = Path::new(dir);
    if workload.is_training() {
        train::prep(dir, seed)
    } else {
        serve::prep(dir, workload, seed, seconds)
    }
}

/// Run the preparation of `workload` in a child process of this binary.
pub fn prep_in_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("prep")
        .arg(workload.name())
        .arg(seed.to_string())
        .arg(seconds.to_string())
        .arg(dir)
        .status()
        .map_err(|e| format!("starting preparation: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("preparation failed with {status}"))
    }
}

/// A per-run work directory under the work root, removed on drop so a
/// run leaves no artifacts behind.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(root: &Path, workload: Workload, seed: u64) -> std::io::Result<Self> {
        let dir = root.join(format!(
            "{}-s{seed}-p{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk space.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn vm_hwm_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    proc_status_kb(&text, "VmHWM:")
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Current resident set (`VmRSS`) of this process, in MiB.
pub fn vm_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    proc_status_kb(&text, "VmRSS:")
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmRSS in /proc/self/status".to_owned())
}

fn proc_status_kb(text: &str, key: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}
