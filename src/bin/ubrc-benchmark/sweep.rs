//! `bench` layer: the real `experiments` binary, timed from outside.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::work::Tally;

/// `experiments` sits beside this executable: both are built into the
/// same target directory (see run.sh).
fn experiments_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let path = exe.with_file_name("experiments");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release -p ubrc-bench`",
            path.display()
        ))
    }
}

/// One experiment id and its measurements, one per pass.
pub struct Experiment {
    pub id: String,
    pub walls: Vec<f64>,
    pub peaks_mib: Vec<f64>,
}

/// The sweep's measurements.
pub struct Sweep {
    /// Median wall of `experiments --list` (process start and registry).
    pub startup_s: f64,
    /// Every id `experiments --list` prints.
    pub experiments: Vec<Experiment>,
}

/// Runs `experiments <id> --scale tiny` with one simulation worker for
/// every id, pass after pass, until `seconds` have passed and at least
/// `min_passes` passes ran. A non-zero exit counts as a failure.
pub fn run(seconds: f64, min_passes: usize, tally: &mut Tally) -> Result<Sweep, String> {
    let bin = experiments_binary()?;
    let spawn_err = |e: std::io::Error| format!("{}: {e}", bin.display());
    let mut startups = Vec::new();
    let mut ids = String::new();
    for _ in 0..21 {
        tally.attempted += 1;
        let t = Instant::now();
        let out = Command::new(&bin)
            .arg("--list")
            .stderr(Stdio::inherit())
            .output()
            .map_err(spawn_err)?;
        startups.push(t.elapsed().as_secs_f64());
        if !out.status.success() {
            tally.fail("experiments --list", out.status);
        }
        ids = String::from_utf8_lossy(&out.stdout).into_owned();
    }
    let mut experiments: Vec<Experiment> = ids
        .split_whitespace()
        .map(|id| Experiment {
            id: id.to_string(),
            walls: Vec::new(),
            peaks_mib: Vec::new(),
        })
        .collect();
    if experiments.is_empty() {
        return Err("experiments --list printed no ids".into());
    }
    let start = Instant::now();
    let mut passes = 0;
    while passes < min_passes || start.elapsed().as_secs_f64() < seconds {
        for e in &mut experiments {
            tally.attempted += 1;
            let t = Instant::now();
            let child = Command::new(&bin)
                .args([e.id.as_str(), "--scale", "tiny"])
                .env("UBRC_BENCH_WORKERS", "1")
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(spawn_err)?;
            let (ok, peak_kib) = reap::wait_with_peak(child).map_err(spawn_err)?;
            e.walls.push(t.elapsed().as_secs_f64());
            e.peaks_mib.push(peak_kib as f64 / 1024.0);
            if !ok {
                tally.fail(&format!("experiments {}", e.id), "non-zero exit");
            }
        }
        passes += 1;
    }
    Ok(Sweep {
        startup_s: crate::stats::median(&startups),
        experiments,
    })
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod reap {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    }

    /// Waits for `child` to end. Returns whether it exited with code 0
    /// and its peak resident set in KiB.
    pub fn wait_with_peak(child: std::process::Child) -> std::io::Result<(bool, u64)> {
        let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
        let mut status = 0;
        let mut usage = RUsage {
            times: [0; 4],
            maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live, writable values, and
            // `usage` has the layout of `struct rusage` on this target;
            // wait4 writes nothing beyond them.
            let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if rc == pid {
                return Ok((status == 0, usage.maxrss as u64));
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod reap {
    pub fn wait_with_peak(mut child: std::process::Child) -> std::io::Result<(bool, u64)> {
        let _ = child.wait();
        Err(std::io::Error::other(
            "peak memory of a child is only read on 64-bit Linux",
        ))
    }
}
