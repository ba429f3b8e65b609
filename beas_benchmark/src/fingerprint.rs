//! Where and how a result was taken: without it two numbers cannot be told
//! apart from two machines.

use crate::json::Json;
use std::process::Command;

/// First line of a command's standard output, if it runs and succeeds.
fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// The runner fingerprint of this process.
pub fn fingerprint(seed: u64, seconds: f64, quick: bool) -> Json {
    let unknown = || "unknown".to_string();
    // beas-lint: allow(L009) -- the fingerprint records the date of the run;
    // it times nothing
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        // A driver's checkout is not a git repository; the commit is then
        // whatever the caller exported, or unknown.
        (
            "commit",
            first_line_of("git", &["rev-parse", "HEAD"])
                .or_else(|| std::env::var("BEAS_BENCH_COMMIT").ok())
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get() as u64)
                .into(),
        ),
        ("cpu", cpu_model().unwrap_or_else(unknown).into()),
        (
            "rustc",
            first_line_of("rustc", &["-V"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        ("trace_level", beas::obs::trace_level().to_string().into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("quick", quick.into()),
        ("unix_time", unix_time.into()),
    ])
}
