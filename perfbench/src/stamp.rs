//! The provenance stamp printed with every result: host cores, source
//! revision, compiler, build profile, seed and workload parameters.

use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;

/// Runs `git` in `dir`; `None` when git or the repository is absent.
/// Git may not look above `dir`: an exported tree inside some other
/// repository must not report that repository's revision.
fn git(dir: &Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", dir.parent()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The stamp for one run. `rev` and `dirty` are `null` outside a git
/// checkout (the benchmark also runs from exported source trees).
#[must_use]
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool, params: Value) -> Value {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap_or(manifest);
    let rev = git(root, &["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(root, &["status", "--porcelain"]))
        .map(|s| !s.is_empty());
    json!({
        "stamp": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "nproc": std::thread::available_parallelism().map_or(0, usize::from),
            "git_rev": rev,
            "git_dirty": dirty,
            "rustc": env!("PERFBENCH_RUSTC"),
            "profile": env!("PERFBENCH_PROFILE"),
            "params": params,
        }
    })
}
