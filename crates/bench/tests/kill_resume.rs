//! The kill-and-resume chaos harness: proof that checkpoint/restore is
//! crash-consistent and bit-identical.
//!
//! For every shipped scenario file, the harness:
//!
//! 1. computes the clean reference digest in-process (no checkpointing);
//! 2. spawns the `scenario` binary as a child process with a
//!    `"checkpoint"` block whose `crash_at` hook aborts the process at a
//!    seeded pseudo-random cycle — the deterministic stand-in for
//!    SIGKILL (same observable effect: the process dies with no final
//!    write, losing everything since the last on-disk checkpoint);
//! 3. resumes from the newest usable checkpoint and asserts the
//!    completed run's `ScenarioOutcome.digest` equals the reference
//!    exactly.
//!
//! A separate case truncates the newest checkpoint file mid-payload
//! before resuming and asserts the loader falls back to the intact
//! predecessor — a torn write must never strand the run.
//!
//! Set `DDPM_KILL_RESUME_DIR` to keep the work directory (config files
//! and checkpoint dirs) at a known location; CI uses this to upload the
//! evidence as an artifact when the harness fails.

use ddpm_serve::scenario::{resume_scenario, run_scenario, ScenarioConfig};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::Command;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn work_root() -> PathBuf {
    match std::env::var_os("DDPM_KILL_RESUME_DIR") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("ddpm-kill-resume-{}", std::process::id())),
    }
}

/// Deterministic per-case seed so the kill point is fuzzed across the
/// grid but every run of the suite reproduces the same kill points.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn shipped_scenarios() -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    files.sort();
    assert!(files.len() >= 5, "expected the shipped scenario files");
    files
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let raw = std::fs::read_to_string(&p).expect("readable scenario");
            (name, raw)
        })
        .collect()
}

/// Splices checkpoint settings into a scenario's JSON text.
/// `Map::insert` replaces an existing `checkpoint` block cleanly.
fn spliced(raw: &str, checkpoint: Value) -> String {
    let Value::Object(mut map) = serde_json::from_str::<Value>(raw).expect("scenario JSON")
    else {
        panic!("scenario file must be a JSON object")
    };
    map.insert("checkpoint".to_string(), checkpoint);
    serde_json::to_string_pretty(&Value::Object(map)).expect("serialises")
}

struct Killed {
    ckpt_dir: PathBuf,
    reference: String,
}

/// Runs one scenario up to and including the kill: reference digest,
/// child spawn, crash, checkpoint sanity. Returns the checkpoint dir
/// ready for resume.
fn kill_cell(tag: &str, raw: &str) -> Killed {
    let root = work_root().join(tag);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("work dir");

    // Clean reference, no checkpointing.
    let refcfg: ScenarioConfig =
        serde_json::from_str(raw).unwrap_or_else(|e| panic!("{tag}: {e}"));
    let reference = run_scenario(&refcfg)
        .unwrap_or_else(|e| panic!("{tag} reference run: {e}"))
        .digest;

    // Seeded kill point: somewhere past the second checkpoint (so the
    // truncation case always has a fallback) but well before the run
    // drains, fuzzed per scenario.
    let every = (refcfg.horizon / 10).max(1);
    let crash_at = 2 * every + 1 + fnv(tag) % (refcfg.horizon / 2).max(1);
    let ckpt_dir = root.join("ckpt");
    let cfg_text = spliced(
        raw,
        json!({
            "every": every,
            "dir": ckpt_dir.display().to_string(),
            "keep": 2,
            "crash_at": crash_at,
        }),
    );
    let cfg_path = root.join("config.json");
    std::fs::write(&cfg_path, &cfg_text).expect("write spliced config");

    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .arg(&cfg_path)
        .output()
        .expect("spawn scenario child");
    assert!(
        !out.status.success(),
        "{tag}: crash_at={crash_at} should have killed the child, but it exited cleanly:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let cycles = ddpm_checkpoint::list(&ckpt_dir)
        .unwrap_or_else(|e| panic!("{tag}: no checkpoint dir after kill: {e}"));
    assert!(
        cycles.len() >= 2,
        "{tag}: expected >= 2 surviving checkpoints below crash point {crash_at}, got {cycles:?}"
    );
    assert!(
        cycles.iter().all(|&c| c <= crash_at),
        "{tag}: checkpoint past the crash point {crash_at}: {cycles:?}"
    );
    Killed {
        ckpt_dir,
        reference,
    }
}

#[test]
fn sigkill_and_resume_reproduces_every_scenario_digest() {
    let mut cells = 0;
    for (name, raw) in shipped_scenarios() {
        let killed = kill_cell(&name, &raw);
        let resumed = resume_scenario(&killed.ckpt_dir)
            .unwrap_or_else(|e| panic!("{name}: resume failed: {e}"));
        assert_eq!(
            resumed.digest, killed.reference,
            "{name}: resumed run diverged from the uninterrupted reference"
        );
        cells += 1;
        if std::env::var_os("DDPM_KILL_RESUME_DIR").is_none() {
            let _ = std::fs::remove_dir_all(work_root().join(&name));
        }
    }
    assert!(cells >= 5, "expected the 5 shipped scenarios, ran {cells}");
}

#[test]
fn truncated_newest_checkpoint_falls_back_to_predecessor() {
    let (name, raw) = shipped_scenarios()
        .into_iter()
        .find(|(n, _)| n == "benign_mesh_baseline")
        .expect("baseline scenario shipped");
    let tag = format!("{name}-torn");
    let killed = kill_cell(&tag, &raw);

    // Tear the newest checkpoint mid-payload, as a crash during a
    // non-atomic write would (the store discipline makes this
    // impossible via rename, so manufacture it directly).
    let cycles = ddpm_checkpoint::list(&killed.ckpt_dir).expect("checkpoints");
    let newest = *cycles.iter().max().expect("non-empty");
    let victim = killed.ckpt_dir.join(ddpm_checkpoint::file_name(newest));
    let bytes = std::fs::read(&victim).expect("read newest checkpoint");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate");

    let resumed = resume_scenario(&killed.ckpt_dir).expect("resume despite torn newest");
    assert_eq!(
        resumed.digest, killed.reference,
        "resume from the predecessor checkpoint diverged"
    );
    if std::env::var_os("DDPM_KILL_RESUME_DIR").is_none() {
        let _ = std::fs::remove_dir_all(work_root().join(&tag));
    }
}
