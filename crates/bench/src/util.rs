//! Report plumbing: the run context every experiment receives,
//! plain-text tables and machine-readable output.

use ddpm_telemetry::TelemetryConfig;
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// What the driver passes to every experiment runner: reproducibility
/// and output knobs shared across the whole suite.
///
/// `Default` is a full-fidelity run with each experiment's built-in
/// seed and no tracing — exactly what `report <key>` did before this
/// context existed.
#[derive(Clone, Debug, Default)]
pub struct RunCtx {
    /// Override the experiment's built-in RNG seed (`--seed`).
    pub seed: Option<u64>,
    /// Shrink workloads for smoke testing (`--quick`): statistical
    /// claims are still exercised but at reduced sample counts.
    pub quick: bool,
    /// Directory for NDJSON packet traces (`--trace DIR`): experiments
    /// that run a simulator write `<key>.ndjson` there.
    pub trace_dir: Option<PathBuf>,
    /// Wall-clock budget for the chaos soak (`--soak-secs N`); the soak
    /// experiment picks its own small default when unset.
    pub soak_secs: Option<u64>,
    /// Where the soak writes repro bundles on failure (`--soak-dir`).
    /// Defaults to `target/soak-bundles`.
    pub soak_dir: Option<PathBuf>,
}

impl RunCtx {
    /// The seed to use: the `--seed` override, else `default`.
    #[must_use]
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Scales a workload size: full size normally, `n/8` (min 1) under
    /// `--quick`.
    #[must_use]
    pub fn scaled(&self, n: u64) -> u64 {
        if self.quick {
            (n / 8).max(1)
        } else {
            n
        }
    }

    /// Where this run's `BENCH_sim_throughput.json` rows go: the
    /// committed file at the workspace root for full runs, a copy under
    /// `target/` for `--quick` runs (tests and smoke checks), so quick
    /// numbers never replace committed ones.
    #[must_use]
    pub fn bench_rows_path(&self) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if self.quick {
            root.join("target/BENCH_sim_throughput.json")
        } else {
            root.join("BENCH_sim_throughput.json")
        }
    }

    /// `scaled` for `u32` workload knobs.
    #[must_use]
    pub fn scaled32(&self, n: u32) -> u32 {
        self.scaled(u64::from(n)) as u32
    }

    /// Telemetry for a simulation inside experiment `key`: an NDJSON
    /// trace into `trace_dir` when `--trace` was given, otherwise off.
    #[must_use]
    pub fn telemetry_for(&self, key: &str) -> TelemetryConfig {
        match &self.trace_dir {
            Some(dir) => TelemetryConfig::trace_to(dir.join(format!("{key}.ndjson"))),
            None => TelemetryConfig::off(),
        }
    }
}

/// One experiment's output: human-readable body + JSON payload.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment key, e.g. `table1`.
    pub key: &'static str,
    /// Human title, e.g. `Table 1 — Scalability of simple PPM`.
    pub title: String,
    /// Rendered body (tables + commentary).
    pub body: String,
    /// Machine-readable results.
    pub json: Value,
}

impl Report {
    /// Renders the full report section.
    #[must_use]
    pub fn render(&self) -> String {
        let bar = "=".repeat(self.title.len().min(78));
        format!("{}\n{}\n{}\n", self.title, bar, self.body)
    }
}

/// A minimal monospace table renderer.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience for string-literal rows.
    pub fn row_strs(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(ToString::to_string).collect();
        self.row(&owned)
    }

    /// Renders with padded columns.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "| {:width$} ", c, width = widths[i]);
            }
            out.push_str("|\n");
        };
        render_row(&mut out, &self.header);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{}", "-".repeat(w + 2));
            if i == ncols - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Writes `value` as pretty-printed JSON to `path`, creating parent
/// directories as needed. The one results writer every driver shares —
/// the `report` and `scenario` binaries, the soak's repro bundles and
/// the service-load experiment all route through here.
///
/// # Errors
/// I/O or serialisation failures, as human-readable text naming the
/// path.
pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let body = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialise {}: {e}", path.display()))?;
    std::fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Merge-writes rows into a shared bench document (`{"bench": ...,
/// "rows": [...]}`): rows already in `path` for which `mine` is false
/// are preserved, rows for which it is true are replaced by
/// `new_rows`. This lets the criterion throughput bench and the
/// service-load experiment co-own `BENCH_sim_throughput.json` without
/// clobbering each other's rows.
///
/// Every row written is stamped with the host it was measured on:
/// `"cores"` (`available_parallelism`) and `"rev"` (`git rev-parse
/// --short HEAD` in the document's directory, or `"unknown"`).
///
/// # Errors
/// As [`write_json`]; an unreadable or unparseable existing file is
/// treated as absent, not an error.
pub fn merge_bench_rows(
    path: &Path,
    bench: &str,
    mine: &dyn Fn(&Value) -> bool,
    new_rows: Vec<Value>,
) -> Result<(), String> {
    let mut rows: Vec<Value> = Vec::new();
    if let Ok(raw) = std::fs::read_to_string(path) {
        if let Ok(doc) = serde_json::from_str::<Value>(&raw) {
            if let Some(existing) = doc["rows"].as_array() {
                rows.extend(existing.iter().filter(|r| !mine(r)).cloned());
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rev = git_rev(path.parent().filter(|p| !p.as_os_str().is_empty()));
    rows.extend(new_rows.into_iter().map(|row| match row {
        Value::Object(mut m) => {
            m.insert("cores".to_string(), json!(cores as u64));
            m.insert("rev".to_string(), json!(rev.clone()));
            Value::Object(m)
        }
        other => other,
    }));
    write_json(path, &json!({"bench": bench, "rows": rows}))
}

/// `git rev-parse --short HEAD` run in `dir` (the current directory
/// when `None`), or `"unknown"` outside a checkout or without git.
fn git_rev(dir: Option<&Path>) -> String {
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "--short", "HEAD"]);
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Formats a float with sensible precision for tables.
#[must_use]
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// PASS/FAIL marker used when comparing against paper-reported values.
#[must_use]
pub fn check(ok: bool) -> &'static str {
    if ok {
        "match"
    } else {
        "MISMATCH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["a", "long-header"]);
        t.row_strs(&["xxxx", "1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[0].contains("long-header"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn arity_enforced() {
        let mut t = TextTable::new(&["a"]);
        t.row_strs(&["1", "2"]);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1.23456), "1.235");
        assert_eq!(fnum(42.42), "42.4");
        assert_eq!(fnum(12345.6), "12346");
    }

    #[test]
    fn merge_bench_rows_replaces_only_mine() {
        let dir =
            std::env::temp_dir().join(format!("ddpm-merge-rows-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("bench.json");
        let serve = |r: &Value| {
            r["engine"]
                .as_str()
                .is_some_and(|e| e.starts_with("serve"))
        };
        // First write: sim rows only (file does not exist yet).
        write_json(
            &path,
            &serde_json::json!({"bench": "b", "rows": [{"engine": "serial", "pps": 1}]}),
        )
        .unwrap();
        // Serve rows merge in, sim row preserved.
        merge_bench_rows(
            &path,
            "b",
            &serve,
            vec![serde_json::json!({"engine": "serve-4t", "pps": 2})],
        )
        .unwrap();
        // Fresh serve rows replace old serve rows, sim row preserved.
        merge_bench_rows(
            &path,
            "b",
            &serve,
            vec![serde_json::json!({"engine": "serve-8t", "pps": 3})],
        )
        .unwrap();
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let engines: Vec<&str> = doc["rows"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["engine"].as_str().unwrap())
            .collect();
        assert_eq!(engines, ["serial", "serve-8t"]);
        // Written rows carry the host stamp; preserved rows are as read.
        let serve_row = &doc["rows"][1];
        assert!(serve_row["cores"].as_u64().is_some_and(|c| c >= 1), "{serve_row}");
        assert!(serve_row["rev"].as_str().is_some_and(|r| !r.is_empty()), "{serve_row}");
        assert!(doc["rows"][0]["cores"].is_null());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_render_includes_title() {
        let r = Report {
            key: "t",
            title: "T".into(),
            body: "b".into(),
            json: serde_json::json!({}),
        };
        assert!(r.render().contains("T\n=\nb"));
    }
}
