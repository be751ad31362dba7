//! Benchmark-harness support: where experiment results are persisted.
//!
//! `all_figures` regenerates every table/figure of the paper through the
//! parallel runner and writes each result's machine-readable JSON into
//! [`results_dir`]; `cllm figures NAME` runs a single experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cllm_core::experiments::ExperimentResult;
use std::path::PathBuf;

/// Write one result's JSON to `<results_dir>/<id>.json`, reporting the
/// chosen path on stdout.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, full disk, ...).
pub fn persist(result: &ExperimentResult) -> std::io::Result<()> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.json", result.id));
    let json = serde_json::to_string_pretty(result.to_json())?;
    std::fs::write(&path, json)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Directory results JSON is written to: the `CLLM_RESULTS_DIR`
/// environment variable when set and non-empty, else `results/` at the
/// repository root.
#[must_use]
pub fn results_dir() -> PathBuf {
    match std::env::var_os("CLLM_RESULTS_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("results"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn results_dir_points_into_repo() {
        // Note: no parallel test in this crate may set CLLM_RESULTS_DIR.
        let d = super::results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn results_dir_honors_env_override() {
        // The override also ends in "results" so the concurrent default
        // test above stays true during this test's window.
        let alt = std::path::Path::new("/tmp/cllm-alt/results");
        std::env::set_var("CLLM_RESULTS_DIR", alt);
        assert_eq!(super::results_dir(), alt);
        // Empty override falls back to the repository default.
        std::env::set_var("CLLM_RESULTS_DIR", "");
        assert!(super::results_dir().to_string_lossy().contains("crates"));
        std::env::remove_var("CLLM_RESULTS_DIR");
        assert!(super::results_dir().ends_with("results"));
    }
}
