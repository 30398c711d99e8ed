//! Drives the real `spade-cli` binary: every user-input error path must
//! exit nonzero with a message on stderr, and must never reach the user as
//! a panic. A healthy invocation must exit zero.

use std::process::{Command, Output};

fn spade_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spade-cli"))
        .args(args)
        .output()
        .expect("failed to spawn spade-cli")
}

/// Asserts the invocation failed cleanly: nonzero exit, an `error:` line
/// on stderr, and no panic trace anywhere.
fn assert_clean_failure(args: &[&str]) {
    let out = spade_cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "expected failure for {args:?}, got exit 0\nstdout: {stdout}"
    );
    assert!(
        stderr.contains("error:"),
        "no error message for {args:?}\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stdout.contains("panicked"),
        "panic leaked to the user for {args:?}\nstderr: {stderr}"
    );
}

#[test]
fn no_subcommand_fails_cleanly() {
    assert_clean_failure(&[]);
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    assert_clean_failure(&["frobnicate"]);
}

#[test]
fn unknown_benchmark_fails_cleanly() {
    assert_clean_failure(&["run", "--benchmark", "nope", "--pes", "4"]);
}

#[test]
fn missing_flag_value_fails_cleanly() {
    assert_clean_failure(&["run", "--benchmark"]);
}

#[test]
fn unparseable_numbers_fail_cleanly() {
    assert_clean_failure(&["run", "--benchmark", "myc", "--pes", "abc"]);
    assert_clean_failure(&["run", "--benchmark", "myc", "--pes", "4", "--k", "-1"]);
}

#[test]
fn zero_panel_sizes_fail_cleanly() {
    assert_clean_failure(&["run", "--benchmark", "myc", "--pes", "4", "--rp", "0"]);
    assert_clean_failure(&["run", "--benchmark", "myc", "--pes", "4", "--cp", "0"]);
}

#[test]
fn invalid_k_fails_cleanly() {
    // K must fill whole cache lines.
    assert_clean_failure(&["run", "--benchmark", "myc", "--pes", "4", "--k", "7"]);
}

#[test]
fn missing_matrix_file_fails_cleanly() {
    assert_clean_failure(&["mm", "--file", "/nonexistent/matrix.mtx", "--pes", "4"]);
}

#[test]
fn malformed_matrix_file_fails_cleanly() {
    let path = std::env::temp_dir().join("spade_cli_malformed.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1\n",
    )
    .unwrap();
    assert_clean_failure(&["mm", "--file", path.to_str().unwrap(), "--pes", "4"]);
    let _ = std::fs::remove_file(path);
}

#[test]
fn dataset_export_of_a_missing_cache_dir_fails_and_creates_nothing() {
    let dir = std::env::temp_dir().join(format!("spade_cli_no_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let missing = dir.join("nested");
    assert_clean_failure(&[
        "dataset",
        "export",
        "--cache-dir",
        missing.to_str().unwrap(),
    ]);
    assert!(!dir.exists(), "export created {}", dir.display());
}

#[test]
fn healthy_run_exits_zero() {
    let out = spade_cli(&["run", "--benchmark", "myc", "--pes", "4", "--k", "16"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cycles"), "stdout: {stdout}");
}
