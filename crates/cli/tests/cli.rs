//! End-to-end tests of the `vmqsctl` binary (spawned as a real process).

use std::process::Command;

fn vmqsctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vmqsctl"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vmqsctl_{}_{name}", std::process::id()))
}

#[test]
fn help_prints_usage() {
    let out = vmqsctl().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vmqsctl render"));
    assert!(text.contains("vmqsctl simulate"));
}

#[test]
fn no_args_prints_usage() {
    let out = vmqsctl().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = vmqsctl().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn render_writes_valid_ppm() {
    let path = tmp("render.ppm");
    let out = vmqsctl()
        .args([
            "render", "--x", "64", "--y", "64", "--w", "256", "--h", "256", "--zoom", "2", "--op",
            "average", "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(b"P6\n128 128\n255\n"));
    assert_eq!(bytes.len(), 15 + 128 * 128 * 3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn mip_writes_valid_pgm() {
    let path = tmp("proj.pgm");
    let out = vmqsctl()
        .args([
            "mip", "--w", "64", "--h", "64", "--z0", "0", "--z1", "32", "--lod", "2", "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(b"P5\n32 32\n255\n"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_prints_csv_summary() {
    let out = vmqsctl()
        .args([
            "simulate",
            "--strategy",
            "SJF",
            "--op",
            "average",
            "--threads",
            "2",
            "--ds-mb",
            "32",
            "--seed",
            "7",
            "--batch",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("strategy,op,threads,ds_mb"));
    assert!(text.contains("SJF,average,2,32"));
    assert!(text.contains("queries:          256"));
}

#[test]
fn simulate_rejects_bad_strategy() {
    let out = vmqsctl()
        .args(["simulate", "--strategy", "BOGUS"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));
}

#[test]
fn render_rejects_bad_zoom() {
    let out = vmqsctl()
        .args(["render", "--zoom", "banana"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid value"));
}

#[test]
fn simulate_trace_out_writes_event_json() {
    let path = tmp("sim-trace.json");
    let out = vmqsctl()
        .args([
            "simulate",
            "--strategy",
            "CNBF",
            "--threads",
            "2",
            "--seed",
            "5",
            "--trace-out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    // 256 queries: at least submitted+ranked+completed each.
    assert!(text.lines().count() > 3 * 256);
    for event in ["submitted", "ranked", "completed"] {
        let needle = format!("\"event\": \"{event}\"");
        assert_eq!(text.matches(&needle).count(), 256, "{event}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn render_with_fault_injection_recovers_and_reports() {
    let path = tmp("faulty.ppm");
    let out = vmqsctl()
        .args([
            "render",
            "--w",
            "256",
            "--h",
            "256",
            "--fault-rate",
            "0.2",
            "--fault-seed",
            "7",
            "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("io faults:"),
        "fault counters missing:\n{text}"
    );
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(b"P6\n256 256\n255\n"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn render_zero_timeout_fails_with_timeout_error() {
    let path = tmp("timeout.ppm");
    let out = vmqsctl()
        .args([
            "render",
            "--w",
            "128",
            "--h",
            "128",
            "--query-timeout-ms",
            "0",
            "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success(), "zero deadline must fail the render");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("timed out"), "stderr:\n{err}");
    assert!(!path.exists(), "no output file may be written on timeout");
}

#[test]
fn render_rejects_out_of_range_fault_rate() {
    let out = vmqsctl()
        .args(["render", "--fault-rate", "1.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--fault-rate"));
}

#[test]
fn simulate_with_overload_sheds_and_reports() {
    let out = vmqsctl()
        .args([
            "simulate",
            "--threads",
            "2",
            "--seed",
            "7",
            "--batch",
            "--max-pending",
            "16",
            "--degrade-threshold",
            "0.5",
            "--shed-threshold",
            "0.9",
            "--op",
            "average",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("overload:"),
        "overload summary missing:\n{text}"
    );
    // 256 queries against a 16-deep queue must trip the shedder.
    let line = text.lines().find(|l| l.contains("overload:")).unwrap();
    assert!(!line.contains(" 0 shed"), "expected shedding: {line}");
}

#[test]
fn overload_thresholds_require_max_pending() {
    let out = vmqsctl()
        .args(["simulate", "--shed-threshold", "0.9"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-pending"));
}

#[test]
fn render_with_rate_limit_of_one_query_succeeds() {
    // A single render fits any burst; the flag must parse and the summary
    // line must appear.
    let path = tmp("rate.ppm");
    let out = vmqsctl()
        .args([
            "render",
            "--w",
            "128",
            "--h",
            "128",
            "--client-rate",
            "1.0",
            "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("overload: 0 rejected, 0 shed, 0 degraded"),
        "overload summary missing:\n{text}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_with_faults_charges_retries() {
    let out = vmqsctl()
        .args([
            "simulate",
            "--threads",
            "2",
            "--seed",
            "7",
            "--batch",
            "--fault-rate",
            "0.2",
            "--fault-seed",
            "9",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("io faults:") && text.contains("retries charged"),
        "fault summary missing:\n{text}"
    );
}

/// Runs `vmqsctl` expecting a typed refusal: exit code 1, an `error:`
/// line containing `needle`, and no panic.
fn assert_refused(args: &[&str], needle: &str) {
    let out = vmqsctl().args(args).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(err.contains("error:") && err.contains(needle), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn simulate_rejects_zero_threads() {
    assert_refused(
        &["simulate", "--batch", "--threads", "0"],
        "invalid value '0' for --threads",
    );
}

/// A size in MB whose byte count overflows `u64` is refused by name, not
/// shifted into some other budget.
#[test]
fn simulate_rejects_megabyte_counts_that_overflow() {
    const HUGE: &str = "17592186044416"; // 2^44 MB = 2^64 bytes
    for flag in ["--ds-mb", "--ps-mb", "--tier2-budget"] {
        assert_refused(
            &["simulate", "--batch", "--threads", "2", flag, HUGE],
            &format!("invalid value '{HUGE}' for {flag}"),
        );
    }
}

/// The two eviction policies EXPERIMENTS.md X4 retired are refused with
/// the choices that remain.
#[test]
fn simulate_rejects_retired_cache_policies() {
    for policy in ["mru", "largest"] {
        assert_refused(
            &["simulate", "--batch", "--cache-policy", policy],
            "lru|cost",
        );
    }
}

#[test]
fn render_rejects_zero_zoom() {
    let path = tmp("zoom0.ppm");
    assert_refused(
        &[
            "render",
            "--w",
            "64",
            "--h",
            "64",
            "--zoom",
            "0",
            "--out",
            path.to_str().unwrap(),
        ],
        "invalid value '0' for --zoom",
    );
    assert!(!path.exists(), "a refused render writes nothing");
}

#[test]
fn misspelt_options_are_rejected_by_name() {
    assert_refused(
        &["simulate", "--batch", "--thraeds", "2"],
        "unknown option --thraeds",
    );
    assert_refused(&["render", "--grfat"], "unknown option --grfat");
    assert_refused(&["mip", "--zoom", "2"], "unknown option --zoom");
    assert_refused(&["demo", "--fast"], "unknown option --fast");
    // A valued option with its value missing is not a silent default.
    assert_refused(&["simulate", "--threads"], "option --threads needs a value");
}
