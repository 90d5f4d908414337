//! End-to-end tests of the `vmqsctl` binary (spawned as a real process).

use std::process::Command;

fn vmqsctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vmqsctl"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vmqsctl_{}_{name}", std::process::id()))
}

/// Runs `vmqsctl simulate` with `args`, requiring success, and returns
/// its stdout.
fn simulate(args: &[&str]) -> String {
    let out = vmqsctl().arg("simulate").args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The numbers on the line of `text` that starts with `label`.
fn counts(text: &str, label: &str) -> Vec<u64> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(label))
        .unwrap_or_else(|| panic!("no {label:?} line in:\n{text}"));
    line.split(|c: char| !c.is_ascii_digit())
        .filter(|w| !w.is_empty())
        .map(|w| w.parse().unwrap())
        .collect()
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
    let text = simulate(&[
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
    ]);
    assert!(text.contains("strategy,op,threads,ds_mb"));
    assert!(text.contains("SJF,average,2,32"));
    assert!(text.contains("queries:          256"));
}

#[test]
fn simulate_rejects_bad_strategy() {
    for name in ["BOGUS", "CHUNKBATCH"] {
        let out = vmqsctl()
            .args(["simulate", "--strategy", name])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{name}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown strategy"),
            "{name}"
        );
    }
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
    simulate(&[
        "--strategy",
        "CNBF",
        "--threads",
        "2",
        "--seed",
        "5",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_flat_json_array(&text);
    // 256 queries: at least submitted+ranked+completed each.
    assert!(text.lines().count() > 3 * 256);
    for event in ["submitted", "ranked", "completed"] {
        let needle = format!("\"event\": \"{event}\"");
        assert_eq!(text.matches(&needle).count(), 256, "{event}");
    }
    std::fs::remove_file(&path).ok();
}

/// Checks that `text` is valid JSON of the one shape the event exporter
/// writes: an array of flat objects, one per line, whose values are
/// strings, booleans or finite numbers.
fn assert_flat_json_array(text: &str) {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!((lines[0], lines[lines.len() - 1]), ("[", "]"));
    let objects = &lines[1..lines.len() - 1];
    for (i, line) in objects.iter().enumerate() {
        let sep = if i + 1 == objects.len() { "" } else { "," };
        let fields = line
            .strip_prefix("  {")
            .and_then(|l| l.strip_suffix(sep))
            .and_then(|l| l.strip_suffix('}'))
            .unwrap_or_else(|| panic!("line {}: {line}", i + 2));
        for field in fields.split(", ") {
            let quoted = |s: &str| s.len() >= 2 && s.starts_with('"') && s.ends_with('"');
            let (key, value) = field.split_once(": ").unwrap();
            let number = value.parse::<f64>().is_ok_and(f64::is_finite);
            let valid = quoted(value) || number || value == "true" || value == "false";
            assert!(quoted(key) && valid, "line {}: {field}", i + 2);
        }
    }
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
    let text = simulate(&[
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
    ]);
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
    let text = simulate(&[
        "--threads",
        "2",
        "--seed",
        "7",
        "--batch",
        "--fault-rate",
        "0.2",
        "--fault-seed",
        "9",
    ]);
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
    assert_refused(
        &["simulate", "--starvation-dial", "0.1"],
        "unknown option --starvation-dial",
    );
    // A valued option with its value missing is not a silent default.
    assert_refused(&["simulate", "--threads"], "option --threads needs a value");
}

/// Options with nothing to act on are refused, not ignored: the
/// simulator's tier 2 has no directory, and the spill-write crash and
/// frame bit-flip kill-points fire only inside a frame write, which no
/// single `vmqsctl` query makes.
#[test]
fn options_that_cannot_act_are_refused() {
    assert_refused(
        &["simulate", "--batch", "--spill-dir", "sp"],
        "unknown option --spill-dir",
    );
    for flag in ["--chaos-crash-spill-at", "--chaos-flip-frame-at"] {
        for cmd in ["render", "simulate"] {
            assert_refused(&[cmd, flag, "0"], &format!("unknown option {flag}"));
        }
    }
}

#[test]
fn simulate_metrics_out_counts_the_charged_retries() {
    let path = tmp("sim-fault-metrics.prom");
    let text = simulate(&[
        "--batch",
        "--threads",
        "2",
        "--fault-rate",
        "0.1",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    let metrics = std::fs::read_to_string(&path).unwrap();
    // injected, retries charged
    let charged = counts(&text, "io faults:");
    assert!(charged[0] > 0 && charged[0] == charged[1], "{text}");
    let exported = |name| counts(&metrics, name);
    assert_eq!(exported("vmqs_ps_read_faults_total "), [charged[0]]);
    assert_eq!(exported("vmqs_ps_read_retries_total "), [charged[1]]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_with_graft_reports_grafted_answers() {
    let text = simulate(&["--batch", "--threads", "4", "--strategy", "CNBF", "--graft"]);
    let grafted = counts(&text, "grafted answers:");
    assert!(
        grafted[0] > 0,
        "four workers on the paper batch graft: {text}"
    );
}

#[test]
fn simulate_with_tier2_budget_reports_spills() {
    let text = simulate(&[
        "--batch",
        "--threads",
        "4",
        "--cache-policy",
        "cost",
        "--tier2-budget",
        "4",
    ]);
    // spilled, restored, restore failures
    let tier2 = counts(&text, "tier 2:");
    assert!(tier2[0] > 0, "a 64 MB cost-based store spills: {text}");
}

#[test]
fn simulate_with_poison_queries_reports_containment() {
    let text = simulate(&[
        "--batch",
        "--threads",
        "2",
        "--chaos-poison-rate",
        "0.2",
        "--quarantine-limit",
        "2",
    ]);
    // worker panics, restarts, quarantined, hung, failed
    let contained = counts(&text, "containment:");
    assert!(contained[0] > 0, "poison queries panic workers: {text}");
    assert!(contained[2] > 0, "poison queries are quarantined: {text}");
}

#[test]
fn simulate_metrics_out_counts_every_completed_query() {
    let path = tmp("sim-metrics.prom");
    let text = simulate(&[
        "--strategy",
        "CNBF",
        "--batch",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    let metrics = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        counts(&metrics, "vmqs_queries_completed_total "),
        counts(&text, "queries:"),
        "{metrics}"
    );
    assert_eq!(counts(&text, "queries:"), [256]);
    std::fs::remove_file(&path).ok();
}
