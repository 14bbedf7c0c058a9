//! End-to-end smoke tests for the `sbcast` binary: bad input must exit
//! nonzero with a one-line error on stderr, never a panic backtrace.

use std::process::Command;

fn sbcast(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sbcast"))
        .args(args)
        .output()
        .expect("spawn sbcast")
}

fn assert_clean_failure(out: &std::process::Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected nonzero exit");
    assert!(
        stderr.contains("error:") || stderr.contains("usage:"),
        "stderr should explain the failure, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "bad input must not panic: {stderr}"
    );
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = sbcast(&[]);
    assert_clean_failure(&out);
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = sbcast(&["frobnicate"]);
    assert_clean_failure(&out);
}

#[test]
fn bad_flag_value_fails_cleanly() {
    let out = sbcast(&["plan", "--bandwidth", "not-a-number"]);
    assert_clean_failure(&out);
}

#[test]
fn dangling_flag_fails_cleanly() {
    let out = sbcast(&["metrics", "--bandwidth"]);
    assert_clean_failure(&out);
}

#[test]
fn bad_resilience_config_fails_cleanly() {
    // Loss rate above 1: rejected by up-front validation, not a panic.
    let out = sbcast(&["resilience", "--loss-rates", "1.5", "--samples", "1"]);
    assert_clean_failure(&out);
    // An outage naming a slot the control half does not have.
    let out = sbcast(&["resilience", "--outage-channel", "99", "--samples", "1"]);
    assert_clean_failure(&out);
}

#[test]
fn bad_control_knobs_fail_cleanly() {
    for (flag, value) in [
        ("--half-life", "0"),
        ("--hysteresis", "-1"),
        ("--ceiling", "0"),
    ] {
        let out = sbcast(&["control", "--horizon", "50", "--seeds", "11", flag, value]);
        assert_clean_failure(&out);
    }
}

#[test]
fn unknown_flags_are_rejected_before_anything_runs() {
    // Registry studies (including the retired `--agenda`), both modes of
    // the dual-mode subcommands, and the hand-rolled ones. The offending
    // flag is always the second-to-last argument.
    for args in [
        &["control", "--horizon", "50", "--seeds", "1", "--bogus", "3"][..],
        &[
            "control",
            "--horizon",
            "50",
            "--seeds",
            "1",
            "--agenda",
            "wheel",
        ],
        &["scale", "--sessions", "10", "--agenda", "heap"],
        &["hybrid", "--rates", "1", "--bogus", "1"],
        &["hybrid", "--titles", "4", "--bogus", "1"],
        &[
            "recovery",
            "--mode",
            "sweep",
            "--profile",
            "smoke",
            "--bogus",
            "1",
        ],
        &["recovery", "--sessions", "10", "--bogus", "1"],
        &["plan", "--threads", "2"],
        &["client", "--arrival", "1", "--bogus", "1"],
        &["series", "--k", "4", "--bogus", "1"],
    ] {
        let out = sbcast(args);
        assert_clean_failure(&out);
        let flag = args[args.len() - 2];
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag),
            "{args:?}: stderr must name {flag}, got: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: nothing may run before the flag check"
        );
    }
}

#[test]
fn plan_succeeds_on_defaults() {
    let out = sbcast(&["plan"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("channels"));
}

#[test]
fn every_study_subcommand_rejects_zero_threads_identically() {
    for cmd in [
        "sweep",
        "hybrid",
        "control",
        "resilience",
        "throughput",
        "scale",
        "scenario",
    ] {
        let out = sbcast(&[cmd, "--threads", "0"]);
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: --threads must be at least 1 (got 0)"),
            "`{cmd}` must reject --threads 0 with the shared message, got: {stderr}"
        );
    }
}

#[test]
fn zero_shards_and_unsharded_commands_reject_the_shards_flag() {
    let out = sbcast(&["scale", "--shards", "0"]);
    assert_clean_failure(&out);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error: --shards must be at least 1 (got 0)")
    );
    for cmd in ["sweep", "hybrid", "control", "resilience", "throughput"] {
        let out = sbcast(&[cmd, "--shards", "2"]);
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(
                "--shards applies only to `scale`, `scenario`, `recovery`, `frontier` and \
                 `distribution`"
            ),
            "`{cmd}` must refuse --shards through the shared gate, got: {stderr}"
        );
    }
}

#[test]
fn scenario_rejects_bad_preset_and_profile_cleanly() {
    let out = sbcast(&["scenario", "--preset", "atlantis"]);
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--preset"));
    let out = sbcast(&["scenario", "--profile", "huge"]);
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profile"));
}

#[test]
fn scenario_is_shard_and_thread_invariant() {
    // A deliberately small stream (the binary under test is a debug
    // build): one preset, one scheme, 120 simulated minutes. The full
    // smoke profile runs in release under scripts/verify.sh.
    let dir = std::env::temp_dir().join(format!("sbcast-scenario-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut outs = Vec::new();
    for (shards, threads) in [("1", "1"), ("2", "4"), ("4", "2")] {
        let json = dir.join(format!("scenario-{shards}-{threads}.json"));
        let out = sbcast(&[
            "scenario",
            "--profile",
            "smoke",
            "--preset",
            "urban",
            "--scheme",
            "SB:W=52",
            "--rate",
            "1.5",
            "--horizon",
            "120",
            "--flash-at",
            "40",
            "--outage-start",
            "45",
            "--outage-duration",
            "30",
            "--shards",
            shards,
            "--threads",
            threads,
            "--json",
            json.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "scenario must run at {shards}/{threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outs.push((out.stdout, std::fs::read(&json).unwrap()));
    }
    for (stdout, json) in &outs[1..] {
        assert_eq!(
            &outs[0].0, stdout,
            "stdout must not depend on --shards/--threads"
        );
        assert_eq!(
            &outs[0].1, json,
            "JSON must not depend on --shards/--threads"
        );
    }
    let json = String::from_utf8_lossy(&outs[0].1);
    assert!(json.contains("demand_share"));
    assert!(json.contains("dynamic_report"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scale_is_shard_and_thread_count_invariant() {
    let dir = std::env::temp_dir().join(format!("sbcast-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut outs = Vec::new();
    for (shards, threads) in [("1", "1"), ("2", "4"), ("4", "2")] {
        let json = dir.join(format!("scale-{shards}-{threads}.json"));
        let out = sbcast(&[
            "scale",
            "--sessions",
            "2000",
            "--horizon",
            "200",
            "--shards",
            shards,
            "--threads",
            threads,
            "--json",
            json.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "scale must run at {shards}/{threads}");
        outs.push((out.stdout, std::fs::read(&json).unwrap()));
    }
    for (stdout, json) in &outs[1..] {
        assert_eq!(
            &outs[0].0, stdout,
            "stdout must not depend on --shards/--threads"
        );
        assert_eq!(
            &outs[0].1, json,
            "JSON must not depend on --shards/--threads"
        );
    }
    let json = String::from_utf8_lossy(&outs[0].1);
    assert!(json.contains("shard_peak_agenda"));
    assert!(json.contains("sessions_per_sim_second"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_rejects_bad_configs_with_typed_errors() {
    // A zero checkpoint cadence: caught by RunConfig::validate up front.
    let out = sbcast(&["recovery", "--cadence", "0"]);
    assert_clean_failure(&out);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checkpoint cadence is 0 sessions"),
        "got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A chaos script aimed at a shard the run does not have.
    let out = sbcast(&["recovery", "--shards", "2", "--chaos", "kill:5@ckpt:1"]);
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("chaos script targets shard 5, but the run has only 2 shard(s)"));
    // A malformed chaos spec item, named in the error.
    for (spec, what) in [
        ("corrupt:0@tick:9", "corruption targets checkpoints"),
        ("kill:1", "expected"),
        ("explode:1@tick:5", "unknown op"),
    ] {
        let out = sbcast(&["recovery", "--chaos", spec]);
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad chaos spec item") && stderr.contains(what),
            "spec {spec:?}: got {stderr}"
        );
    }
    // A bad mode.
    let out = sbcast(&["recovery", "--mode", "chaos-monkey"]);
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--mode"));
}

#[test]
fn recovery_under_chaos_matches_the_plain_run_for_every_knob() {
    // The flagship invariant through the CLI: the binary itself verifies
    // supervised-vs-uninterrupted byte identity (it exits nonzero on
    // divergence), and stdout must not depend on how the run executed.
    let mut outs = Vec::new();
    for (shards, threads) in [("1", "1"), ("2", "4"), ("2", "2")] {
        let out = sbcast(&[
            "recovery",
            "--sessions",
            "1000",
            "--horizon",
            "100",
            "--cadence",
            "25",
            "--chaos",
            "kill:0@ckpt:1;corrupt:0@ckpt:2;kill:0@ckpt:2",
            "--shards",
            shards,
            "--threads",
            threads,
        ]);
        assert!(
            out.status.success(),
            "recovery must run at {shards}/{threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(
            stdout.contains("identical to uninterrupted execute: yes"),
            "the binary must verify the invariant, got: {stdout}"
        );
        assert!(stdout.contains("corrupt rejected 1"), "got: {stdout}");
        outs.push(out.stdout);
    }
    // Shard counts change the chaos targets' slices, so only runs with
    // equal --shards must agree byte-for-byte; threads never matter.
    assert_eq!(outs[1], outs[2], "stdout must not depend on --threads");
}

#[test]
fn recovery_degrades_to_an_explicit_partial_run() {
    // Two kills against a one-restart budget: shard 1 is lost, and the
    // CLI reports the marker instead of panicking or silently shrinking.
    let out = sbcast(&[
        "recovery",
        "--sessions",
        "1000",
        "--horizon",
        "100",
        "--cadence",
        "25",
        "--shards",
        "2",
        "--chaos",
        "kill:1@ckpt:1;kill:1@ckpt:2",
        "--retry",
        "1",
        "--retry-attempts",
        "1",
    ]);
    assert!(
        out.status.success(),
        "a partial run is a graceful outcome: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PARTIAL RUN: 1 shard(s) lost"), "{stdout}");
    assert!(
        stdout.contains("shard 1: lost after 1 attempt(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("killed"), "{stdout}");
}

#[test]
fn throughput_writes_json_and_is_thread_count_invariant() {
    let dir = std::env::temp_dir().join(format!("sbcast-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut outs = Vec::new();
    for threads in ["1", "2"] {
        let json = dir.join(format!("thr-{threads}.json"));
        let out = sbcast(&[
            "throughput",
            "--samples",
            "20",
            "--threads",
            threads,
            "--json",
            json.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "throughput must run");
        outs.push((out.stdout, std::fs::read(&json).unwrap()));
    }
    assert_eq!(outs[0].0, outs[1].0, "stdout must not depend on --threads");
    assert_eq!(outs[0].1, outs[1].1, "JSON must not depend on --threads");
    let json = String::from_utf8_lossy(&outs[0].1);
    assert!(json.contains("peak_agenda"));
    assert!(json.contains("churn"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_study_writes_its_default_json_into_the_working_directory() {
    // No --json: the study writes the registry's default artifact name
    // into the directory it runs in.
    let dir = std::env::temp_dir().join(format!("sbcast-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_sbcast"))
        .args(["frontier", "--profile", "smoke"])
        .current_dir(&dir)
        .output()
        .expect("spawn sbcast");
    assert!(
        out.status.success(),
        "frontier must run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let artifact = dir.join("BENCH_frontier.json");
    let json = std::fs::read_to_string(&artifact).expect("default artifact written");
    assert!(json.contains("\"cells\""), "{json}");
    assert!(json.contains("\"on_frontier_analytic\""), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}
