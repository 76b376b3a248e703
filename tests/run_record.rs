//! The run record's contract: every record kind keeps its schema, the same
//! seed gives the same journal, and the one diff is the regression gate.

use std::process::Command;

use pod_diagnosis::eval::{
    campaign_lines, collect_streams, diff_journals, recovery_lines, recovery_soak_lines,
    render_journal, replay_with_recovery, soak_lines, wall_line, Campaign, CampaignConfig,
    SoakConfig,
};
use pod_diagnosis::gateway::GatewayConfig;
use pod_diagnosis::log::Json;
use pod_diagnosis::recovery::StormConfig;

/// Every record kind with its ordered fields after `record` and `run`,
/// as `kind: fields…` entries;
/// `?` marks a field a record may omit. Renaming, dropping or reordering a
/// field — or emitting a kind not listed here — fails Tier-1.
const SCHEMA: &str = "
metrics: label runs faults_detected faults_missed false_positives interference_detections
  precision recall diagnosis_accuracy accuracy_rate
counter: name value
gauge: name value
histogram: name count sum min? max? mean? p50? p95? p99?
exemplar: name value at_us event? labels?
incident: detection detection_event hops anchored diagnosed complete elapsed_us root_causes?
latency-budget: fault runs stages
recovery: attempted recovered escalated conformance_fit success_rate? escalation_rate?
  mttr_count? mttr_mean_us? mttr_p50_us? mttr_p95_us? mttr_max_us?
  phase_detection_p50_us? phase_detection_p95_us? phase_diagnosis_p50_us? phase_diagnosis_p95_us?
  phase_staging_p50_us? phase_staging_p95_us? phase_repair_p50_us? phase_repair_p95_us?
  phase_verification_p50_us? phase_verification_p95_us?
recovery-fault: fault attempted recovered escalated conformance_fit success_rate? escalation_rate?
  mttr_count? mttr_mean_us? mttr_p50_us? mttr_p95_us? mttr_max_us?
soak: ops lines_total leaks detections_total
gateway: lines_submitted lines_processed lines_per_sec_virtual virtual_elapsed_us shed_oldest
  shed_newest blocked deferred admission_denied batches parse shards
telemetry: mode kept_traces discarded_traces incidents flight_frames flight_incidents
flight: evicted_frames dropped_incidents frames incidents
recovery-storm: tenants lanes throttle_at attempted recovered escalated deferred_swept throttled
  requests admitted deferred swept peak_concurrent none_dropped success_rate?
  mttr_count? mttr_mean_us? mttr_p50_us? mttr_p95_us? mttr_max_us?
recovery-tenant: trace_id fault? attempted recovered escalated deferred_swept throttled
  mttr_p50_us? mttr_p95_us?
wall: wall_secs lines_per_sec_wall?
";

/// The schema as `(kind, fields)` entries: a token ending in `:` opens one.
fn schema() -> Vec<(&'static str, Vec<&'static str>)> {
    let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
    for token in SCHEMA.split_whitespace() {
        match token.strip_suffix(':') {
            Some(kind) => entries.push((kind, Vec::new())),
            None => entries.last_mut().expect("a kind first").1.push(token),
        }
    }
    entries
}

/// A 1 × 8 campaign with the recovery stage on, as every record kind the
/// campaign side can emit.
fn campaign_journal() -> String {
    let report = Campaign::new(CampaignConfig {
        runs_per_fault: 1,
        seed: 2014,
        recovery: true,
        ..CampaignConfig::default()
    })
    .run();
    let mut lines = campaign_lines("campaign", &report);
    lines.extend(recovery_lines("campaign", &report.recovery));
    render_journal(&lines)
}

/// An 8-tenant soak with the recovery storm wired in, as every record
/// kind the soak side can emit — the wall-clock reading included.
fn soak_journal() -> String {
    let config = SoakConfig {
        ops: 8,
        seed: 2014,
        ..SoakConfig::default()
    };
    let gateway = GatewayConfig::default();
    let started = std::time::Instant::now();
    let report = replay_with_recovery(&collect_streams(&config), &gateway, StormConfig::default());
    let rec = report.recovery.as_ref().expect("the recovery stage ran");
    let mut lines = soak_lines("soak", &report);
    lines.extend(recovery_soak_lines("soak", rec));
    lines.push(wall_line(
        "soak",
        started.elapsed().as_secs_f64(),
        report.stats.lines_processed,
    ));
    render_journal(&lines)
}

/// Checks one journal line against [`SCHEMA`]; returns its record kind.
fn check_schema(line: &str) -> String {
    let Json::Object(fields) = Json::parse(line).expect(line) else {
        panic!("not an object: {line}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys[..2], ["record", "run"], "{line}");
    let kind = fields[0].1.as_str().expect(line);
    let schema = schema();
    let golden = schema.iter().find(|(k, _)| *k == kind);
    let (_, golden) = golden.unwrap_or_else(|| panic!("unlisted record kind: {line}"));
    let mut emitted = keys[2..].iter().peekable();
    for field in golden {
        let name = field.trim_end_matches('?');
        if emitted.next_if(|k| **k == name).is_none() {
            assert!(field.ends_with('?'), "{kind}: `{name}` missing in {keys:?}");
        }
    }
    assert_eq!(emitted.next(), None, "{kind}: unlisted or misplaced field");
    kind.to_string()
}

#[test]
fn every_record_kind_keeps_its_schema() {
    let schema = schema();
    let journal = campaign_journal() + &soak_journal();
    let seen: std::collections::BTreeSet<String> = journal.lines().map(check_schema).collect();
    let missing: Vec<_> = schema.iter().filter(|(k, _)| !seen.contains(*k)).collect();
    assert!(missing.is_empty(), "kinds never emitted: {missing:?}");
}

#[test]
fn same_seed_gives_the_same_journal_once_wall_records_are_dropped() {
    let deterministic = |journal: String| -> String {
        let kept = journal
            .lines()
            .filter(|l| !l.contains(r#""record":"wall""#));
        kept.flat_map(|l| [l, "\n"]).collect()
    };
    for driver in [campaign_journal, soak_journal] {
        let (first, second) = (deterministic(driver()), deterministic(driver()));
        assert!(first == second, "same seed, different journal bytes");
        let diff = diff_journals(&first, &second).expect("both parse");
        let same = diff.moved().is_empty() && diff.one_sided().iter().all(Vec::is_empty);
        assert!(same, "{}", diff.render());
    }
}

const BASELINE: &str = include_str!("../BENCH_recovery.baseline.json");
const GATED: &str = r#""mttr_p50_us":13092480,"#;

/// Runs `pod-diagnosis diff OLD NEW [--gate recovery.mttr_p50_us]` on the
/// two journal texts; returns the exit code and stdout.
fn diff_cli(case: &str, old: &str, new: &str, gate: bool) -> (i32, String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = |side: &str, text: &str| {
        let path = dir.join(format!(
            "run_record_{}_{case}_{side}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, text).expect("write journal");
        path
    };
    let (old, new) = (file("old", old), file("new", new));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pod-diagnosis"));
    cmd.arg("diff").arg(&old).arg(&new);
    if gate {
        cmd.args(["--gate", "recovery.mttr_p50_us"]);
    }
    let out = cmd.output().expect("run pod-diagnosis");
    for path in [old, new] {
        let _ = std::fs::remove_file(path);
    }
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    (out.status.code().expect("exit code"), stdout)
}

#[test]
fn the_gate_is_the_diff_and_never_passes_vacuously() {
    assert!(BASELINE.contains(GATED), "the committed baseline moved");

    let (code, report) = diff_cli("same", BASELINE, BASELINE, true);
    assert_eq!(code, 0, "{report}");
    assert!(report.contains("0 fields moved, 0 records only in old, 0 only in new"));

    // 1.2x the committed p50 breaches the 1.1x bound; 1.05x only shows up.
    let slower = BASELINE.replacen(GATED, r#""mttr_p50_us":15710976,"#, 1);
    let (code, report) = diff_cli("slower", BASELINE, &slower, true);
    assert_eq!(code, 1, "{report}");
    assert!(
        report.contains("mttr_p50_us 13092480 -> 15710976"),
        "{report}"
    );
    assert!(
        report.contains("REGRESSION: recovery run=recovery-loop"),
        "{report}"
    );
    assert_eq!(diff_cli("ungated", BASELINE, &slower, false).0, 0);
    let slightly = BASELINE.replacen(GATED, r#""mttr_p50_us":13747104,"#, 1);
    assert_eq!(diff_cli("slightly", BASELINE, &slightly, true).0, 0);

    // A run that recovered nothing omits mttr_*: that fails, not passes.
    let nothing_recovered = BASELINE.replacen(GATED, "", 1);
    let (code, report) = diff_cli("vacuous", BASELINE, &nothing_recovered, true);
    assert_eq!(code, 1, "{report}");
    assert!(
        report.contains("mttr_p50_us missing from the new journal"),
        "{report}"
    );
    // …and so does a baseline that has nothing to gate on.
    assert_eq!(
        diff_cli("ungateable", &nothing_recovered, BASELINE, true).0,
        1
    );
}

#[test]
fn a_truncated_journal_is_an_error_with_its_line_number() {
    let cut = BASELINE.find("recovery-fault").expect("a second line") + 40;
    let truncated = &BASELINE[..cut];
    let err = diff_journals(truncated, BASELINE).expect_err("line 2 is cut mid-record");
    assert_eq!((err.journal, err.line), ("old", 2));
    assert!(err
        .to_string()
        .starts_with("old journal, line 2: JSON error at byte"));
    let err = diff_journals(BASELINE, "{\"run\":\"r\"}\n").expect_err("no `record` key");
    assert_eq!((err.journal, err.line), ("new", 1));

    let (code, report) = diff_cli("truncated", truncated, BASELINE, true);
    assert_eq!(code, 2, "{report}");
    assert!(report.contains("old journal, line 2"), "{report}");
}

/// Runs `pod-diagnosis ARGS…` in a scratch directory of its own; returns the
/// exit code, stdout and the files the run left there, by name.
fn cli(case: &str, args: &[&str]) -> (i32, String, Vec<(String, String)>) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli_{}_{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_pod-diagnosis"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run pod-diagnosis");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("list scratch directory")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let text = std::fs::read_to_string(entry.path()).expect("utf-8 artifact");
            (entry.file_name().to_string_lossy().into_owned(), text)
        })
        .collect();
    files.sort();
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    (out.status.code().expect("exit code"), stdout, files)
}

/// `pod-diagnosis diff BASELINE fresh --gate FIELD`, the one gate, on a
/// record a run just left: its exit code and report.
fn gate(baseline: &str, fresh: &str, field: &str) -> (i32, String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fresh_{}_{field}.jsonl", std::process::id()));
    std::fs::write(&path, fresh).expect("scratch record");
    let baseline = format!("{}/{baseline}", env!("CARGO_MANIFEST_DIR"));
    let args = ["diff", &baseline, path.to_str().unwrap(), "--gate", field];
    let (code, report, _) = cli("gate", &args);
    let _ = std::fs::remove_file(&path);
    (code, report)
}

#[test]
fn the_campaign_cli_reproduces_the_committed_recovery_record_and_gates_on_it() {
    let (code, _, files) = cli("recovery", &["campaign", "3", "--recovery", "--json"]);
    assert_eq!(code, 0);
    let expected = ("RUN_recovery-loop.jsonl".to_string(), BASELINE.to_string());
    assert!(
        files == [expected],
        "one record, byte-equal to the baseline"
    );
    let (code, report) = gate(
        "BENCH_recovery.baseline.json",
        &files[0].1,
        "recovery.mttr_p50_us",
    );
    assert_eq!(
        code, 0,
        "the gate passes against its own baseline: {report}"
    );
}

/// Table I and the campaign's other records at seed 2014, 20 runs per
/// fault: what `campaign --json` must reproduce field for field.
const TABLE_I: &str = include_str!("../BENCH_campaign.baseline.json");

#[test]
fn the_campaign_cli_reproduces_the_committed_table_i_record() {
    let (code, _, files) = cli("table-i", &["campaign", "--json"]);
    assert_eq!(code, 0);
    let (name, fresh) = &files[0];
    assert_eq!(name, "RUN_campaign.jsonl");
    let (code, report) = diff_cli("table-i", TABLE_I, fresh, false);
    assert_eq!(code, 0, "{report}");
    let same = "0 fields moved, 0 records only in old, 0 only in new";
    assert!(
        report.lines().any(|l| l == same),
        "Table I moved:\n{report}"
    );
}

#[test]
fn the_campaign_cli_leaves_one_run_record_and_one_viewer_trace() {
    let (code, _, files) = cli("json", &["campaign", "1", "--json"]);
    assert_eq!(code, 0);
    let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
    let expected = ["RUN_campaign.jsonl", "TRACE_campaign.json"];
    assert_eq!(names, expected);
    for line in files[0].1.lines() {
        Json::parse(line).expect("every journal line is one JSON record");
    }
    Json::parse(&files[1].1).expect("the viewer trace parses");
}

#[test]
fn the_soak_and_timeline_subcommands_leave_exactly_their_run_record() {
    let storm = "RUN_recovery-soak.jsonl";
    for (args, record, gated) in [
        (
            &["soak", "8", "--json"][..],
            "RUN_gateway-soak.jsonl",
            false,
        ),
        (&["soak", "8", "--recovery", "--json"], storm, false),
        (&["soak", "64", "--recovery", "--json"], storm, true),
        (&["timeline", "--json"], "RUN_incidents.jsonl", false),
    ] {
        let (code, _, files) = cli("records", args);
        assert_eq!(code, 0, "{args:?}");
        let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, [record], "{args:?}");
        assert!(files[0].1.lines().map(check_schema).count() > 0, "{args:?}");
        if gated {
            // The gate passes against its own committed record.
            let field = "recovery-storm.mttr_p50_us";
            let (code, report) = gate("BENCH_recovery_soak.baseline.json", &files[0].1, field);
            assert_eq!(code, 0, "{report}");
            let same = "\n0 fields moved, 0 records only in old";
            assert!(report.contains(same), "{report}");
        }
    }
}

#[test]
fn the_cli_rejects_arguments_it_cannot_use() {
    for args in [
        &["campaign", "abc"][..],
        &["campaign", "--jsno"],
        &["campaign", "1", "2", "3"],
        &["campaign", "0"], // zero runs: nothing to evaluate
        &["soak", "abc"],
        &["soak", "--policy", "bogus"],
        &["soak", "8", "--baseline", "X"], // gone: `diff --gate` is the gate
        &["soak", "8", "9"],
        &["soak", "0"], // zero operations: nothing to replay
        &["soak", "0", "--recovery"],
        &["timeline", "extra"],
        &["timeline", "--jsno"],
        &["discover", "0"], // zero runs: nothing to mine
        &["monitor", "7", "99"],
    ] {
        let (code, _, files) = cli("usage", args);
        assert_eq!(code, 2, "{args:?} is a usage error");
        assert!(files.is_empty(), "{args:?} ran anyway");
    }
}
