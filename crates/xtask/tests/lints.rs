//! Integration tests for the lint engine: the adversarial fixture corpus
//! under `fixtures/`, the workspace graph rules (R008–R011) over the
//! injected `fixtures/graph/` corpus, the `--fix` round trip, the
//! self-check that the repository lints clean, and the `cargo xtask lint`
//! CLI contract (exit codes, `--format` handling, JSON and SARIF shape).

use catalyze_check::Diagnostic;
use std::path::{Path, PathBuf};
use std::process::Command;
use xtask::graph::WorkspaceFile;
use xtask::lexer::tokenize;
use xtask::rules::layering::LayeringPolicy;
use xtask::{lint_source, FileRole};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf()
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    lint_source(&format!("fixtures/{name}"), &fixture(name), FileRole::Library)
}

#[test]
fn lexer_is_lossless_on_every_fixture() {
    for name in ["clean_tricky.rs", "test_exempt.rs", "findings.rs"] {
        let src = fixture(name);
        let rebuilt: String = tokenize(&src).iter().map(|t| t.text(&src)).collect();
        assert_eq!(rebuilt, src, "{name}: concatenated tokens must reproduce the source");
    }
}

#[test]
fn lexer_is_lossless_on_the_engine_itself() {
    // The engine's own sources are a convenient corpus of real-world Rust.
    for entry in std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("src")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).unwrap();
            let rebuilt: String = tokenize(&src).iter().map(|t| t.text(&src)).collect();
            assert_eq!(rebuilt, src, "{}", path.display());
        }
    }
}

#[test]
fn tricky_clean_fixture_produces_zero_findings() {
    let diags = lint_fixture("clean_tricky.rs");
    assert!(
        diags.is_empty(),
        "raw strings / comments / suffixed ints must not trip any rule:\n{:#?}",
        diags.iter().map(|d| format!("{} {}", d.rule, d.location)).collect::<Vec<_>>()
    );
}

#[test]
fn test_items_are_exempt_anywhere_in_the_file() {
    let diags = lint_fixture("test_exempt.rs");
    assert!(
        diags.is_empty(),
        "findings inside #[test]/#[cfg(test)] items must be masked:\n{:#?}",
        diags.iter().map(|d| format!("{} {}", d.rule, d.location)).collect::<Vec<_>>()
    );
}

#[test]
fn findings_fixture_reports_every_rule_with_spans() {
    let diags = lint_fixture("findings.rs");
    let got: Vec<(String, usize)> = diags
        .iter()
        .map(|d| (d.rule.clone(), d.span.expect("engine findings carry spans").line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("R001".into(), 8),
            ("R002".into(), 12),
            ("R002".into(), 17),
            ("R005".into(), 21),
            ("R013".into(), 26),
            ("R004".into(), 33),
            ("R007".into(), 43),
        ],
        "full diagnostics: {:#?}",
        diags.iter().map(|d| format!("{} {}", d.rule, d.location)).collect::<Vec<_>>()
    );
    // Spot-check column accuracy: the R001 span must start exactly at
    // `unwrap`, and the byte range must slice that text out of the source.
    let src = fixture("findings.rs");
    let r001 = diags[0].span.unwrap();
    assert_eq!(r001.column, 16);
    assert_eq!(&src[r001.start..r001.end], "unwrap");
    let r002 = diags[1].span.unwrap();
    assert_eq!(&src[r002.start..r002.end], "==");
}

#[test]
fn float_variable_comparison_is_flagged_not_just_literals() {
    let diags = lint_fixture("findings.rs");
    let var_cmp = diags.iter().find(|d| d.rule == "R002" && d.span.unwrap().line == 17).unwrap();
    assert!(
        var_cmp.message.contains("between float-typed values"),
        "line 17 compares two float variables: {}",
        var_cmp.message
    );
}

/// Loads a `fixtures/graph/` file and rehomes it at a synthetic
/// repo-relative path so the workspace engine sees a real crate layout.
fn graph_fixture(fixture_name: &str, rel_as: &str) -> WorkspaceFile {
    WorkspaceFile { rel: rel_as.into(), src: fixture(fixture_name), role: xtask::role_of(rel_as) }
}

/// The repo's own layering policy, as the graph tests' DAG.
fn repo_policy() -> LayeringPolicy {
    let text = std::fs::read_to_string(repo_root().join("crates/xtask/layering.lint"))
        .expect("read crates/xtask/layering.lint");
    LayeringPolicy::parse(&text).expect("the shipped layering policy must parse")
}

#[test]
fn graph_rules_fire_on_the_injected_corpus_with_exact_spans() {
    let files = vec![
        graph_fixture("graph/bad_layer.rs", "crates/core/src/bad_layer.rs"),
        graph_fixture("graph/guard_across_par.rs", "crates/core/src/guard_across_par.rs"),
        graph_fixture("graph/fixture_runner.rs", "crates/cat/src/fixture_runner.rs"),
        graph_fixture("graph/fixture_dep.rs", "crates/linalg/src/fixture_dep.rs"),
        graph_fixture("graph/dead_surface.rs", "crates/events/src/dead_surface.rs"),
    ];
    let report = xtask::lint_workspace(&files, &[], &repo_policy());
    let got: Vec<(String, String, usize, usize)> = report
        .diagnostics
        .iter()
        .map(|d| {
            let span = d.span.expect("graph findings carry spans");
            (d.rule.clone(), d.location.clone(), span.line, span.column)
        })
        .collect();
    // The report is sorted by (path, span): events sorts before linalg.
    assert_eq!(
        got,
        vec![
            ("R009".into(), "crates/core/src/bad_layer.rs:3:5".into(), 3, 5),
            ("R008".into(), "crates/core/src/guard_across_par.rs:6:8".into(), 6, 8),
            ("R011".into(), "crates/events/src/dead_surface.rs:3:8".into(), 3, 8),
            ("R001".into(), "crates/linalg/src/fixture_dep.rs:4:11".into(), 4, 11),
            ("R010".into(), "crates/linalg/src/fixture_dep.rs:4:11".into(), 4, 11),
        ],
        "full report:\n{}",
        report.render_human()
    );

    // The injected layering violation names the offending crate pair, and
    // the R010 finding carries the full witness chain across the crates.
    let r009 = &report.diagnostics[0];
    assert!(r009.message.contains("cli"), "{}", r009.message);
    let r008 = &report.diagnostics[1];
    assert!(r008.message.contains("par_iter"), "{}", r008.message);
    assert!(r008.message.contains("shared"), "{}", r008.message);
    let r010 = &report.diagnostics[4];
    assert!(
        r010.message.contains("cat::SimRequest::run -> cat::helper -> linalg::deep_unwrap"),
        "{}",
        r010.message
    );
    let r011 = &report.diagnostics[2];
    assert!(r011.message.contains("`pub fn nobody_calls`"), "{}", r011.message);
}

#[test]
fn graph_corpus_byte_spans_slice_the_offending_tokens() {
    let files = vec![
        graph_fixture("graph/bad_layer.rs", "crates/core/src/bad_layer.rs"),
        graph_fixture("graph/guard_across_par.rs", "crates/core/src/guard_across_par.rs"),
    ];
    let report = xtask::lint_workspace(&files, &[], &repo_policy());
    let layer_src = fixture("graph/bad_layer.rs");
    let s = report.diagnostics[0].span.unwrap();
    assert_eq!(&layer_src[s.start..s.end], "catalyze_cli");
    let par_src = fixture("graph/guard_across_par.rs");
    let s = report.diagnostics[1].span.unwrap();
    assert_eq!(&par_src[s.start..s.end], "par_iter");
}

#[test]
fn fix_round_trip_on_the_fixture_reaches_a_fixed_point() {
    let first = WorkspaceFile {
        rel: "crates/core/src/fix_roundtrip.rs".into(),
        src: fixture("fix_roundtrip.rs"),
        role: FileRole::Library,
    };
    let lint = xtask::rules::lint_workspace_full(std::slice::from_ref(&first), &[], &repo_policy());
    let fixed = xtask::fix::fixed_source(&lint.analyses[0])
        .expect("the fixture has stale annotations to fix");

    // The stale standalone annotation line is gone entirely; the stale
    // trailing comment is trimmed but its code line survives; the mixed
    // annotation keeps only its live kind; the live annotation is intact.
    assert!(!fixed.contains("nothing panics here anymore"), "{fixed}");
    assert!(!fixed.contains("lossy_cast"), "{fixed}");
    assert!(fixed.contains("    9\n"), "{fixed}");
    assert!(fixed.contains("// lint: allow(panic): fixture exercises a kept annotation"));
    assert!(fixed.contains("// lint: allow(panic): only the panic is real"), "{fixed}");

    // Round trip: fixing the fixed source changes nothing.
    let second = WorkspaceFile { rel: first.rel.clone(), src: fixed, role: FileRole::Library };
    let relint =
        xtask::rules::lint_workspace_full(std::slice::from_ref(&second), &[], &repo_policy());
    assert!(
        xtask::fix::fixed_source(&relint.analyses[0]).is_none(),
        "a second --fix pass must be a no-op"
    );

    // And the fixed source has no stale annotations left to report.
    assert!(
        !relint.report.diagnostics.iter().any(|d| d.rule == "R004"),
        "{}",
        relint.report.render_human()
    );
}

#[test]
fn repository_lints_clean() {
    let report = xtask::lint_repo(&repo_root());
    assert!(
        !report.has_errors(),
        "the repository must self-lint clean:\n{}",
        report.render_human()
    );
}

#[test]
fn cli_rejects_unknown_arguments_with_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--bogus"])
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "stderr: {stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--format"])
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(2), "--format without a value is a usage error");

    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--format", "xml"])
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(2), "--format xml is a usage error");

    let out = Command::new(env!("CARGO_BIN_EXE_xtask")).output().expect("spawn xtask");
    assert_eq!(out.status.code(), Some(2), "missing subcommand is a usage error");
}

#[test]
fn cli_json_output_matches_the_diagnostic_schema() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--format", "json"])
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(0), "repo lints clean");
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout is a single JSON document");
    assert!(v.get("diagnostics").is_some());
    assert_eq!(v["errors"].as_u64(), Some(0));
    assert_eq!(v["warnings"].as_u64(), Some(0));
}

#[test]
fn cli_sarif_output_has_the_standard_shape() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--format", "sarif"])
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(0), "repo lints clean");
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout is a single SARIF document");
    assert_eq!(v["version"].as_str(), Some("2.1.0"));
    assert!(v["$schema"].as_str().unwrap_or("").contains("sarif-2.1.0"));
    let runs = v["runs"].as_array().expect("runs array");
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0]["tool"]["driver"]["name"].as_str(), Some("xtask-lint"));
    assert!(runs[0]["results"].as_array().is_some(), "results must be present even when empty");
}

#[test]
fn sarif_results_carry_physical_locations_with_regions() {
    // Render a report with a known finding and check the location block.
    let files = vec![graph_fixture("graph/bad_layer.rs", "crates/core/src/bad_layer.rs")];
    let report = xtask::lint_workspace(&files, &[], &repo_policy());
    assert!(report.has_errors(), "the injected violation must survive to SARIF");
    let v: serde_json::Value =
        serde_json::from_str(&report.render_sarif("xtask-lint")).expect("valid JSON");
    let results = v["runs"][0]["results"].as_array().unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0]["ruleId"].as_str(), Some("R009"));
    assert_eq!(results[0]["level"].as_str(), Some("error"));
    let loc = &results[0]["locations"][0]["physicalLocation"];
    assert_eq!(
        loc["artifactLocation"]["uri"].as_str(),
        Some("crates/core/src/bad_layer.rs"),
        "the uri must be the bare path, line/column live in the region"
    );
    assert_eq!(loc["region"]["startLine"].as_u64(), Some(3));
    assert_eq!(loc["region"]["startColumn"].as_u64(), Some(5));
    let rules = v["runs"][0]["tool"]["driver"]["rules"].as_array().unwrap();
    assert!(rules.iter().any(|r| r["id"].as_str() == Some("R009")), "rules are declared");
}
