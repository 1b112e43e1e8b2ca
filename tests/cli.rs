//! End-to-end tests of the `rdfmesh` command-line tool.

use std::process::Command;

fn rdfmesh() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdfmesh"))
}

#[test]
fn query_command_returns_solutions() {
    let out = rdfmesh()
        .args([
            "query",
            "--peers",
            "4",
            "--persons",
            "20",
            "--format",
            "tsv",
            "SELECT ?x WHERE { ?x foaf:knows ?y . } LIMIT 5",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("?x\n"), "tsv header expected, got: {stdout}");
    assert!(stdout.lines().count() >= 2, "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bytes="), "cost line expected: {stderr}");
}

#[test]
fn query_command_json_ask() {
    let out = rdfmesh()
        .args(["query", "--format", "json", "ASK { ?x foaf:name ?n . }"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim() == r#"{"head":{},"boolean":true}"#, "{stdout}");
}

#[test]
fn adaptive_objective_reports_plan() {
    let out = rdfmesh()
        .args(["query", "--objective", "time", "SELECT ?x WHERE { ?x foaf:knows ?y . }"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("planner chose: basic"), "{stderr}");
}

#[test]
fn load_command_builds_peers_from_ntriples() {
    let dir = std::env::temp_dir().join(format!("rdfmesh-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("alice.nt");
    let b = dir.join("bob.nt");
    std::fs::write(
        &a,
        "<http://e/alice> <http://xmlns.com/foaf/0.1/knows> <http://e/bob> .\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "<http://e/bob> <http://xmlns.com/foaf/0.1/knows> <http://e/alice> .\n\
         <http://e/bob> <http://xmlns.com/foaf/0.1/name> \"Bob\" .\n",
    )
    .unwrap();
    let out = rdfmesh()
        .args([
            "load",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "-q",
            "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }",
            "--format",
            "tsv",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 3, "{stdout}"); // header + 2 rows
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_command_prints_layout() {
    let out = rdfmesh()
        .args(["topology", "--peers", "3", "--persons", "12", "--index", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ring (2 index nodes"));
    assert_eq!(stdout.matches("attached to index position").count(), 3);
}

#[test]
fn bad_usage_exits_nonzero() {
    for args in [
        vec!["query"],                        // missing SPARQL
        vec!["query", "--strategy", "warp", "ASK { ?x ?p ?o . }"],
        vec!["frobnicate"],
        vec![],
    ] {
        let out = rdfmesh().args(&args).output().expect("binary runs");
        assert!(!out.status.success(), "args {args:?} should fail");
    }
}

#[test]
fn invalid_sparql_reports_parse_error() {
    let out = rdfmesh()
        .args(["query", "SELECT WHERE"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn serve_refuses_a_node_id_at_or_above_the_index_id_range() {
    let out = rdfmesh().args(["serve", "--node-id", "4294967296"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "a start-up failure, not a panic's 101");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: node id 4294967296 is not below 4294967296"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line, no backtrace: {stderr}");
}
