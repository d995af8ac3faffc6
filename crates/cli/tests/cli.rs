//! End-to-end tests of the `swh` binary: ingest → ls → show → query →
//! profile → estimate → rm, against a temporary store.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn swh() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swh"))
}

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swh-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn write_values(path: &PathBuf, values: impl Iterator<Item = i64>) {
    let mut f = std::fs::File::create(path).unwrap();
    for v in values {
        writeln!(f, "{v}").unwrap();
    }
}

fn ok(out: &Output) -> String {
    assert!(
        out.status.success(),
        "command failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn full_workflow() {
    let store = tmp_store("workflow");
    let store_s = store.to_str().unwrap();
    let data = store.with_extension("txt");
    // Two partitions: 0..50_000 and 50_000..120_000.
    std::fs::create_dir_all(&store).unwrap();
    write_values(&data, 0..50_000);
    let out = swh()
        .args([
            "ingest",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--partition",
            "0",
            "--nf",
            "1024",
            "--file",
            data.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let text = ok(&out);
    assert!(text.contains("50000 values"), "{text}");

    write_values(&data, 50_000..120_000);
    ok(&swh()
        .args([
            "ingest",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--partition",
            "1",
            "--nf",
            "1024",
            "--file",
            data.to_str().unwrap(),
        ])
        .output()
        .unwrap());

    // ls shows both partitions.
    let text = ok(&swh().args(["ls", "--store", store_s]).output().unwrap());
    assert!(text.contains("(0,0)"), "{text}");
    assert!(text.contains("(0,1)"), "{text}");
    assert!(text.contains("reservoir"), "{text}");

    // show details one partition.
    let text = ok(&swh()
        .args([
            "show",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--partition",
            "0",
        ])
        .output()
        .unwrap());
    assert!(text.contains("parent size     : 50000"), "{text}");
    assert!(text.contains("sample size     : 1024"), "{text}");

    // query merges both into a uniform sample of 120_000 rows.
    let text = ok(&swh()
        .args(["query", "--store", store_s, "--dataset", "1"])
        .output()
        .unwrap());
    assert!(text.contains("rows covered : 120000"), "{text}");
    assert!(text.contains("sample size  : 1024"), "{text}");

    // estimate AVG over everything: truth is ~59999.5.
    let text = ok(&swh()
        .args([
            "estimate",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--op",
            "avg",
        ])
        .output()
        .unwrap());
    let value: f64 = text
        .split('~')
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        (value - 59_999.5).abs() < 6_000.0,
        "avg {value} from: {text}"
    );

    // estimate COUNT with a predicate: multiples of 4 ~ 30_000.
    let text = ok(&swh()
        .args([
            "estimate",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--op",
            "count",
            "--mod",
            "4",
            "--rem",
            "0",
        ])
        .output()
        .unwrap());
    assert!(text.contains("COUNT(v % 4 == 0)"), "{text}");

    // Structured predicate + quantile op.
    let text = ok(&swh()
        .args([
            "estimate",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--op",
            "q90",
            "--pred",
            "between:0:119999",
        ])
        .output()
        .unwrap());
    assert!(text.contains("Q90(0 <= v <= 119999)"), "{text}");

    // profile prints distinct estimates and a median.
    let text = ok(&swh()
        .args(["profile", "--store", store_s, "--dataset", "1"])
        .output()
        .unwrap());
    assert!(text.contains("column profile (120000 rows)"), "{text}");
    assert!(text.contains("median"), "{text}");

    // rm rolls one partition out; query then covers only the other.
    ok(&swh()
        .args([
            "rm",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--partition",
            "0",
        ])
        .output()
        .unwrap());
    let text = ok(&swh()
        .args(["query", "--store", store_s, "--dataset", "1"])
        .output()
        .unwrap());
    assert!(text.contains("rows covered : 70000"), "{text}");

    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&data).ok();
}

#[test]
fn ingest_from_stdin_with_hb() {
    let store = tmp_store("stdin");
    let store_s = store.to_str().unwrap();
    let mut child = swh()
        .args([
            "ingest",
            "--store",
            store_s,
            "--dataset",
            "2",
            "--partition",
            "0",
            "--algorithm",
            "hb",
            "--expected",
            "10000",
            "--nf",
            "256",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    {
        let mut stdin = child.stdin.take().unwrap();
        for v in 0..10_000i64 {
            writeln!(stdin, "{v}").unwrap();
        }
    }
    let out = child.wait_with_output().unwrap();
    let text = ok(&out);
    assert!(text.contains("bernoulli"), "{text}");
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn export_csv() {
    let store = tmp_store("export");
    let store_s = store.to_str().unwrap();
    let data = store.with_extension("csvsrc");
    std::fs::create_dir_all(&store).unwrap();
    write_values(&data, (0..300).map(|i| i % 3));
    ok(&swh()
        .args([
            "ingest",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--partition",
            "0",
            "--file",
            data.to_str().unwrap(),
        ])
        .output()
        .unwrap());
    let csv_path = store.with_extension("out.csv");
    ok(&swh()
        .args([
            "query",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--export",
            csv_path.to_str().unwrap(),
        ])
        .output()
        .unwrap());
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.starts_with("value,count\n"), "{csv}");
    assert!(csv.contains("0,100"), "{csv}");
    assert!(csv.contains("2,100"), "{csv}");
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn errors_are_reported() {
    // Unknown command.
    let out = swh().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = swh().args(["ls"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--store"));

    // HB without --expected.
    let store = tmp_store("err");
    let out = swh()
        .args([
            "ingest",
            "--store",
            store.to_str().unwrap(),
            "--dataset",
            "1",
            "--partition",
            "0",
            "--algorithm",
            "hb",
            "--file",
            "/nonexistent",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected"));

    // Bad integer input.
    let data = store.with_extension("bad");
    std::fs::write(&data, "1\ntwo\n3\n").unwrap();
    let out = swh()
        .args([
            "ingest",
            "--store",
            store.to_str().unwrap(),
            "--dataset",
            "1",
            "--partition",
            "0",
            "--file",
            data.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&data).ok();
}

#[test]
fn named_datasets_resolve_via_registry() {
    let store = tmp_store("named");
    let store_s = store.to_str().unwrap();
    // Ingest under a name (auto-registered), then query by the same name.
    ok(&swh()
        .args([
            "ingest",
            "--store",
            store_s,
            "--dataset",
            "orders.amount",
            "--partition",
            "0",
            "--nf",
            "256",
            "--generate",
            "unique:5000",
        ])
        .output()
        .unwrap());
    let text = ok(&swh()
        .args(["query", "--store", store_s, "--dataset", "orders.amount"])
        .output()
        .unwrap());
    assert!(text.contains("rows covered : 5000"), "{text}");
    // ls accepts the name too.
    let text = ok(&swh()
        .args(["ls", "--store", store_s, "--dataset", "orders.amount"])
        .output()
        .unwrap());
    assert!(text.contains("(0,0)"), "{text}");
    // Unknown names fail cleanly (no accidental creation on read).
    let out = swh()
        .args(["query", "--store", store_s, "--dataset", "no.such.column"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset name"));
    // Out-of-range quantile ops error instead of panicking.
    let out = swh()
        .args([
            "estimate",
            "--store",
            store_s,
            "--dataset",
            "orders.amount",
            "--op",
            "q150",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("between 0 and 100"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn ingest_generated_data() {
    let store = tmp_store("generate");
    let store_s = store.to_str().unwrap();
    // Zipf domain 200 -> at most 400 compact slots, under the 512 bound,
    // so that partition stays an exhaustive histogram.
    for (seq, spec) in [
        (0, "unique:20000"),
        (1, "uniform:20000:1000000"),
        (2, "zipf:20000:200"),
    ]
    .iter()
    .enumerate()
    {
        let text = ok(&swh()
            .args([
                "ingest",
                "--store",
                store_s,
                "--dataset",
                "3",
                "--partition",
                &seq.to_string(),
                "--nf",
                "512",
                "--generate",
                spec.1,
            ])
            .output()
            .unwrap());
        assert!(text.contains("20000 values"), "{text}");
    }
    // Zipf partition stays exhaustive (few distinct values).
    let text = ok(&swh()
        .args([
            "show",
            "--store",
            store_s,
            "--dataset",
            "3",
            "--partition",
            "2",
        ])
        .output()
        .unwrap());
    assert!(text.contains("exhaustive"), "{text}");
    // Unique partition is a proper reservoir sample.
    let text = ok(&swh()
        .args([
            "show",
            "--store",
            store_s,
            "--dataset",
            "3",
            "--partition",
            "0",
        ])
        .output()
        .unwrap());
    assert!(text.contains("reservoir"), "{text}");
    // Bad spec errors out.
    let out = swh()
        .args([
            "ingest",
            "--store",
            store_s,
            "--dataset",
            "3",
            "--partition",
            "9",
            "--generate",
            "nonsense:1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn help_lists_commands() {
    let text = ok(&swh().args(["help"]).output().unwrap());
    for cmd in [
        "ingest",
        "ls",
        "show",
        "query",
        "profile",
        "profile union",
        "estimate",
        "rm",
        "store",
        "fsck",
        "lifecycle",
        "compact-now",
        "bench history",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

/// The profiling acceptance path: a profiled 64-partition union reports
/// exactly one node per merge-tree node (63 for 64 leaves), their self-time
/// accounts for the union wall-clock, and the fitted cost model lands on
/// disk with merge and observe entries.
#[test]
fn profile_union_accounts_for_wall_clock() {
    let dir = tmp_store("profunion");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("cost_model.json");
    let text = ok(&swh()
        .args([
            "profile",
            "union",
            "--partitions",
            "64",
            "--per-part",
            "2000",
            "--nf",
            "256",
            "--seed",
            "9",
            "--cost-model",
            model_path.to_str().unwrap(),
        ])
        .output()
        .unwrap());
    assert!(text.contains("merge-tree nodes : 63"), "{text}");
    // "...self 12.345 ms (96.5% of wall)" — the node self-time share.
    let pct: f64 = text
        .split_once("% of wall")
        .and_then(|(head, _)| head.rsplit_once('('))
        .map(|(_, pct)| pct.parse().unwrap())
        .unwrap_or_else(|| panic!("no wall share in: {text}"));
    assert!(
        (50.0..=110.0).contains(&pct),
        "node self-time {pct}% of wall: {text}"
    );
    let model = std::fs::read_to_string(&model_path).unwrap();
    assert!(model.contains("\"op\": \"merge\""), "{model}");
    assert!(model.contains("\"op\": \"observe_exact\""), "{model}");
    assert!(
        text.contains(&format!("-> {}", model_path.display())),
        "{text}"
    );

    // --json emits the machine-readable snapshot with the same counts.
    let text = ok(&swh()
        .args([
            "profile",
            "union",
            "--partitions",
            "8",
            "--per-part",
            "1000",
            "--nf",
            "128",
            "--json",
        ])
        .output()
        .unwrap());
    assert!(text.contains("\"merge_tree_nodes\": 7"), "{text}");
    assert!(text.contains("\"nodes\": ["), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Bench-history regression gate: a healthy run passes `--check`, an
/// injected 2x regression fails it, and every run appends one numbered
/// line to `history.jsonl`.
#[test]
fn bench_history_gates_on_regression() {
    let dir = tmp_store("benchhistory");
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap();
    std::fs::write(
        dir.join("BENCH_demo.json"),
        "{\"bench\": \"demo\", \"rows\": [{\"mode\": \"batched\", \"speedup\": 4.0}]}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("baselines.json"),
        "{\"version\": 1, \"baselines\": {\"demo.r0.speedup\": {\"min\": 2.0}}}\n",
    )
    .unwrap();

    let text = ok(&swh()
        .args(["bench", "history", "--dir", dir_s, "--check"])
        .output()
        .unwrap());
    assert!(text.contains("all 1 baseline(s) hold"), "{text}");
    let history = std::fs::read_to_string(dir.join("history.jsonl")).unwrap();
    assert_eq!(history.lines().count(), 1, "{history}");
    assert!(history.contains("\"run\": 1"), "{history}");
    assert!(history.contains("\"demo.r0.speedup\": 4"), "{history}");

    // Inject a 2x regression: speedup 4 -> 1, below the min-2 baseline.
    std::fs::write(
        dir.join("BENCH_demo.json"),
        "{\"bench\": \"demo\", \"rows\": [{\"mode\": \"batched\", \"speedup\": 1.0}]}\n",
    )
    .unwrap();
    let out = swh()
        .args(["bench", "history", "--dir", dir_s, "--check"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "regression passed the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL demo.r0.speedup"), "{stdout}");
    assert!(stdout.contains("regression: demo.r0.speedup"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("baseline violation"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The regressed run is still recorded in the history.
    let history = std::fs::read_to_string(dir.join("history.jsonl")).unwrap();
    assert_eq!(history.lines().count(), 2, "{history}");
    assert!(history.contains("\"run\": 2"), "{history}");

    // Without --check the violation is reported but the exit is clean.
    let text = ok(&swh()
        .args(["bench", "history", "--dir", dir_s])
        .output()
        .unwrap());
    assert!(text.contains("rerun with --check"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One raw HTTP GET against the bound `swh serve` endpoint (the workspace
/// has no HTTP client dependency).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let status: u16 = reply
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The acceptance path for the lineage subsystem: an HB sample driven
/// through its Bernoulli phase into the reservoir fallback, merged once via
/// HR-merge (hypergeometric split), persisted, reloaded — the lineage must
/// round-trip — and finally served over HTTP by `swh serve`, whose
/// `/metrics` must carry the derived sample-quality gauges.
#[test]
fn lineage_round_trips_and_serves_over_http() {
    use swh_core::footprint::FootprintPolicy;
    use swh_core::lineage::LineageEvent;
    use swh_core::merge::merge_all;
    use swh_core::sample::{Sample, SampleKind};
    use swh_core::sampler::Sampler;
    use swh_warehouse::ids::{DatasetId, PartitionId, PartitionKey};
    use swh_warehouse::ingest::SamplerConfig;
    use swh_warehouse::store::DiskStore;

    let store_dir = tmp_store("lineage");
    let store = DiskStore::open(&store_dir).unwrap();
    let key = |seq| PartitionKey {
        dataset: DatasetId(7),
        partition: PartitionId { stream: 0, seq },
    };
    let policy = FootprintPolicy::with_value_budget(256);
    let mut rng = swh_rand::seeded_rng(41);

    // Two HB partitions whose `expected_n` understates the stream 30x: each
    // runs phase 1 -> purge -> phase 2 (Bernoulli, q sized for 2000 rows)
    // -> overflows the bound -> phase 3 (reservoir).
    let mut parts = Vec::new();
    for (seq, range) in [(0u64, 0..60_000i64), (1, 60_000..120_000)] {
        let mut hb = SamplerConfig::HybridBernoulli {
            expected_n: 2_000,
            p_bound: 1e-3,
        }
        .build::<i64>(policy);
        for v in range {
            hb.observe(v, &mut rng);
        }
        let s = hb.finalize(&mut rng);
        assert_eq!(s.kind(), SampleKind::Reservoir, "partition {seq}");
        store.save(key(seq), &s).unwrap();
        parts.push(s);
    }

    // Reservoir x reservoir goes through HR-merge (Fig. 8): the merged
    // lineage concatenates both parents' histories plus the split record.
    let merged = merge_all(parts, 1e-3, &mut rng).unwrap();
    store.save(key(2), &merged).unwrap();
    let loaded: Sample<i64> = store.load(key(2)).unwrap();
    let lin = loaded.lineage();
    assert!(
        lin.iter().any(|e| matches!(
            e,
            LineageEvent::PhaseTransition { from: 1, to: 2, q, .. } if *q > 0.0 && *q < 1.0
        )),
        "no Bernoulli transition with q: {lin:?}"
    );
    assert!(
        lin.iter()
            .any(|e| matches!(e, LineageEvent::PhaseTransition { to: 3, .. })),
        "no reservoir fallback transition: {lin:?}"
    );
    assert!(
        lin.iter().any(|e| matches!(e, LineageEvent::Purge { .. })),
        "no purge recorded: {lin:?}"
    );
    assert!(
        lin.iter().any(|e| matches!(
            e,
            LineageEvent::Merge { fan_in: 2, split_l } if *split_l > 0
        )),
        "no hypergeometric merge split: {lin:?}"
    );
    assert_eq!(
        lin.last(),
        Some(&LineageEvent::StoreWrite),
        "save must stamp the stored copy: {lin:?}"
    );

    // Serve the store over HTTP: port 0, bounded request count, and the
    // bound address on the first stdout line.
    let mut child = swh()
        .args([
            "serve",
            "--store",
            store_dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--requests",
            "3",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let addr = {
        use std::io::{BufRead, BufReader};
        let stdout = child.stdout.take().unwrap();
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).unwrap();
        line.trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .to_string()
    };
    let (status, body) = http_get(&addr, "/lineage/7/2");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"event\": \"phase_transition\""), "{body}");
    assert!(body.contains("\"event\": \"merge\""), "{body}");
    assert!(body.contains("\"event\": \"store_write\""), "{body}");
    let (status, body) = http_get(&addr, "/lineage/7/9");
    assert_eq!(status, 404, "{body}");
    let (status, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("swh_sample_effective_rate_ppm"), "{body}");
    assert!(body.contains("swh_sample_merge_fan_in"), "{body}");
    assert!(child.wait().unwrap().success());

    std::fs::remove_dir_all(&store_dir).ok();
}

/// A read-only `swh serve` must never damage a store it cannot fully
/// decode: a store holding String-valued samples (which the i64-typed CLI
/// cannot load) must survive serving untouched — gauges come from the
/// type-agnostic header/lineage summary, and nothing gets quarantined.
#[test]
fn serve_leaves_foreign_typed_stores_intact() {
    use swh_core::footprint::FootprintPolicy;
    use swh_core::sampler::Sampler;
    use swh_warehouse::ids::{DatasetId, PartitionId, PartitionKey};
    use swh_warehouse::ingest::SamplerConfig;
    use swh_warehouse::store::DiskStore;

    let store_dir = tmp_store("serve-foreign");
    let store = DiskStore::open(&store_dir).unwrap();
    let mut rng = swh_rand::seeded_rng(43);
    let mut hr =
        SamplerConfig::HybridReservoir.build::<String>(FootprintPolicy::with_value_budget(64));
    for i in 0..500 {
        hr.observe(format!("city-{}", i % 40), &mut rng);
    }
    let key = PartitionKey {
        dataset: DatasetId(3),
        partition: PartitionId { stream: 0, seq: 0 },
    };
    store.save(key, &hr.finalize(&mut rng)).unwrap();
    let sample_files: Vec<_> = std::fs::read_dir(store_dir.join("ds3"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(sample_files.len(), 1);

    let mut child = swh()
        .args([
            "serve",
            "--store",
            store_dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--requests",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let addr = {
        use std::io::{BufRead, BufReader};
        let stdout = child.stdout.take().unwrap();
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).unwrap();
        line.trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .to_string()
    };
    let (status, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("swh_sample_effective_rate_ppm"), "{body}");
    assert!(child.wait().unwrap().success());

    // The store is exactly as it was: same sample file, no quarantine.
    assert!(sample_files[0].exists(), "sample was moved or deleted");
    assert!(
        !store_dir.join("quarantine").exists(),
        "serve quarantined a valid foreign-typed sample"
    );

    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn trace_prints_the_event_journal() {
    let text = ok(&swh().args(["trace"]).output().unwrap());
    for needle in [
        "kind=span_start",
        "kind=phase_transition",
        "kind=purge",
        "kind=merge",
        "kind=ingest",
        "kind=span_end",
    ] {
        assert!(text.contains(needle), "trace missing {needle}: {text}");
    }
    assert!(text.contains("event(s) recorded"), "{text}");
}

#[test]
fn fsck_reports_lineage() {
    let store = tmp_store("fscklineage");
    let store_s = store.to_str().unwrap();
    ok(&swh()
        .args([
            "ingest",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--partition",
            "0",
            "--nf",
            "256",
            "--generate",
            "unique:5000",
        ])
        .output()
        .unwrap());
    let text = ok(&swh()
        .args(["store", "fsck", "--store", store_s])
        .output()
        .unwrap());
    // One stored sample: lineage holds at least the phase transition,
    // the finalize Ingested record, and the StoreWrite stamp.
    assert!(
        text.contains("fsck: lineage intact on 1 sample(s),"),
        "{text}"
    );
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn store_fsck_quarantines_and_sweeps() {
    let store = tmp_store("fsck");
    let store_s = store.to_str().unwrap();
    for seq in ["0", "1"] {
        ok(&swh()
            .args([
                "ingest",
                "--store",
                store_s,
                "--dataset",
                "1",
                "--partition",
                seq,
                "--nf",
                "256",
                "--generate",
                "unique:5000",
            ])
            .output()
            .unwrap());
    }
    // Corrupt one sample file with a bit flip and plant an orphaned temp
    // file as a crashed writer would leave it.
    let victim = store.join("ds1").join("p0_1.swhs");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, bytes).unwrap();
    let orphan = store.join("ds1").join("p0_9.swhs.12345.0.tmp");
    std::fs::write(&orphan, b"half-written").unwrap();

    let text = ok(&swh()
        .args(["store", "fsck", "--store", store_s])
        .output()
        .unwrap());
    assert!(
        text.contains("fsck: 1 file(s) ok, 1 quarantined, 1 orphaned tmp file(s) removed"),
        "{text}"
    );
    assert!(!victim.exists(), "corrupt file left in place");
    assert!(!orphan.exists(), "orphan tmp not swept");
    let qfile = store.join("quarantine").join("ds1").join("p0_1.swhs");
    assert!(qfile.exists(), "quarantine copy missing");
    let reason = std::fs::read_to_string(qfile.with_extension("swhs.reason")).unwrap();
    assert!(reason.contains("checksum"), "{reason}");

    // A second pass is clean, and the surviving partition still serves.
    let text = ok(&swh()
        .args(["store", "fsck", "--store", store_s])
        .output()
        .unwrap());
    assert!(
        text.contains("fsck: 1 file(s) ok, 0 quarantined, 0 orphaned tmp file(s) removed"),
        "{text}"
    );
    let text = ok(&swh().args(["ls", "--store", store_s]).output().unwrap());
    assert!(text.contains("(0,0)"), "{text}");
    assert!(!text.contains("(0,1)"), "{text}");
    std::fs::remove_dir_all(&store).ok();
}

/// The closed-loop health acceptance path: a healthy synthetic workload
/// leaves every builtin rule quiet (exit 0), while a deliberately
/// perturbed committed cost model moves `swh_cost_model_drift_ppm` past
/// its threshold — the rule fires, the exit turns non-zero (the CI gate),
/// and a full incident bundle lands on disk.
#[test]
fn alerts_check_gates_on_cost_model_drift() {
    let dir = tmp_store("alerts");
    std::fs::create_dir_all(&dir).unwrap();
    let reference = dir.join("cost_model.json");
    let workload: &[&str] = &[
        "--workload",
        "--partitions",
        "4",
        "--per-part",
        "8000",
        "--nf",
        "256",
    ];

    // 1. Healthy run fits a reference model and every builtin rule is quiet.
    let mut args = vec!["alerts", "check", "--fit-out", reference.to_str().unwrap()];
    args.extend_from_slice(workload);
    let text = ok(&swh().args(&args).output().unwrap());
    assert!(text.contains("all 7 alert rule(s) quiet"), "{text}");

    // 2. Perturb the committed model 100x: live measurements now sit ~99%
    // below the reference, i.e. ~990_000 ppm of drift.
    let mut model =
        swh_core::CostModel::from_json(&std::fs::read_to_string(&reference).unwrap()).unwrap();
    for entry in &mut model.entries {
        entry.mean_ns *= 100.0;
    }
    let perturbed = dir.join("cost_model_bad.json");
    std::fs::write(&perturbed, model.to_json()).unwrap();

    // 3. The gate trips: non-zero exit, the drift rule reports FIRING, and
    // the flight recorder drops a complete bundle.
    let incidents = dir.join("incidents");
    let mut args = vec![
        "alerts",
        "check",
        "--cost-model",
        perturbed.to_str().unwrap(),
        "--incidents",
        incidents.to_str().unwrap(),
    ];
    args.extend_from_slice(workload);
    let out = swh().args(&args).output().unwrap();
    assert!(!out.status.success(), "perturbed model must trip the gate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FIRING"), "{text}");
    assert!(text.contains("cost_model_drift"), "{text}");
    assert!(text.contains("incident bundle"), "{text}");
    let bundle = incidents.join("0");
    for file in ["alert.json", "metrics.json", "journal.txt", "profile.json"] {
        let path = bundle.join(file);
        let data = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing bundle file {}: {e}", path.display()));
        assert!(!data.is_empty(), "{file} is empty");
    }
    let alert = std::fs::read_to_string(bundle.join("alert.json")).unwrap();
    assert!(alert.contains("cost_model_drift"), "{alert}");
    let metrics = std::fs::read_to_string(bundle.join("metrics.json")).unwrap();
    assert!(metrics.contains("swh_cost_model_drift_ppm"), "{metrics}");

    // 4. The saved-snapshot path: a metrics file showing a q-bound
    // violation fires the invariant rule without any workload.
    let saved = dir.join("metrics.json");
    std::fs::write(&saved, "{\"swh_audit_q_violations_total\": 3}\n").unwrap();
    let out = swh()
        .args(["alerts", "check", "--metrics", saved.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FIRING critical audit_q_violation"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `swh top --iterations 1` renders one pipeable frame (no ANSI clear)
/// from a live `swh serve` endpoint's `/metrics.json` and `/alerts`.
#[test]
fn top_renders_one_frame_from_serve() {
    let store_dir = tmp_store("top");
    std::fs::create_dir_all(&store_dir).unwrap();
    let mut child = swh()
        .args([
            "serve",
            "--store",
            store_dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--requests",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let addr = {
        use std::io::{BufRead, BufReader};
        let stdout = child.stdout.take().unwrap();
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).unwrap();
        line.trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .to_string()
    };
    let text = ok(&swh()
        .args(["top", "--url", &addr, "--iterations", "1"])
        .output()
        .unwrap());
    assert!(text.contains("swh top"), "{text}");
    assert!(text.contains("firing"), "{text}");
    assert!(text.contains("7 rules"), "{text}");
    assert!(
        !text.contains('\x1b'),
        "single frame must not clear: {text}"
    );
    assert!(child.wait().unwrap().success());
    std::fs::remove_dir_all(&store_dir).ok();
}

/// The partition-lifecycle acceptance path: persist a 2x2 tiering policy,
/// compact four hot partitions into warm then cold roll-ups, read the tier
/// summary via `lifecycle status` and the `/lifecycle` serve route, have
/// fsck validate the surviving tombstone's recorded fan-in, and finally
/// catch a tampered tombstone (fan-in mismatch) as a quarantine.
#[test]
fn lifecycle_compacts_serves_status_and_fsck_validates() {
    let store = tmp_store("lifecycle");
    let store_s = store.to_str().unwrap();
    std::fs::create_dir_all(&store).unwrap();
    let data = store.with_extension("txt");
    for seq in 0..4i64 {
        write_values(&data, (seq * 10_000)..((seq + 1) * 10_000));
        ok(&swh()
            .args([
                "ingest",
                "--store",
                store_s,
                "--dataset",
                "1",
                "--partition",
                &seq.to_string(),
                "--nf",
                "512",
                "--file",
                data.to_str().unwrap(),
            ])
            .output()
            .unwrap());
    }

    // Persist the policy, then read it back without set flags.
    let text = ok(&swh()
        .args([
            "lifecycle",
            "policy",
            "--store",
            store_s,
            "--dataset",
            "1",
            "--warm",
            "2",
            "--cold",
            "2",
        ])
        .output()
        .unwrap());
    assert!(
        text.contains("warm fan-in 2") && text.contains("(saved)"),
        "{text}"
    );
    let text = ok(&swh()
        .args(["lifecycle", "policy", "--store", store_s, "--dataset", "1"])
        .output()
        .unwrap());
    assert!(
        text.contains("cold fan-in 2") && !text.contains("(saved)"),
        "{text}"
    );

    // 4 hot -> 2 warm -> 1 cold under the persisted policy: 6 inputs retired.
    let text = ok(&swh()
        .args([
            "lifecycle",
            "compact-now",
            "--store",
            store_s,
            "--seed",
            "7",
        ])
        .output()
        .unwrap());
    assert!(
        text.contains("2 warm roll-up(s), 1 cold roll-up(s), 6 input(s) retired"),
        "{text}"
    );

    // Only the cold roll-up (and its tombstone) remain; the superseded warm
    // tombstones went with their outputs.
    let text = ok(&swh()
        .args(["lifecycle", "status", "--store", store_s])
        .output()
        .unwrap());
    for needle in [
        "\"hot\":0",
        "\"warm\":0",
        "\"cold\":1",
        "\"tombstones\":1",
        "\"warm_fan_in\":2",
    ] {
        assert!(text.contains(needle), "status missing {needle}: {text}");
    }

    // Queries keep working over the compacted representation.
    ok(&swh()
        .args(["query", "--store", store_s, "--dataset", "1"])
        .output()
        .unwrap());

    // fsck validates the tombstone's recorded merge fan-in.
    let text = ok(&swh()
        .args(["store", "fsck", "--store", store_s])
        .output()
        .unwrap());
    assert!(
        text.contains("compaction fan-in validated on 1 tombstone(s)"),
        "{text}"
    );
    assert!(text.contains(" 0 quarantined"), "{text}");

    // The serve endpoint exposes the same document at /lifecycle.
    let mut child = swh()
        .args([
            "serve",
            "--store",
            store_s,
            "--addr",
            "127.0.0.1:0",
            "--requests",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let addr = {
        use std::io::{BufRead, BufReader};
        let stdout = child.stdout.take().unwrap();
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).unwrap();
        line.trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .to_string()
    };
    let (status, body) = http_get(&addr, "/lifecycle");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cold\":1"), "{body}");
    assert!(child.wait().unwrap().success());

    // Tamper with the tombstone: claim a third input the lineage never saw.
    let tomb = store.join("ds1").join(format!("p{}_0.tomb", 1u32 << 31));
    let mut text = std::fs::read_to_string(&tomb).unwrap();
    text.push_str("input p0_99\n");
    std::fs::write(&tomb, text).unwrap();
    let text = ok(&swh()
        .args(["store", "fsck", "--store", store_s])
        .output()
        .unwrap());
    assert!(
        text.contains("quarantined compacted sample")
            && text.contains("compaction fan-in mismatch"),
        "{text}"
    );
    let text = ok(&swh()
        .args(["lifecycle", "status", "--store", store_s])
        .output()
        .unwrap());
    assert!(text.contains("\"cold\":0"), "{text}");

    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&data).ok();
}

/// `--from`/`--to` on a compacted store select by the raw span each
/// partition covers: a range that cuts through a roll-up is refused with
/// the misaligned-span error, and an aligned range reports exactly the
/// rows it holds.
#[test]
fn lifecycle_ranges_select_by_covered_span() {
    let store = tmp_store("ranges");
    let store_s = store.to_str().unwrap();
    std::fs::create_dir_all(&store).unwrap();
    // Partition s holds 1000 * (s + 1) rows, so every range has its own
    // row count.
    for seq in 0..8u64 {
        ok(&swh()
            .args([
                "ingest",
                "--store",
                store_s,
                "--dataset",
                "1",
                "--partition",
                &seq.to_string(),
                "--nf",
                "256",
                "--generate",
                &format!("unique:{}", 1000 * (seq + 1)),
            ])
            .output()
            .unwrap());
    }
    let lifecycle = |extra: &[&str]| {
        let mut args = vec!["lifecycle"];
        args.extend_from_slice(extra);
        ok(&swh().args(&args).output().unwrap())
    };
    lifecycle(&[
        "policy",
        "--store",
        store_s,
        "--dataset",
        "1",
        "--warm",
        "2",
        "--cold",
        "2",
    ]);
    // 8 hot -> 4 warm -> 2 cold roll-ups, covering seqs 0..=3 and 4..=7.
    let text = lifecycle(&["compact-now", "--store", store_s, "--seed", "3"]);
    assert!(text.contains("2 cold roll-up(s)"), "{text}");

    let range = |cmd: &str, from: &str, to: &str| {
        let mut args = vec![cmd, "--store", store_s, "--dataset", "1"];
        args.extend(["--from", from, "--to", to, "--seed", "5"]);
        if cmd == "estimate" {
            args.extend(["--op", "count"]);
        }
        swh().args(&args).output().unwrap()
    };
    // 2..=7 starts inside the roll-up of 0..=3: refused, not answered
    // over the roll-up of 4..=7 alone.
    for cmd in ["query", "estimate"] {
        let out = range(cmd, "2", "7");
        assert!(!out.status.success(), "{cmd} answered a cutting range");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("range crosses compacted span"), "{cmd}: {err}");
    }
    // Aligned ranges report their true row counts.
    for (from, to, rows) in [("4", "7", 26_000), ("0", "7", 36_000), ("0", "3", 10_000)] {
        let text = ok(&range("query", from, to));
        assert!(
            text.contains(&format!("rows covered : {rows}")),
            "{from}..={to}: {text}"
        );
    }
    std::fs::remove_dir_all(&store).ok();
}

/// A compaction that crashed before its merged output became durable leaves
/// only a tombstone intent behind; fsck must sweep it and leave the hot
/// inputs — still the source of truth — untouched.
#[test]
fn fsck_sweeps_orphaned_compaction_tombs() {
    let store = tmp_store("orphan-tomb");
    let store_s = store.to_str().unwrap();
    std::fs::create_dir_all(&store).unwrap();
    let data = store.with_extension("txt");
    for seq in 0..2i64 {
        write_values(&data, (seq * 5_000)..((seq + 1) * 5_000));
        ok(&swh()
            .args([
                "ingest",
                "--store",
                store_s,
                "--dataset",
                "1",
                "--partition",
                &seq.to_string(),
                "--file",
                data.to_str().unwrap(),
            ])
            .output()
            .unwrap());
    }

    // Handcraft the tombstone a crashed warm compaction would leave: the
    // intent exists, the merged output never landed.
    let warm = 1u32 << 30;
    std::fs::write(
        store.join("ds1").join(format!("p{warm}_0.tomb")),
        format!("swh-tomb v1\ndataset 1\noutput p{warm}_0\ninput p0_0\ninput p0_1\n"),
    )
    .unwrap();

    let text = ok(&swh()
        .args(["store", "fsck", "--store", store_s])
        .output()
        .unwrap());
    assert!(
        text.contains("swept 1 orphaned tombstone(s), retired 0 leftover input(s)"),
        "{text}"
    );
    assert!(text.contains("2 file(s) ok"), "{text}");

    // Both hot inputs survived and still answer queries.
    let text = ok(&swh()
        .args(["lifecycle", "status", "--store", store_s])
        .output()
        .unwrap());
    assert!(
        text.contains("\"hot\":2") && text.contains("\"tombstones\":0"),
        "{text}"
    );
    ok(&swh()
        .args(["query", "--store", store_s, "--dataset", "1"])
        .output()
        .unwrap());

    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&data).ok();
}
