//! The benchmark's contract with its driver and with `BENCHMARK.json`:
//! what is declared is what is emitted, the build profile is the root's,
//! and every workload runs green — oracle included — at a tiny scale.

use std::collections::BTreeMap;
use std::path::PathBuf;
use tsj_benchmark::harness::{RunArgs, Scale};
use tsj_benchmark::metrics::{MetricDecl, Report, END_TO_END, PER_LAYER, WORKLOADS};
use tsj_benchmark::workloads;

// ---------------------------------------------------------------------------
// A JSON reader just large enough for BENCHMARK.json and the result line
// (the workspace has no serde, and the benchmark adds no dependency).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value();
        p.space();
        assert_eq!(p.at, p.bytes.len(), "trailing input after the JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.space();
        assert_eq!(self.bytes.get(self.at), Some(&byte), "at byte {}", self.at);
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.space();
        *self.bytes.get(self.at).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.peek() != b'}' {
                    if !fields.is_empty() {
                        self.eat(b',');
                    }
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' => {
                let word = if self.bytes[self.at] == b't' {
                    "true"
                } else {
                    "false"
                };
                assert!(self.bytes[self.at..].starts_with(word.as_bytes()));
                self.at += word.len();
                Json::Bool(word == "true")
            }
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && b"+-.eE0123456789".contains(&self.bytes[self.at])
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    /// A string without escapes other than `\"` and `\\` — all the files
    /// read here use.
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            match self.bytes[self.at] {
                b'"' => break,
                b'\\' => {
                    out.push(self.bytes[self.at + 1]);
                    self.at += 2;
                }
                byte => {
                    out.push(byte);
                    self.at += 1;
                }
            }
        }
        self.at += 1;
        String::from_utf8(out).expect("JSON strings are UTF-8")
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> (String, Json) {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = Json::parse(&text);
    (text, json)
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().unwrap().is_ascii_alphanumeric()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

// ---------------------------------------------------------------------------
// BENCHMARK.json ↔ the binary
// ---------------------------------------------------------------------------

#[test]
fn benchmark_json_has_the_contract_shape() {
    let (text, json) = benchmark_json();
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        json.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths: Vec<&str> = json.get("paths").items().iter().map(Json::str).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = json.get("command").items().iter().map(Json::str).collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    assert!(repo_root().join(command[1]).is_file());

    let seconds = json.get("run_seconds").num();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = json.get("workloads").items();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
        let why = w.get("why").str();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    for m in json.get("end_to_end").items() {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    for m in json.get("per_layer").items() {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
    }
    assert!((1..=16).contains(&json.get("end_to_end").items().len()));
    assert!((1..=128).contains(&json.get("per_layer").items().len()));
}

fn assert_declared(declared: &[Json], emitted: &[MetricDecl]) {
    let declared: Vec<(&str, &str, &str)> = declared
        .iter()
        .map(|m| {
            (
                m.get("name").str(),
                m.get("unit").str(),
                m.get("better").str(),
            )
        })
        .collect();
    let emitted: Vec<(&str, &str, &str)> = emitted
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str()))
        .collect();
    assert_eq!(declared, emitted);
    assert!(declared.iter().all(|(name, _, _)| well_formed_name(name)));
}

#[test]
fn benchmark_json_declares_exactly_what_the_binary_emits() {
    let (_, json) = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, WORKLOADS);
    assert!(names.iter().all(|name| well_formed_name(name)));
    assert_declared(json.get("end_to_end").items(), &END_TO_END);
    assert_declared(json.get("per_layer").items(), &PER_LAYER);

    // Set-up time is declared, in seconds, lower-is-better, and no metric
    // has a larger bound.
    let bound_of = |m: &Json| m.get("bound").num();
    let e2e = json.get("end_to_end").items();
    let setup = e2e
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (setup.get("unit").str(), setup.get("better").str()),
        ("s", "lower")
    );
    assert!(e2e.iter().all(|m| bound_of(m) <= bound_of(setup)));
}

#[test]
fn release_profile_equals_the_roots() {
    let profile = |manifest: PathBuf| -> Vec<String> {
        let text = std::fs::read_to_string(&manifest).expect("manifest");
        text.lines()
            .skip_while(|line| line.trim() != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(String::from)
            .collect()
    };
    let root = profile(repo_root().join("Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(profile(repo_root().join("benchmark/Cargo.toml")), root);
}

// ---------------------------------------------------------------------------
// Every workload, tiny, with its oracle
// ---------------------------------------------------------------------------

fn tiny(trace: bool, corrupt_oracle: bool) -> RunArgs {
    RunArgs {
        seed: 7,
        seconds: 1.0,
        trace,
        corrupt_oracle,
        scale: Scale::Tiny,
        trace_dir: None,
    }
}

fn metrics_of(line: &str) -> BTreeMap<String, f64> {
    let json = Json::parse(line);
    assert_eq!(json.keys(), ["correct", "attempted", "failed", "metrics"]);
    match json.get("metrics") {
        Json::Obj(fields) => fields
            .iter()
            .map(|(name, m)| {
                assert_eq!(m.keys(), ["value", "unit"]);
                (name.clone(), m.get("value").num())
            })
            .collect(),
        other => panic!("{other:?}"),
    }
}

fn run_green(workload: &str, trace: bool) -> Report {
    let report = workloads::run(workload, &tiny(trace, false)).expect("known workload");
    assert!(report.correct(), "{workload}: {:?}", report.failures);
    assert!(report.attempted >= 1);
    report
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let report = run_green(workload, false);
        let metrics = metrics_of(&report.result_line(false));
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        declared.sort_unstable();
        assert_eq!(names, declared, "{workload}");
        assert!(
            metrics.values().all(|&v| v > 0.0),
            "{workload}: {metrics:?}"
        );
    }
}

#[test]
fn every_workload_replays_bit_identically_and_reports_every_layer_metric() {
    // What each workload must have measured itself (the rest reads 0).
    let touched: [(&str, &[&str]); 4] = [
        (
            "join_flat",
            &[
                "tree.prepare_us",
                "core.probe_ms",
                "core.candidates",
                "core.replay_coverage",
                "obs.overhead_ratio",
            ],
        ),
        (
            "join_bigtree",
            &["ted.exact_calls", "ted.exact_ms", "core.replay_coverage"],
        ),
        (
            "serve_tcp",
            &[
                "catalog.join_ms",
                "cluster.join_ms",
                "catalogd.join_shard_rtt_us",
                "catalogd.server_frames",
                "catalogd.waterfall_coverage",
                "cluster.requests_per_join",
            ],
        ),
        (
            "stream_window",
            &[
                "shard.insert_us",
                "shard.probe_us",
                "shard.evictions",
                "shard.insert_drift_ratio",
                "shard.fanout_shards",
            ],
        ),
    ];
    for (workload, must) in touched {
        // `correct` covers the bit-identity checks: the staged replay's
        // pairs, candidates, ted_calls and counters equal the one-call's.
        let report = run_green(workload, true);
        let metrics = metrics_of(&report.result_line(true));
        assert_eq!(metrics.len(), PER_LAYER.len(), "{workload}");
        for name in must {
            assert!(
                metrics[*name] > 0.0,
                "{workload}: {name} = {}",
                metrics[*name]
            );
        }
        for name in [
            "cluster.retries",
            "cluster.failovers",
            "catalogd.server_errors",
        ] {
            assert_eq!(metrics[name], 0.0, "{workload}: {name}");
        }
    }
}

#[test]
fn a_corrupted_reference_is_caught_on_every_workload() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let report = workloads::run(workload, &tiny(trace, true)).expect("known workload");
            assert!(
                !report.correct() && report.failed >= 1,
                "{workload} trace={trace}"
            );
            assert!(report.result_line(trace).starts_with("{\"correct\": false"));
        }
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    // The traced run sizes its work from `--seconds`, never from measured
    // speed, so every count-valued metric is a function of the seed.
    for workload in WORKLOADS {
        let counts = |report: &Report| -> Vec<(&'static str, f64)> {
            report
                .resolve(&PER_LAYER, true)
                .into_iter()
                .filter(|(m, _)| m.unit == "count" || m.unit == "B")
                .map(|(m, v)| (m.name, v))
                .collect()
        };
        let (a, b) = (run_green(workload, true), run_green(workload, true));
        assert_eq!(counts(&a), counts(&b), "{workload}");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(workloads::run("join_everything", &tiny(false, false)).is_none());
}
