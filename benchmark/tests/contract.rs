//! The benchmark against its contract: every workload runs (`--quick`),
//! checks its answers, and ends its output with one JSON line whose
//! metric names and units are exactly `BENCHMARK.json`'s, in order.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key:?}"))
                    .1
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn string(&mut self) -> String {
        assert!(self.eat("\""), "expected a string at byte {}", self.i);
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used in these files");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        return Json::Obj(kv);
                    }
                    let key = self.string();
                    self.ws();
                    assert!(self.eat(":"));
                    kv.push((key, self.value()));
                    self.ws();
                    self.eat(",");
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        return Json::Arr(items);
                    }
                    items.push(self.value());
                    self.ws();
                    self.eat(",");
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                assert!(self.eat("true"));
                Json::Bool(true)
            }
            b'f' => {
                assert!(self.eat("false"));
                Json::Bool(false)
            }
            b'n' => {
                assert!(self.eat("null"));
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

/// `(name, unit)` rows of one metric section.
fn section(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("spawn");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Runs one quick run and returns its closing JSON line, parsed.
fn quick(workload: &str, trace: &str) -> Json {
    let (ok, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.3",
        "--trace",
        trace,
        "--quick",
    ]);
    assert!(ok, "{workload} --trace {trace} exited non-zero:\n{stdout}");
    Json::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn benchmark_json_keeps_to_the_contract() {
    let doc = benchmark_json();
    assert_eq!(
        doc.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(doc.get("paths").arr(), [Json::Str("benchmark".into())]);
    let seconds = doc.get("run_seconds").num();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let workloads = doc.get("workloads").arr();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
        assert!(
            w.get("why").str().len() <= 200,
            "{:?} is too long",
            w.get("why")
        );
    }
    let e2e = doc.get("end_to_end").arr();
    for m in e2e {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        assert!(m.get("bound").num() > 0.0 && m.get("bound").num() <= 0.25);
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s");
    assert_eq!(
        (setup.get("unit").str(), setup.get("better").str()),
        ("s", "lower")
    );
    let widest = e2e.iter().map(|m| m.get("bound").num()).fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").num(),
        widest,
        "setup_s carries the largest bound"
    );
    for m in doc.get("per_layer").arr() {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
    }
    let mut seen = BTreeMap::new();
    for m in e2e
        .iter()
        .chain(doc.get("per_layer").arr())
        .chain(workloads)
    {
        let name = m.get("name").str();
        assert!(
            name.len() <= 64 && seen.insert(name, ()).is_none(),
            "{name} repeats"
        );
        if let Json::Obj(kv) = m {
            if let Some((_, better)) = kv.iter().find(|(k, _)| k == "better") {
                assert!(["lower", "higher"].contains(&better.str()));
            }
        }
    }
}

/// The smoke test: all four workloads, both modes, under a minute.
#[test]
fn every_workload_prints_exactly_the_catalogue() {
    let started = std::time::Instant::now();
    let doc = benchmark_json();
    for w in doc.get("workloads").arr() {
        let name = w.get("name").str();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = quick(name, trace);
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name} --trace {trace}"
            );
            assert_eq!(result.get("failed").num(), 0.0);
            assert!(result.get("attempted").num() >= 1.0);
            let printed: Vec<(String, String)> = match result.get("metrics") {
                Json::Obj(kv) => kv
                    .iter()
                    .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                    .collect(),
                other => panic!("metrics is not an object: {other:?}"),
            };
            assert_eq!(printed, section(&doc, key), "{name} --trace {trace}");
            for (metric, _) in &printed {
                let v = result.get("metrics").get(metric).get("value").num();
                assert!(v.is_finite(), "{name}: {metric} = {v}");
                if key == "end_to_end" {
                    assert!(
                        v > 0.0,
                        "{name}: end-to-end metric {metric} = {v} must never be 0"
                    );
                }
            }
        }
        let spans = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{name}.jsonl"));
        let first = std::fs::read_to_string(&spans).expect("span file");
        let first = Json::parse(first.lines().next().expect("at least one span"));
        assert_eq!(
            first.keys(),
            ["id", "name", "start_ns", "end_ns", "parent", "query_id"]
        );
    }
    assert!(
        started.elapsed().as_secs() < 60,
        "smoke took {:?}",
        started.elapsed()
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "routed_8k", "--trace", "2"],
        &["--workload", "routed_8k", "--seconds", "0"],
        &["--seed", "1"],
    ] {
        let (ok, stdout) = run(args);
        assert!(
            !ok && stdout.is_empty(),
            "{args:?} should be refused, printed {stdout:?}"
        );
    }
}
