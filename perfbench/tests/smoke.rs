//! The benchmark's own tests: tiny-size runs of every workload through
//! the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A parsed JSON value (just enough JSON for the benchmark's output).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key}")).1
            }
            other => panic!("{other:?} is not an object"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("{other:?} is not a number"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
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
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
    v
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
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {:?} at byte {}", c as char, self.i);
        self.i += 1;
    }
    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
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
                    let Json::Str(k) = self.value() else { panic!("object key is not a string") };
                    self.eat(b':');
                    fields.push((k, self.value()));
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
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s[self.i] {
                        b'"' => break,
                        b'\\' => {
                            self.i += 1;
                            out.push(match self.s[self.i] {
                                b'n' => '\n',
                                b't' => '\t',
                                c => c as char,
                            });
                        }
                        c => out.push(c as char),
                    }
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    num => Json::Num(num.parse().unwrap_or_else(|_| panic!("bad number {num:?}"))),
                }
            }
        }
    }
}

/// Runs the binary in the test scratch directory, where a traced run
/// writes its `.bench_out/` trace.
fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env_remove("CUBEBENCH_THREADS")
        .env_remove("CUBERUN_WORKERS")
        .env_remove("CUBEBENCH_INPLACE_MIN")
        .output()
        .expect("run perfbench")
}

/// Runs a tiny workload and returns its result line, parsed.
fn tiny(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Json {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--size",
        "tiny",
    ];
    args.extend_from_slice(extra);
    let out = bench(&args);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    parse(stdout.lines().last().expect("no output"))
}

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).unwrap())
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `section`.
fn listed(section: &str) -> Vec<(String, String)> {
    let m = manifest();
    m.get(section)
        .items()
        .iter()
        .map(|x| (x.get("name").str().to_string(), x.get("unit").str().to_string()))
        .collect()
}

const WORKLOADS: [&str; 3] = ["ipsc-driver", "route-plan", "spmd-runtime"];

#[test]
fn workloads_match_the_manifest() {
    let m = manifest();
    let names: Vec<&str> = m.get("workloads").items().iter().map(|w| w.get("name").str()).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let r = tiny(workload, "7", trace, &[]);
            assert_eq!(r.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.get("correct"), &Json::Bool(true), "{workload} trace {trace}: {r:?}");
            assert_eq!(r.get("failed").num(), 0.0);
            assert!(r.get("attempted").num() >= 1.0);
            let metrics = r.get("metrics");
            let want = listed(section);
            assert_eq!(metrics.keys(), want.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>());
            for (name, unit) in want {
                let m = metrics.get(&name);
                assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
                assert!(m.get("value").num().is_finite(), "{workload}: {name} = {m:?}");
                if section == "end_to_end" {
                    assert!(m.get("value").num() > 0.0, "{workload}: {name} is not positive");
                }
            }
        }
    }
}

#[test]
fn corrupted_output_is_counted_as_failed() {
    for workload in WORKLOADS {
        let r = tiny(workload, "3", "0", &["--corrupt"]);
        assert_eq!(r.get("correct"), &Json::Bool(false), "{workload}");
        // Every op's output is damaged, so every op fails its check.
        assert!(r.get("failed").num() >= 1.0, "{workload}");
        assert_eq!(r.get("failed").num(), r.get("attempted").num(), "{workload}");
    }
}

#[test]
fn trace_parses_and_spans_nest() {
    for workload in WORKLOADS {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
        let r = tiny(workload, "5", "1", &[]);
        let path = dir.join(format!(".bench_out/trace-{workload}-seed5.json"));
        assert_eq!(r.get("correct"), &Json::Bool(true));
        let trace = parse(&std::fs::read_to_string(&path).unwrap());
        let events = trace.get("traceEvents").items();
        assert!(!events.is_empty());
        let span = |e: &Json| (e.get("ts").num(), e.get("ts").num() + e.get("dur").num());
        let mut roots = 0;
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.get("ph").str(), "X");
            let args = e.get("args");
            assert_eq!(args.get("id").num(), i as f64);
            match args.get("parent") {
                Json::Null => roots += 1,
                p => {
                    let parent = &events[p.num() as usize];
                    let ((s, t), (ps, pt)) = (span(e), span(parent));
                    assert!(
                        s >= ps - 1e-6 && t <= pt + 1e-6,
                        "{workload}: event {i} escapes its parent"
                    );
                    assert_eq!(args.get("op"), parent.get("args").get("op"));
                }
            }
        }
        assert!(roots >= 1);
    }
}

#[test]
fn pinned_environment_is_refused() {
    for var in ["CUBEBENCH_THREADS", "CUBERUN_WORKERS", "CUBEBENCH_INPLACE_MIN"] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "ipsc-driver", "--seed", "1", "--seconds", "1", "--trace", "0"])
            .env(var, "1")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let out = bench(&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
