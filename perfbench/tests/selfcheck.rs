//! Self-check of the benchmark against `BENCHMARK.json`: every metric
//! it declares is printed with its unit, the workload lists agree, and
//! `sim_mcycles` repeats exactly on the deterministic workloads.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use mgs_core::Machine;
use mgs_perfbench::workload::{self, execute, WORKLOADS};
use mgs_perfbench::{end_to_end, layers};
use std::collections::BTreeMap;

/// A parsed JSON value (just what these checks need).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            v => panic!("not a string: {v:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            v => panic!("not an array: {v:?}"),
        }
    }
}

/// Parses one JSON document, panicking on anything malformed.
fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
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
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        assert!(
                            m.insert(k.clone(), self.value()).is_none(),
                            "duplicate key {k}"
                        );
                        if self.peek() == b'}' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                if self.peek() != b']' {
                    loop {
                        a.push(self.value());
                        if self.peek() == b']' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(a)
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Asserts that `printed` (a result line) has every metric `declared`
/// lists, with the declared unit, and nothing else.
fn assert_metrics_match(declared: &Json, printed: &Json) {
    let printed = match printed.get("metrics") {
        Json::Obj(m) => m,
        _ => panic!("metrics is not an object"),
    };
    let mut names = Vec::new();
    for m in declared.arr() {
        let name = m.get("name").str();
        let got = printed
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} not printed"));
        assert_eq!(got.get("unit").str(), m.get("unit").str(), "unit of {name}");
        assert!(matches!(got.get("value"), Json::Num(_)), "value of {name}");
        names.push(name);
    }
    let extra: Vec<_> = printed
        .keys()
        .filter(|k| !names.contains(&k.as_str()))
        .collect();
    assert!(extra.is_empty(), "printed but not declared: {extra:?}");
}

#[test]
fn workloads_match_the_declared_list() {
    let declared: Vec<_> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    let built: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(declared, built);
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let bench = benchmark_json();
    let wl = workload::find("jacobi-tight").unwrap();

    let e2e = end_to_end(wl, 1, 1.0);
    assert!(e2e.correct(), "{}", e2e.to_json());
    let line = parse(&e2e.to_json());
    assert_eq!(line.get("correct"), &Json::Bool(true));
    assert_metrics_match(bench.get("end_to_end"), &line);

    let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("selfcheck.trace.json");
    let traced = layers::run(wl, 1, 2.0, &spans);
    assert!(traced.correct(), "{}", traced.to_json());
    assert_metrics_match(bench.get("per_layer"), &parse(&traced.to_json()));
    let trace = parse(&std::fs::read_to_string(&spans).expect("span file written"));
    assert!(!trace.get("traceEvents").arr().is_empty());
}

#[test]
fn sim_mcycles_repeats_on_deterministic_workloads() {
    for name in ["jacobi-tight", "tsp-eager"] {
        let wl = workload::find(name).unwrap();
        let app = wl.app(1);
        let durations: Vec<u64> = (0..3)
            .map(|_| {
                let machine = Machine::new(wl.config(1, false));
                execute(&machine, &*app).unwrap().report.duration.raw()
            })
            .collect();
        assert!(
            durations.windows(2).all(|w| w[0] == w[1]),
            "{name}: simulated durations differ across executions: {durations:?}"
        );
    }
}
