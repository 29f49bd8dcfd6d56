//! The benchmark's own tests: metric tables against `BENCHMARK.json`, span
//! self-time arithmetic, the output comparator, and seed handling.

use crate::check::{compare, Evidence};
use crate::client::Client;
use crate::metrics::{result_line, MetricDef, Values, END_TO_END, PER_LAYER};
use crate::spans::{self_times, Span, Tracer};
use crate::summary::{end_to_end, per_layer, Measured};
use crate::workloads::{setup, RoundOut, Workload};
use crate::Args;
use laminar_core::LaminarSystem;
use laminar_runtime::{RecordingTrace, RlSystem, SystemConfig};
use laminar_workload::{Checkpoint, WorkloadGenerator};
use std::collections::BTreeMap;

/// A parsed JSON value (just enough JSON for the benchmark's own files).
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
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.b[self.i], c, "expected '{}' at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.b[self.i] != b'"' {
                    assert_ne!(self.b[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.b[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.b[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s}")))
            }
        }
    }
}

fn read(rel: &str) -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    Json::parse(&std::fs::read_to_string(&path).expect("benchmark file is readable"))
}

fn names(defs: &[MetricDef]) -> Vec<&'static str> {
    defs.iter().map(|d| d.name).collect()
}

/// A measured run with one round of the workload's shape, for checking
/// which metrics get printed.
fn measured(w: Workload, seed: u64) -> Measured {
    let mut client = Client::new();
    let inputs = setup(w, seed, &mut client);
    Measured {
        setup_secs: vec![0.01],
        gen_secs: vec![inputs.gen_s],
        inputs: Some(inputs),
        rounds: vec![
            RoundOut::default(),
            RoundOut {
                traced: true,
                ..RoundOut::default()
            },
        ],
        peak_rss_mb: 1.0,
        attempted: 1,
        failed: 0,
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let bench = read("../BENCHMARK.json");
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = bench.get(key).arr();
        assert_eq!(listed.len(), defs.len(), "{key}: metric count");
        for (j, d) in listed.iter().zip(defs) {
            assert_eq!(j.get("name").str(), d.name, "{key}: order and names");
            assert_eq!(j.get("unit").str(), d.unit, "{key}: unit of {}", d.name);
            assert_eq!(
                j.get("better").str(),
                d.better.as_str(),
                "{key}: direction of {}",
                d.name
            );
        }
    }
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn printed_names_match_benchmark_json_in_both_modes() {
    let bench = read("../BENCHMARK.json");
    let m = measured(Workload::MathLaminar, 1);
    for (key, defs, values) in [
        ("end_to_end", END_TO_END, end_to_end(&m)),
        ("per_layer", PER_LAYER, per_layer(&m, &[])),
    ] {
        let line = Json::parse(&result_line(true, 1, 0, defs, &values));
        assert_eq!(
            line.keys(),
            vec!["attempted", "correct", "failed", "metrics"]
        );
        let mut printed = line.get("metrics").keys();
        let mut listed: Vec<&str> = bench
            .get(key)
            .arr()
            .iter()
            .map(|j| j.get("name").str())
            .collect();
        printed.sort_unstable();
        listed.sort_unstable();
        assert_eq!(printed, listed, "{key}");
    }
}

#[test]
fn result_line_refuses_an_incomplete_metric_set() {
    let mut values: Values = END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
    values.remove("setup_s");
    let r = std::panic::catch_unwind(|| result_line(true, 1, 0, END_TO_END, &values));
    assert!(r.is_err());
}

#[test]
fn non_finite_values_make_the_run_incorrect() {
    let mut values: Values = END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
    values.insert("setup_s", f64::NAN);
    let line = Json::parse(&result_line(true, 1, 0, END_TO_END, &values));
    assert_eq!(line.get("correct"), &Json::Bool(false));
}

#[test]
fn host_throughput_cancels_host_speed_but_not_program_speed() {
    let rate = |op_secs: Vec<f64>, kernel: f64| {
        let rounds = [1.0, 1.3, 0.9].map(|slow| RoundOut {
            trajs: 1000,
            op_secs: op_secs.iter().map(|s| s * slow).collect(),
            op_kernel_secs: vec![kernel * slow; op_secs.len()],
            ..RoundOut::default()
        });
        let m = Measured {
            rounds: rounds.to_vec(),
            ..Measured::default()
        };
        end_to_end(&m)["host_trajs_per_s"]
    };
    let base = rate(vec![0.2, 0.3], 0.004);
    // 0.5 s per round at nominal kernel speed.
    assert!((base - 2000.0).abs() < 1e-6, "{base}");
    // A host twice as slow slows the kernel too, and cancels.
    assert!((rate(vec![0.4, 0.6], 0.008) - base).abs() < 1e-6);
    // A program twice as fast on the same host reads twice as fast.
    assert!((rate(vec![0.1, 0.15], 0.004) - 2.0 * base).abs() < 1e-6);
}

#[test]
fn self_time_subtracts_the_children_it_covers() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: None,
    };
    // round [0,100) ⊃ a [10,40) ⊃ a1 [15,20), a2 [18,30) (overlapping kids)
    //               ⊃ b [50,90)
    let tree = vec![
        span("bench.round", 0, 100, None),
        span("core.run", 10, 40, Some(0)),
        span("rollout.drive", 15, 20, Some(1)),
        span("rollout.drive", 18, 30, Some(1)),
        span("runtime.delta.verify", 50, 90, Some(0)),
    ];
    assert_eq!(self_times(&tree), vec![30, 15, 5, 12, 40]);
}

#[test]
fn tracer_nests_and_ignores_disabled_spans() {
    let mut t = Tracer::new();
    t.span("bench.round", None, || ());
    assert!(t.spans().is_empty());
    t.set_enabled(true);
    let outer = t.open("bench.round", None);
    t.span("core.run", Some(7), || ());
    t.close(outer);
    let s = t.spans();
    assert_eq!(s.len(), 2);
    assert_eq!(s[1].parent, Some(0));
    assert_eq!(s[1].op, Some(7));
    assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    for line in t.to_jsonl().lines() {
        let j = Json::parse(line);
        assert_eq!(
            j.keys(),
            vec!["end_ns", "id", "name", "op", "parent", "start_ns"]
        );
    }
}

#[test]
fn comparator_rejects_one_field_and_one_byte_changes() {
    let mut cfg = SystemConfig::small_test(WorkloadGenerator::single_turn(3, Checkpoint::Math7B));
    cfg.seed = 3;
    let mut rec = RecordingTrace::new();
    let report = LaminarSystem::default().run_traced(&cfg, &mut rec);
    let base = Evidence::of(&report, &rec);
    assert!(!base.jsonl.is_empty());
    assert_eq!(compare(&base, &base.clone()), Ok(()));

    let mut changed = report.clone();
    changed.repack_events += 1;
    assert!(compare(&base, &Evidence::of(&changed, &rec)).is_err());

    let mut bytes = base.jsonl.clone().into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] = if bytes[mid] == b'1' { b'2' } else { b'1' };
    let one_byte = Evidence {
        report: base.report.clone(),
        jsonl: String::from_utf8(bytes).expect("ascii stays utf-8"),
    };
    assert!(compare(&base, &one_byte).is_err());

    let mut shorter = base.clone();
    shorter.jsonl.pop();
    assert!(compare(&base, &shorter).is_err());
}

#[test]
fn seeds_change_inputs_but_not_metric_names() {
    for (_, w) in Workload::ALL {
        let (a, b) = (measured(w, 1), measured(w, 2));
        let (ia, ib) = (a.inputs.as_ref().unwrap(), b.inputs.as_ref().unwrap());
        assert_ne!(
            format!("{:?}", ia.probe_specs),
            format!("{:?}", ib.probe_specs),
            "{w:?}: generated trajectories must depend on the seed"
        );
        assert_eq!(ia.jobs[0].cfg.seed, 1);
        assert_eq!(ib.jobs[0].cfg.seed, 2);
        if w == Workload::ChaosCkpt {
            assert_ne!(
                ia.faults, ib.faults,
                "fault schedule must depend on the seed"
            );
        }
        let keys = |m: &Measured| {
            (
                end_to_end(m).keys().copied().collect::<Vec<_>>(),
                per_layer(m, &[]).keys().copied().collect::<Vec<_>>(),
            )
        };
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(keys(&a).0.len(), END_TO_END.len());
        assert_eq!(keys(&a).1.len(), PER_LAYER.len());
    }
    // Same seed, same inputs.
    let (a, b) = (
        measured(Workload::Tool5Sys, 9),
        measured(Workload::Tool5Sys, 9),
    );
    assert_eq!(
        format!("{:?}", a.inputs.unwrap().probe_specs),
        format!("{:?}", b.inputs.unwrap().probe_specs)
    );
}

#[test]
fn layer_notes_cover_every_per_layer_metric_once() {
    let notes = read("layers.json");
    let mut predicted = Vec::new();
    for group in notes.get("predictions").arr() {
        for key in ["moves", "on", "why"] {
            assert!(!group.get(key).str().is_empty(), "prediction without {key}");
        }
        predicted.extend(group.get("metrics").arr().iter().map(Json::str));
    }
    assert_eq!(predicted, names(PER_LAYER));
    assert!(!notes.get("unmeasured").arr().is_empty());
    for u in notes.get("unmeasured").arr() {
        assert!(!u.get("layer").str().is_empty() && !u.get("reason").str().is_empty());
    }
}

#[test]
fn args_parse_and_reject_bad_input() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let a = parse("--workload tool-5sys --seed 4 --seconds 10 --trace 1").unwrap();
    assert_eq!(a.workload, Workload::Tool5Sys);
    assert_eq!((a.seed, a.seconds, a.trace), (4, 10, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload tool-5sys --seed x --seconds 1 --trace 0",
        "--workload tool-5sys --seed 1 --seconds 0 --trace 0",
        "--workload tool-5sys --seed 1 --seconds 1 --trace 2",
        "--workload tool-5sys --seed 1 --seconds 1",
        "--workload tool-5sys --seed",
        "--bogus 1",
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}
