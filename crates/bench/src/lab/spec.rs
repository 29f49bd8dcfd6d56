//! Declarative experiment specs and their dependency-free parser.
//!
//! A spec is a TOML-subset text file (`key = value` lines plus `[section]`
//! headers — the same offline-build rule as the rest of the workspace: no
//! external parser crate). It declares *variants* (bindings over
//! system/workload/chaos knobs), a *seed set*, a *repeat count*, and
//! *regression gates*; the planner ([`crate::lab::planner`]) expands it
//! into a deterministic trial list.
//!
//! Supported value forms: `"strings"`, integers, floats, booleans, and
//! flat arrays `[1, 2, 3]`. Comments start with `#` outside strings.
//! Section order is preserved — variant declaration order is the planner's
//! expansion order, which is what keeps trial lists order-stable.

use laminar_core::SystemKind;
use laminar_workload::{Checkpoint, WorkloadGenerator};

/// A parsed scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Quoted string.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// Flat array of scalars.
    List(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::List(_) => "array",
        }
    }

    fn as_u64(&self, key: &str) -> Result<u64, String> {
        match self {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(format!(
                "{key}: expected a non-negative integer, got {}",
                other.type_name()
            )),
        }
    }

    fn as_usize(&self, key: &str) -> Result<usize, String> {
        self.as_u64(key).map(|v| v as usize)
    }

    fn as_f64(&self, key: &str) -> Result<f64, String> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(format!(
                "{key}: expected a number, got {}",
                other.type_name()
            )),
        }
    }

    fn as_str(&self, key: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!(
                "{key}: expected a string, got {}",
                other.type_name()
            )),
        }
    }

    fn as_u64_list(&self, key: &str) -> Result<Vec<u64>, String> {
        match self {
            Value::List(xs) => xs.iter().map(|v| v.as_u64(key)).collect(),
            other => Err(format!(
                "{key}: expected an integer array, got {}",
                other.type_name()
            )),
        }
    }
}

/// One `[path.to.section]` with its `key = value` entries in file order.
#[derive(Debug, Clone)]
pub struct Section {
    /// Dotted header path (empty for the root section).
    pub path: Vec<String>,
    /// Entries in declaration order.
    pub entries: Vec<(String, Value)>,
}

impl Section {
    fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(s: &str, lineno: usize) -> Result<Value, String> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(format!("line {lineno}: unterminated string"));
        };
        return Ok(Value::Str(
            inner.replace("\\\"", "\"").replace("\\\\", "\\"),
        ));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = s.parse::<f64>() {
        if f.is_finite() {
            return Ok(Value::Float(f));
        }
    }
    Err(format!("line {lineno}: unrecognized value `{s}`"))
}

fn parse_value(s: &str, lineno: usize) -> Result<Value, String> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(format!("line {lineno}: unterminated array"));
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Value::List(Vec::new()));
        }
        // Split on top-level commas, respecting quoted strings.
        let mut items = Vec::new();
        let mut start = 0usize;
        let mut in_str = false;
        for (i, c) in inner.char_indices() {
            match c {
                '"' => in_str = !in_str,
                ',' if !in_str => {
                    items.push(parse_scalar(&inner[start..i], lineno)?);
                    start = i + 1;
                }
                _ => {}
            }
        }
        items.push(parse_scalar(&inner[start..], lineno)?);
        return Ok(Value::List(items));
    }
    parse_scalar(s, lineno)
}

/// Parses spec text into ordered sections. The root (header-less) section
/// comes first when it has entries.
pub fn parse_sections(text: &str) -> Result<Vec<Section>, String> {
    let mut sections = vec![Section {
        path: Vec::new(),
        entries: Vec::new(),
    }];
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(inner) = rest.strip_suffix(']') else {
                return Err(format!("line {lineno}: malformed section header"));
            };
            let path: Vec<String> = inner.split('.').map(|p| p.trim().to_string()).collect();
            if path.iter().any(String::is_empty) {
                return Err(format!("line {lineno}: empty section path component"));
            }
            sections.push(Section {
                path,
                entries: Vec::new(),
            });
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let key = k.trim().to_string();
        if key.is_empty() {
            return Err(format!("line {lineno}: empty key"));
        }
        let value = parse_value(v, lineno)?;
        sections
            .last_mut()
            .expect("root section always present")
            .entries
            .push((key, value));
    }
    Ok(sections)
}

/// Which workload generator a variant binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Single-turn math reasoning.
    SingleTurn,
    /// Multi-turn tool calling.
    MultiTurn,
}

impl WorkloadKind {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "single-turn" => Ok(WorkloadKind::SingleTurn),
            "multi-turn" => Ok(WorkloadKind::MultiTurn),
            other => Err(format!(
                "unknown workload `{other}` (expected single-turn | multi-turn)"
            )),
        }
    }

    /// Spec-file spelling.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::SingleTurn => "single-turn",
            WorkloadKind::MultiTurn => "multi-turn",
        }
    }

    /// Builds the generator seeded with `seed`.
    pub fn generator(&self, seed: u64) -> WorkloadGenerator {
        match self {
            WorkloadKind::SingleTurn => WorkloadGenerator::single_turn(seed, Checkpoint::Math7B),
            WorkloadKind::MultiTurn => WorkloadGenerator::multi_turn(seed),
        }
    }
}

pub(crate) fn parse_system(s: &str) -> Result<SystemKind, String> {
    match s {
        "verl" => Ok(SystemKind::Verl),
        "one-step" => Ok(SystemKind::OneStep),
        "stream-gen" => Ok(SystemKind::StreamGen),
        "partial-rollout" | "AReaL" => Ok(SystemKind::PartialRollout),
        "laminar" | "Laminar" => Ok(SystemKind::Laminar),
        other => Err(format!(
            "unknown system `{other}` (expected verl | one-step | stream-gen | partial-rollout | laminar)"
        )),
    }
}

/// One variant: a named binding of system/workload/chaos knobs that every
/// (seed, repeat) pair in the spec is run under.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Variant name — the `NAME` of its `[variant.NAME]` section.
    pub name: String,
    /// System under test.
    pub system: SystemKind,
    /// Workload generator.
    pub workload: WorkloadKind,
    /// Total cluster GPUs (split train/rollout by the system's placement).
    pub gpus: usize,
    /// Measured training iterations.
    pub iterations: usize,
    /// Warmup iterations excluded from measurement.
    pub warmup: usize,
    /// Delta-checkpoint cadence in virtual seconds; `0` (the default)
    /// disables checkpoint validation. When positive, every trial
    /// additionally runs `check_resume_equivalence` at this cadence,
    /// resuming from the final checkpoint only, and reports `ckpt_*`
    /// metrics (equivalence verdict, delta-vs-whole bytes, steady-state
    /// ratio). Laminar-only, like the chaos knobs.
    pub checkpoint_every_secs: f64,
    /// Faults per generated chaos schedule; `0` disables fault injection.
    /// Chaos knobs require `system = "laminar"` (the invariant-checked
    /// chaos path is Laminar-only).
    pub chaos_events: usize,
    /// Earliest fault injection time, virtual seconds.
    pub chaos_earliest_secs: f64,
    /// Latest fault injection time, virtual seconds.
    pub chaos_horizon_secs: f64,
    /// Laminar cells behind the fleet admission router; `0` (the default)
    /// means this is a single-system variant, not a fleet one. A positive
    /// value switches the trial onto the fleet control-plane driver
    /// (`laminar_fleet::run_fleet`) and is incompatible with the
    /// single-system knobs (`chaos_events`, `checkpoint_every_secs`).
    pub fleet_cells: usize,
    /// Concurrency capacity per fleet cell.
    pub fleet_cell_capacity: usize,
    /// Tenant classes in the fleet's mixed workload (cycles math-RL,
    /// agentic tool-call, long-context).
    pub fleet_tenant_classes: usize,
    /// Arrival window of the fleet run, virtual seconds.
    pub fleet_horizon_secs: f64,
    /// Faults per generated fleet chaos schedule; `0` runs the fleet clean.
    pub fleet_chaos_events: usize,
    /// Earliest fleet fault injection time, virtual seconds.
    pub fleet_chaos_earliest_secs: f64,
    /// Latest fleet fault injection time, virtual seconds.
    pub fleet_chaos_horizon_secs: f64,
}

/// Summary statistic a gate reads from the aggregated rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Median.
    P50,
    /// 95th percentile.
    P95,
}

impl Stat {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mean" => Ok(Stat::Mean),
            "min" => Ok(Stat::Min),
            "max" => Ok(Stat::Max),
            "p50" => Ok(Stat::P50),
            "p95" => Ok(Stat::P95),
            other => Err(format!(
                "unknown stat `{other}` (expected mean | min | max | p50 | p95)"
            )),
        }
    }

    /// Spec-file spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Stat::Mean => "mean",
            Stat::Min => "min",
            Stat::Max => "max",
            Stat::P50 => "p50",
            Stat::P95 => "p95",
        }
    }
}

/// What a gate compares the measured statistic against.
#[derive(Debug, Clone, PartialEq)]
pub enum GateBaseline {
    /// A committed rows-JSONL file, resolved relative to the spec file.
    File(String),
    /// Another variant of the same run.
    Variant(String),
}

/// One regression gate: a per-metric threshold generalizing the 20% rule
/// of `scripts/bench.sh`.
#[derive(Debug, Clone, PartialEq)]
pub struct GateSpec {
    /// Gate name — the `NAME` of its `[gate.NAME]` section.
    pub name: String,
    /// Metric key in the trial rows (e.g. `throughput`, `violations`).
    pub metric: String,
    /// Variant whose aggregate is checked.
    pub variant: String,
    /// Statistic compared.
    pub stat: Stat,
    /// Comparison target.
    pub baseline: GateBaseline,
    /// Fail when `value < (1 - max_drop) * base`.
    pub max_drop: Option<f64>,
    /// Fail when `value > (1 + max_growth) * base`.
    pub max_growth: Option<f64>,
    /// Fail when `value < min_ratio * base`.
    pub min_ratio: Option<f64>,
    /// Fail when `value > max_ratio * base`.
    pub max_ratio: Option<f64>,
}

/// Quick-mode shrink overrides (`[quick]` section): applied to every
/// variant by [`LabSpec::apply_quick`] so one spec file documents both the
/// paper-sized study and its minutes-scale CI shape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuickOverrides {
    /// Truncates the seed set.
    pub seed_count: Option<usize>,
    /// Overrides every variant's `gpus`.
    pub gpus: Option<usize>,
    /// Overrides every variant's `iterations`.
    pub iterations: Option<usize>,
    /// Overrides every variant's `chaos_horizon_secs`.
    pub chaos_horizon_secs: Option<f64>,
}

/// A fully parsed experiment spec: variants × seeds × repeats plus gates.
#[derive(Debug, Clone, PartialEq)]
pub struct LabSpec {
    /// Study name; output files are named after it.
    pub name: String,
    /// Seed set, expanded in order for every variant.
    pub seeds: Vec<u64>,
    /// Repeats per (variant, seed) — determinism proof runs use ≥ 2.
    pub repeats: u32,
    /// Seed for the workload/data RNG of chaos variants (whose trial seed
    /// drives the fault schedule instead).
    pub data_seed: u64,
    /// Variants in declaration order.
    pub variants: Vec<VariantSpec>,
    /// Regression gates in declaration order.
    pub gates: Vec<GateSpec>,
    /// `[quick]` shrink overrides (not yet applied).
    pub quick: QuickOverrides,
}

impl LabSpec {
    /// Parses spec text. Fails with a line-numbered message on malformed
    /// syntax and with a keyed message on unknown fields or inconsistent
    /// bindings (e.g. chaos knobs on a baseline system).
    pub fn parse(text: &str) -> Result<LabSpec, String> {
        let sections = parse_sections(text)?;
        let mut spec = LabSpec {
            name: String::new(),
            seeds: Vec::new(),
            repeats: 1,
            data_seed: 7,
            variants: Vec::new(),
            gates: Vec::new(),
            quick: QuickOverrides::default(),
        };
        let mut seed_base: Option<u64> = None;
        let mut seed_count: Option<usize> = None;
        for sec in &sections {
            match sec.path.first().map(String::as_str) {
                None => {
                    for (k, v) in &sec.entries {
                        match k.as_str() {
                            "name" => spec.name = v.as_str(k)?.to_string(),
                            "seeds" => spec.seeds = v.as_u64_list(k)?,
                            "seed_base" => seed_base = Some(v.as_u64(k)?),
                            "seed_count" => seed_count = Some(v.as_usize(k)?),
                            "repeats" => spec.repeats = v.as_u64(k)?.max(1) as u32,
                            "data_seed" => spec.data_seed = v.as_u64(k)?,
                            other => return Err(format!("unknown top-level key `{other}`")),
                        }
                    }
                }
                Some("variant") => {
                    let name = sec
                        .path
                        .get(1)
                        .ok_or("variant sections are named: [variant.NAME]")?
                        .clone();
                    spec.variants.push(parse_variant(name, sec)?);
                }
                Some("gate") => {
                    let name = sec
                        .path
                        .get(1)
                        .ok_or("gate sections are named: [gate.NAME]")?
                        .clone();
                    spec.gates.push(parse_gate(name, sec)?);
                }
                Some("quick") => {
                    for (k, v) in &sec.entries {
                        match k.as_str() {
                            "seed_count" => spec.quick.seed_count = Some(v.as_usize(k)?),
                            "gpus" => spec.quick.gpus = Some(v.as_usize(k)?),
                            "iterations" => spec.quick.iterations = Some(v.as_usize(k)?),
                            "chaos_horizon_secs" => {
                                spec.quick.chaos_horizon_secs = Some(v.as_f64(k)?)
                            }
                            other => return Err(format!("unknown [quick] key `{other}`")),
                        }
                    }
                }
                Some(other) => return Err(format!("unknown section `[{other}]`")),
            }
        }
        if spec.seeds.is_empty() {
            let base = seed_base.ok_or("spec needs `seeds = [...]` or `seed_base`")?;
            let count = seed_count.unwrap_or(1) as u64;
            spec.seeds = (0..count).map(|k| base + k).collect();
        }
        if spec.name.is_empty() {
            return Err("spec needs a `name`".to_string());
        }
        if spec.variants.is_empty() {
            return Err("spec needs at least one [variant.NAME] section".to_string());
        }
        {
            let mut names: Vec<&str> = spec.variants.iter().map(|v| v.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            if names.len() != spec.variants.len() {
                return Err("variant names must be unique".to_string());
            }
        }
        for g in &spec.gates {
            let known = |n: &str| spec.variants.iter().any(|v| v.name == n);
            if !known(&g.variant) {
                return Err(format!(
                    "gate `{}`: unknown variant `{}`",
                    g.name, g.variant
                ));
            }
            if let GateBaseline::Variant(v) = &g.baseline {
                if !known(v) {
                    return Err(format!("gate `{}`: unknown baseline variant `{v}`", g.name));
                }
            }
        }
        Ok(spec)
    }

    /// Applies the `[quick]` shrink overrides in place.
    pub fn apply_quick(&mut self) {
        if let Some(n) = self.quick.seed_count {
            self.seeds.truncate(n.max(1));
        }
        for v in &mut self.variants {
            if let Some(g) = self.quick.gpus {
                v.gpus = g;
            }
            if let Some(i) = self.quick.iterations {
                v.iterations = i;
            }
            if let Some(h) = self.quick.chaos_horizon_secs {
                v.chaos_horizon_secs = h;
            }
        }
    }

    /// Re-roots the seed set at `base`, keeping its length — how the legacy
    /// `--chaos-seed` / `--recovery-seed` flags alias onto a spec.
    pub fn reseed(&mut self, base: u64) {
        let n = self.seeds.len() as u64;
        self.seeds = (0..n).map(|k| base + k).collect();
    }
}

fn parse_variant(name: String, sec: &Section) -> Result<VariantSpec, String> {
    let mut v = VariantSpec {
        name,
        system: SystemKind::Laminar,
        workload: WorkloadKind::SingleTurn,
        gpus: 16,
        iterations: 2,
        warmup: 0,
        checkpoint_every_secs: 0.0,
        chaos_events: 0,
        chaos_earliest_secs: 10.0,
        chaos_horizon_secs: 240.0,
        fleet_cells: 0,
        fleet_cell_capacity: 12,
        fleet_tenant_classes: 3,
        fleet_horizon_secs: 420.0,
        fleet_chaos_events: 0,
        fleet_chaos_earliest_secs: 60.0,
        fleet_chaos_horizon_secs: 300.0,
    };
    let mut fleet_knob_seen = false;
    for (k, val) in &sec.entries {
        if k.starts_with("fleet_") && k != "fleet_cells" {
            fleet_knob_seen = true;
        }
        match k.as_str() {
            "system" => v.system = parse_system(val.as_str(k)?)?,
            "workload" => v.workload = WorkloadKind::parse(val.as_str(k)?)?,
            "gpus" => v.gpus = val.as_usize(k)?,
            "iterations" => v.iterations = val.as_usize(k)?,
            "warmup" => v.warmup = val.as_usize(k)?,
            "checkpoint_every_secs" => v.checkpoint_every_secs = val.as_f64(k)?,
            "chaos_events" => v.chaos_events = val.as_usize(k)?,
            "chaos_earliest_secs" => v.chaos_earliest_secs = val.as_f64(k)?,
            "chaos_horizon_secs" => v.chaos_horizon_secs = val.as_f64(k)?,
            "fleet_cells" => v.fleet_cells = val.as_usize(k)?,
            "fleet_cell_capacity" => v.fleet_cell_capacity = val.as_usize(k)?,
            "fleet_tenant_classes" => v.fleet_tenant_classes = val.as_usize(k)?,
            "fleet_horizon_secs" => v.fleet_horizon_secs = val.as_f64(k)?,
            "fleet_chaos_events" => v.fleet_chaos_events = val.as_usize(k)?,
            "fleet_chaos_earliest_secs" => v.fleet_chaos_earliest_secs = val.as_f64(k)?,
            "fleet_chaos_horizon_secs" => v.fleet_chaos_horizon_secs = val.as_f64(k)?,
            other => return Err(format!("variant `{}`: unknown knob `{other}`", v.name)),
        }
    }
    if fleet_knob_seen && v.fleet_cells == 0 {
        return Err(format!(
            "variant `{}`: fleet_* knobs require fleet_cells > 0",
            v.name
        ));
    }
    if v.fleet_cells > 0 && (v.chaos_events > 0 || v.checkpoint_every_secs > 0.0) {
        return Err(format!(
            "variant `{}`: fleet_cells is incompatible with chaos_events \
             and checkpoint_every_secs (the fleet driver replaces the single-system run)",
            v.name
        ));
    }
    if v.fleet_cells > 0 && (v.fleet_cell_capacity == 0 || v.fleet_tenant_classes == 0) {
        return Err(format!(
            "variant `{}`: fleet_cell_capacity and fleet_tenant_classes must be positive",
            v.name
        ));
    }
    if v.chaos_events > 0 && v.system != SystemKind::Laminar {
        return Err(format!(
            "variant `{}`: chaos_events requires system = \"laminar\"",
            v.name
        ));
    }
    if v.checkpoint_every_secs < 0.0 {
        return Err(format!(
            "variant `{}`: checkpoint_every_secs must be non-negative",
            v.name
        ));
    }
    if v.checkpoint_every_secs > 0.0 && v.system != SystemKind::Laminar {
        return Err(format!(
            "variant `{}`: checkpoint_every_secs requires system = \"laminar\"",
            v.name
        ));
    }
    if v.gpus == 0 || v.iterations == 0 {
        return Err(format!(
            "variant `{}`: gpus and iterations must be positive",
            v.name
        ));
    }
    Ok(v)
}

fn parse_gate(name: String, sec: &Section) -> Result<GateSpec, String> {
    let metric = sec
        .get("metric")
        .ok_or_else(|| format!("gate `{name}`: missing `metric`"))?
        .as_str("metric")?
        .to_string();
    let variant = sec
        .get("variant")
        .ok_or_else(|| format!("gate `{name}`: missing `variant`"))?
        .as_str("variant")?
        .to_string();
    let stat = match sec.get("stat") {
        Some(v) => Stat::parse(v.as_str("stat")?)?,
        None => Stat::Mean,
    };
    let baseline = match (sec.get("baseline"), sec.get("baseline_variant")) {
        (Some(f), None) => GateBaseline::File(f.as_str("baseline")?.to_string()),
        (None, Some(v)) => GateBaseline::Variant(v.as_str("baseline_variant")?.to_string()),
        (Some(_), Some(_)) => {
            return Err(format!(
                "gate `{name}`: `baseline` and `baseline_variant` are mutually exclusive"
            ))
        }
        (None, None) => {
            return Err(format!(
                "gate `{name}`: needs `baseline` (rows file) or `baseline_variant`"
            ))
        }
    };
    let opt = |key: &str| -> Result<Option<f64>, String> {
        sec.get(key).map(|v| v.as_f64(key)).transpose()
    };
    let g = GateSpec {
        name,
        metric,
        variant,
        stat,
        baseline,
        max_drop: opt("max_drop")?,
        max_growth: opt("max_growth")?,
        min_ratio: opt("min_ratio")?,
        max_ratio: opt("max_ratio")?,
    };
    for (key, _) in &sec.entries {
        if !matches!(
            key.as_str(),
            "metric"
                | "variant"
                | "stat"
                | "baseline"
                | "baseline_variant"
                | "max_drop"
                | "max_growth"
                | "min_ratio"
                | "max_ratio"
        ) {
            return Err(format!("gate `{}`: unknown key `{key}`", g.name));
        }
    }
    if g.max_drop.is_none()
        && g.max_growth.is_none()
        && g.min_ratio.is_none()
        && g.max_ratio.is_none()
    {
        return Err(format!(
            "gate `{}`: needs at least one bound (max_drop | max_growth | min_ratio | max_ratio)",
            g.name
        ));
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
# a tiny study
name = "demo"
seed_base = 5
seed_count = 3
repeats = 2
data_seed = 11

[variant.laminar]
system = "laminar"
workload = "single-turn"
gpus = 32
iterations = 3
chaos_events = 4
chaos_horizon_secs = 120.0

[variant.verl]
system = "verl"
workload = "multi-turn"
gpus = 32

[gate.tp]
metric = "throughput"
variant = "laminar"
stat = "mean"
baseline_variant = "verl"
min_ratio = 1.0

[quick]
seed_count = 2
gpus = 16
"#;

    #[test]
    fn parses_full_spec() {
        let s = LabSpec::parse(SPEC).expect("parse");
        assert_eq!(s.name, "demo");
        assert_eq!(s.seeds, vec![5, 6, 7]);
        assert_eq!(s.repeats, 2);
        assert_eq!(s.data_seed, 11);
        assert_eq!(s.variants.len(), 2);
        assert_eq!(s.variants[0].name, "laminar");
        assert_eq!(s.variants[0].chaos_events, 4);
        assert_eq!(s.variants[1].system, SystemKind::Verl);
        assert_eq!(s.variants[1].workload, WorkloadKind::MultiTurn);
        assert_eq!(s.gates.len(), 1);
        assert_eq!(s.gates[0].baseline, GateBaseline::Variant("verl".into()));
    }

    #[test]
    fn quick_overrides_apply() {
        let mut s = LabSpec::parse(SPEC).expect("parse");
        s.apply_quick();
        assert_eq!(s.seeds, vec![5, 6]);
        assert!(s.variants.iter().all(|v| v.gpus == 16));
    }

    #[test]
    fn reseed_keeps_length() {
        let mut s = LabSpec::parse(SPEC).expect("parse");
        s.reseed(100);
        assert_eq!(s.seeds, vec![100, 101, 102]);
    }

    #[test]
    fn explicit_seed_list_wins() {
        let s = LabSpec::parse("name = \"x\"\nseeds = [9, 4, 4]\n[variant.a]\nsystem = \"verl\"")
            .expect("parse");
        assert_eq!(s.seeds, vec![9, 4, 4]);
    }

    #[test]
    fn checkpoint_knob_parses_and_is_laminar_only() {
        let s = LabSpec::parse(
            "name = \"x\"\nseeds = [1]\n[variant.a]\nsystem = \"laminar\"\ncheckpoint_every_secs = 5.0",
        )
        .expect("parse");
        assert_eq!(s.variants[0].checkpoint_every_secs, 5.0);
        let err = LabSpec::parse(
            "name = \"x\"\nseeds = [1]\n[variant.a]\nsystem = \"verl\"\ncheckpoint_every_secs = 5.0",
        )
        .unwrap_err();
        assert!(err.contains("checkpoint_every_secs"), "{err}");
        let err = LabSpec::parse(
            "name = \"x\"\nseeds = [1]\n[variant.a]\nsystem = \"laminar\"\ncheckpoint_every_secs = -1.0",
        )
        .unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
    }

    #[test]
    fn fleet_knobs_parse_and_exclude_single_system_knobs() {
        let s = LabSpec::parse(
            "name = \"x\"\nseeds = [1]\n[variant.a]\nfleet_cells = 4\n\
             fleet_tenant_classes = 3\nfleet_chaos_events = 3\nfleet_horizon_secs = 300.0",
        )
        .expect("parse");
        assert_eq!(s.variants[0].fleet_cells, 4);
        assert_eq!(s.variants[0].fleet_chaos_events, 3);
        assert_eq!(s.variants[0].fleet_horizon_secs, 300.0);
        let err = LabSpec::parse("name = \"x\"\nseeds = [1]\n[variant.a]\nfleet_chaos_events = 3")
            .unwrap_err();
        assert!(err.contains("fleet_cells > 0"), "{err}");
        let err = LabSpec::parse(
            "name = \"x\"\nseeds = [1]\n[variant.a]\nfleet_cells = 4\nchaos_events = 2",
        )
        .unwrap_err();
        assert!(err.contains("incompatible"), "{err}");
        let err = LabSpec::parse(
            "name = \"x\"\nseeds = [1]\n[variant.a]\nfleet_cells = 4\ncheckpoint_every_secs = 5.0",
        )
        .unwrap_err();
        assert!(err.contains("incompatible"), "{err}");
    }

    #[test]
    fn rejects_chaos_on_baseline() {
        let err = LabSpec::parse(
            "name = \"x\"\nseeds = [1]\n[variant.a]\nsystem = \"verl\"\nchaos_events = 2",
        )
        .unwrap_err();
        assert!(err.contains("chaos_events"), "{err}");
    }

    #[test]
    fn rejects_unknown_knob_and_bad_gate() {
        assert!(
            LabSpec::parse("name = \"x\"\nseeds = [1]\n[variant.a]\nbogus = 1")
                .unwrap_err()
                .contains("unknown knob")
        );
        let err = LabSpec::parse(
            "name = \"x\"\nseeds = [1]\n[variant.a]\nsystem = \"verl\"\n\
             [gate.g]\nmetric = \"throughput\"\nvariant = \"a\"\nbaseline_variant = \"a\"",
        )
        .unwrap_err();
        assert!(err.contains("at least one bound"), "{err}");
    }

    #[test]
    fn comments_and_strings() {
        let secs = parse_sections("a = \"x # not a comment\" # real\nb = 2").expect("parse");
        assert_eq!(secs[0].entries[0].1, Value::Str("x # not a comment".into()));
        assert_eq!(secs[0].entries[1].1, Value::Int(2));
    }

    #[test]
    fn value_forms() {
        let secs = parse_sections("a = [1, 2.5, \"s\", true]\nb = -3\nc = 0.25").expect("parse");
        assert_eq!(
            secs[0].entries[0].1,
            Value::List(vec![
                Value::Int(1),
                Value::Float(2.5),
                Value::Str("s".into()),
                Value::Bool(true)
            ])
        );
        assert_eq!(secs[0].entries[1].1, Value::Int(-3));
        assert_eq!(secs[0].entries[2].1, Value::Float(0.25));
    }
}
