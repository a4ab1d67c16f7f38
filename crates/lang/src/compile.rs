//! Lowering from the `.psn` AST onto the workspace structures.
//!
//! One [`ScenarioDef`] becomes a [`CompiledScenario`]: a generated
//! [`psn_world::Scenario`] (world topology + mobility from the named
//! parameterized generator), an
//! [`psn_core::ExecutionConfig`] (clock discipline, strobes, network and
//! shard setup, fault script), and the named
//! [`psn_predicates::Predicate`]s with variables resolved against the
//! generated world's objects and attributes.
//!
//! Compilation is *total over spans*: every rejection is a
//! [`Diagnostic`] pointing at the offending token, and the compiler
//! keeps going where it can so one `--check` run reports as much as
//! possible.

use std::collections::BTreeMap;

use psn_core::{ClockConfig, ExecutionConfig, TraceStampMode};
use psn_predicates::{Conjunct, Discipline, Expr, Predicate};
use psn_sim::delay::DelayModel;
use psn_sim::fault::{
    ChannelEffect, ChannelFaultRule, ChaosConfig, ClockFaultKind, CutPolicy, FaultScript, FaultSpec,
};
use psn_sim::loss::LossModel;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::{exhibition, habitat, hospital, office, structure};
use psn_world::{AttrKey, Scenario};

use crate::ast::*;
use crate::diag::{Diagnostic, Span, Spanned};
use crate::parser::parse;

/// A fully lowered scenario, ready to run through the engine.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// The scenario name from the source.
    pub name: String,
    /// The master seed (world generation and execution).
    pub seed: u64,
    /// The generated world run.
    pub scenario: Scenario,
    /// The engine configuration (clocks, strobes, network, shards,
    /// faults).
    pub config: ExecutionConfig,
    /// Named predicates with resolved variables.
    pub predicates: Vec<CompiledPredicate>,
    /// The run-level detection discipline (`run { discipline ... }`,
    /// vector strobes by default).
    pub discipline: Discipline,
}

/// One named, lowered predicate.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    /// The quoted name from the source.
    pub name: String,
    /// The lowered predicate.
    pub predicate: Predicate,
}

/// Parse + compile in one step.
pub fn compile(source: &str) -> Result<CompiledScenario, Vec<Diagnostic>> {
    compile_def(&parse(source)?)
}

/// Parse + type-check without keeping the result (the `--check` mode).
pub fn check(source: &str) -> Result<(), Vec<Diagnostic>> {
    compile(source).map(|_| ())
}

/// Typed field-value extraction helpers.
struct FieldReader<'a> {
    diags: &'a mut Vec<Diagnostic>,
}

impl FieldReader<'_> {
    fn mismatch<T>(&mut self, f: &Field, want: &str) -> Option<T> {
        self.diags.push(Diagnostic::new(
            f.value.span,
            format!("field `{}` expects {want}, found a {}", f.name.node, f.value.node.kind()),
        ));
        None
    }

    fn usize(&mut self, f: &Field) -> Option<usize> {
        match f.value.node {
            Value::Int(v) if v >= 0 => Some(v as usize),
            _ => self.mismatch(f, "a non-negative integer"),
        }
    }

    fn i64(&mut self, f: &Field) -> Option<i64> {
        match f.value.node {
            Value::Int(v) => Some(v),
            _ => self.mismatch(f, "an integer"),
        }
    }

    fn f64(&mut self, f: &Field) -> Option<f64> {
        match f.value.node {
            Value::Int(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => self.mismatch(f, "a number"),
        }
    }

    fn bool(&mut self, f: &Field) -> Option<bool> {
        match f.value.node {
            Value::Bool(v) => Some(v),
            _ => self.mismatch(f, "`true` or `false`"),
        }
    }

    fn duration(&mut self, f: &Field) -> Option<SimDuration> {
        match f.value.node {
            Value::Dur(ns) => Some(SimDuration::from_nanos(ns)),
            _ => self.mismatch(f, "a duration (like `300ms` or `20s`)"),
        }
    }

    fn time(&mut self, f: &Field) -> Option<SimTime> {
        match f.value.node {
            Value::Dur(ns) => Some(SimTime::from_nanos(ns)),
            _ => self.mismatch(f, "a duration (like `300ms` or `20s`)"),
        }
    }

    fn ident<'f>(&mut self, f: &'f Field) -> Option<&'f str> {
        match &f.value.node {
            Value::Ident(s) => Some(s.as_str()),
            _ => self.mismatch(f, "an identifier"),
        }
    }
}

fn unknown_field(diags: &mut Vec<Diagnostic>, f: &Field, block: &str, known: &[&str]) {
    diags.push(Diagnostic::new(
        f.name.span,
        format!("unknown {block} field `{}` (known: {})", f.name.node, known.join(", ")),
    ));
}

/// The compile-time constant environment: world parameters by name, plus
/// `n` (the number of sensor processes).
type Env = BTreeMap<String, i64>;

/// Lower the `world` block: build the generator params, apply overrides,
/// generate the scenario, and publish the parameters as constants.
fn lower_world(
    def: &WorldDef,
    seed: u64,
    diags: &mut Vec<Diagnostic>,
) -> Option<(Scenario, Env, SimTime)> {
    let mut env = Env::new();
    let mut r = FieldReader { diags };
    macro_rules! set {
        ($p:expr, $f:expr, $r:ident, $m:ident) => {
            if let Some(v) = $r.$m($f) {
                $p = v;
            }
        };
    }
    let (scenario, duration) = match def.kind.node.as_str() {
        "office" => {
            let mut p = office::OfficeParams::default();
            for f in &def.fields {
                match f.name.node.as_str() {
                    "rooms" => set!(p.rooms, f, r, usize),
                    "persons" => set!(p.persons, f, r, usize),
                    "mean_dwell" => set!(p.mean_dwell, f, r, duration),
                    "temp_step_every" => set!(p.temp_step_every, f, r, duration),
                    "temp_sigma" => set!(p.temp_sigma, f, r, f64),
                    "temp_emit_threshold" => set!(p.temp_emit_threshold, f, r, f64),
                    "base_temp" => set!(p.base_temp, f, r, f64),
                    "pens" => set!(p.pens, f, r, usize),
                    "duration" => set!(p.duration, f, r, time),
                    _ => unknown_field(
                        r.diags,
                        f,
                        "office",
                        &[
                            "rooms",
                            "persons",
                            "mean_dwell",
                            "temp_step_every",
                            "temp_sigma",
                            "temp_emit_threshold",
                            "base_temp",
                            "pens",
                            "duration",
                        ],
                    ),
                }
            }
            if p.rooms == 0 {
                r.diags.push(Diagnostic::new(def.kind.span, "office needs at least one room"));
                return None;
            }
            env.insert("rooms".into(), p.rooms as i64);
            env.insert("persons".into(), p.persons as i64);
            env.insert("pens".into(), p.pens as i64);
            (office::generate(&p, seed), p.duration)
        }
        "exhibition" => {
            let mut p = exhibition::ExhibitionParams::default();
            for f in &def.fields {
                match f.name.node.as_str() {
                    "doors" => set!(p.doors, f, r, usize),
                    "arrival_rate_hz" => set!(p.arrival_rate_hz, f, r, f64),
                    "mean_stay" => set!(p.mean_stay, f, r, duration),
                    "duration" => set!(p.duration, f, r, time),
                    "capacity" => set!(p.capacity, f, r, i64),
                    _ => unknown_field(
                        r.diags,
                        f,
                        "exhibition",
                        &["doors", "arrival_rate_hz", "mean_stay", "duration", "capacity"],
                    ),
                }
            }
            if p.doors == 0 {
                r.diags.push(Diagnostic::new(def.kind.span, "exhibition needs at least one door"));
                return None;
            }
            env.insert("doors".into(), p.doors as i64);
            env.insert("capacity".into(), p.capacity);
            (exhibition::generate(&p, seed), p.duration)
        }
        "hospital" => {
            let mut p = hospital::HospitalParams::default();
            for f in &def.fields {
                match f.name.node.as_str() {
                    "wards" => set!(p.wards, f, r, usize),
                    "infectious_ward" => set!(p.infectious_ward, f, r, usize),
                    "visitors" => set!(p.visitors, f, r, usize),
                    "mean_dwell" => set!(p.mean_dwell, f, r, duration),
                    "duration" => set!(p.duration, f, r, time),
                    _ => unknown_field(
                        r.diags,
                        f,
                        "hospital",
                        &["wards", "infectious_ward", "visitors", "mean_dwell", "duration"],
                    ),
                }
            }
            if p.wards < 2 || p.infectious_ward >= p.wards {
                r.diags.push(Diagnostic::new(
                    def.kind.span,
                    "hospital needs wards >= 2 and infectious_ward < wards",
                ));
                return None;
            }
            env.insert("wards".into(), p.wards as i64);
            env.insert("infectious_ward".into(), p.infectious_ward as i64);
            env.insert("visitors".into(), p.visitors as i64);
            (hospital::generate(&p, seed), p.duration)
        }
        "habitat" => {
            let mut p = habitat::HabitatParams::default();
            for f in &def.fields {
                match f.name.node.as_str() {
                    "stations" => set!(p.stations, f, r, usize),
                    "animals" => set!(p.animals, f, r, usize),
                    "mean_dwell" => set!(p.mean_dwell, f, r, duration),
                    "duration" => set!(p.duration, f, r, time),
                    _ => unknown_field(
                        r.diags,
                        f,
                        "habitat",
                        &["stations", "animals", "mean_dwell", "duration"],
                    ),
                }
            }
            if p.stations < 2 {
                r.diags.push(Diagnostic::new(def.kind.span, "habitat needs at least two stations"));
                return None;
            }
            env.insert("stations".into(), p.stations as i64);
            env.insert("animals".into(), p.animals as i64);
            (habitat::generate(&p, seed), p.duration)
        }
        "structure" => {
            let mut p = structure::StructureParams::default();
            for f in &def.fields {
                match f.name.node.as_str() {
                    "segments" => set!(p.segments, f, r, usize),
                    "shock_rate_hz" => set!(p.shock_rate_hz, f, r, f64),
                    "coupling_delay" => set!(p.coupling_delay, f, r, duration),
                    "coupling_hops" => set!(p.coupling_hops, f, r, usize),
                    "ring_down" => set!(p.ring_down, f, r, duration),
                    "duration" => set!(p.duration, f, r, time),
                    _ => unknown_field(
                        r.diags,
                        f,
                        "structure",
                        &[
                            "segments",
                            "shock_rate_hz",
                            "coupling_delay",
                            "coupling_hops",
                            "ring_down",
                            "duration",
                        ],
                    ),
                }
            }
            if p.segments == 0 {
                r.diags
                    .push(Diagnostic::new(def.kind.span, "structure needs at least one segment"));
                return None;
            }
            env.insert("segments".into(), p.segments as i64);
            (structure::generate(&p, seed), p.duration)
        }
        other => {
            diags.push(Diagnostic::new(
                def.kind.span,
                format!(
                    "unknown world kind `{other}` (known: office, exhibition, hospital, \
                     habitat, structure)"
                ),
            ));
            return None;
        }
    };
    env.insert("n".into(), scenario.num_processes() as i64);
    Some((scenario, env, duration))
}

/// `_` and `-` are interchangeable between source identifiers and object
/// or attribute names (`waiting_room` ↔ `waiting-room`).
fn normalize(name: &str) -> String {
    name.replace('_', "-")
}

/// Resolve `family[index].attr` / `name.attr` to an [`AttrKey`] against
/// the generated world's objects.
fn resolve_var(
    scenario: &Scenario,
    family: &str,
    index: Option<i64>,
    attr: &str,
    span: Span,
) -> Result<AttrKey, Diagnostic> {
    let objects = &scenario.timeline.objects;
    let wanted = match index {
        Some(i) => format!("{}-{}", normalize(family), i),
        None => normalize(family),
    };
    // Exact name first; else a unique `wanted-` prefix (so `ward[4]`
    // finds `ward-4-infectious` without also matching `ward-40`).
    let obj = objects.iter().find(|o| o.name == wanted).or_else(|| {
        let mut hits = objects.iter().filter(|o| {
            o.name.starts_with(&wanted) && o.name.as_bytes().get(wanted.len()) == Some(&b'-')
        });
        match (hits.next(), hits.next()) {
            (Some(o), None) => Some(o),
            _ => None,
        }
    });
    let Some(obj) = obj else {
        let known: Vec<&str> = objects.iter().map(|o| o.name.as_str()).take(8).collect();
        return Err(Diagnostic::new(
            span,
            format!("no object named `{wanted}` in this world (objects: {}…)", known.join(", ")),
        ));
    };
    let wanted_attr = normalize(attr);
    match obj.attr_id(&wanted_attr) {
        Some(a) => Ok(AttrKey::new(obj.id, a)),
        None => {
            let known: Vec<String> = obj.attrs.iter().map(|(n, _)| n.clone()).collect();
            Err(Diagnostic::new(
                span,
                format!(
                    "object `{}` has no attribute `{wanted_attr}` (attributes: {})",
                    obj.name,
                    known.join(", ")
                ),
            ))
        }
    }
}

/// Evaluate a compile-time integer (index and range bounds): literals,
/// constants from the environment, and integer arithmetic. Overflow is a
/// diagnostic.
fn const_eval(e: &Spanned<PExpr>, env: &Env) -> Result<i64, Diagnostic> {
    let overflow = || Diagnostic::new(e.span, "compile-time integer overflows 64 bits");
    match &e.node {
        PExpr::Int(v) => Ok(*v),
        PExpr::Const(name) => env.get(name).copied().ok_or_else(|| {
            let known: Vec<&str> = env.keys().map(|k| k.as_str()).collect();
            Diagnostic::new(
                e.span,
                format!("unknown constant `{name}` (known here: {})", known.join(", ")),
            )
        }),
        PExpr::Neg(inner) => const_eval(inner, env)?.checked_neg().ok_or_else(overflow),
        PExpr::Binary { op, lhs, rhs } => {
            let a = const_eval(lhs, env)?;
            let b = const_eval(rhs, env)?;
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                _ => {
                    return Err(Diagnostic::new(
                        e.span,
                        "only +, -, * are allowed in compile-time indices",
                    ))
                }
            }
            .ok_or_else(overflow)
        }
        _ => Err(Diagnostic::new(
            e.span,
            "expected a compile-time integer (a literal, a world constant, or arithmetic \
             over them)",
        )),
    }
}

/// The most terms the `sum` comprehensions of one predicate expression (a
/// relational body or one conjunct) may unroll to, nested sums included.
const MAX_SUM_TERMS: usize = 4096;

/// Lower a predicate expression to an engine [`Expr`], resolving
/// variables and unrolling `sum` comprehensions; `terms` counts the sum
/// terms unrolled so far against [`MAX_SUM_TERMS`].
fn lower_expr(
    e: &Spanned<PExpr>,
    scenario: &Scenario,
    env: &Env,
    terms: &mut usize,
) -> Result<Expr, Diagnostic> {
    match &e.node {
        PExpr::Int(v) => Ok(Expr::int(*v)),
        PExpr::Float(v) => Ok(Expr::float(*v)),
        PExpr::Bool(v) => Ok(Expr::boolean(*v)),
        // A bare constant in value position becomes its integer value
        // (e.g. `... > capacity`).
        PExpr::Const(_) => Ok(Expr::int(const_eval(e, env)?)),
        PExpr::Var { family, index, attr } => {
            let idx = index.as_ref().map(|i| const_eval(i, env)).transpose()?;
            Ok(Expr::var(resolve_var(scenario, family, idx, attr, e.span)?))
        }
        PExpr::Sum { var, lo, hi, body } => {
            let lo = const_eval(lo, env)?;
            let hi = const_eval(hi, env)?;
            if lo > hi {
                return Err(Diagnostic::new(e.span, format!("empty sum range {lo}..{hi}")));
            }
            // `lo ≤ hi`, so the distance is exact in `u64`.
            let len = hi.abs_diff(lo);
            match usize::try_from(len).ok().and_then(|len| terms.checked_add(len)) {
                Some(total) if total <= MAX_SUM_TERMS => *terms = total,
                _ => {
                    return Err(Diagnostic::new(
                        e.span,
                        format!(
                            "sum range {lo}..{hi} unrolls past {MAX_SUM_TERMS} terms in one \
                             expression"
                        ),
                    ))
                }
            }
            let mut unrolled = Vec::with_capacity(len as usize);
            for i in lo..hi {
                let mut inner = env.clone();
                inner.insert(var.clone(), i);
                unrolled.push(lower_expr(body, scenario, &inner, terms)?);
            }
            if unrolled.is_empty() {
                return Err(Diagnostic::new(e.span, format!("sum range {lo}..{hi} is empty")));
            }
            Ok(Expr::Sum(unrolled))
        }
        PExpr::Binary { op, lhs, rhs } => {
            let a = lower_expr(lhs, scenario, env, terms)?;
            let b = lower_expr(rhs, scenario, env, terms)?;
            Ok(match op {
                BinOp::Add => a.add(b),
                BinOp::Sub => a.sub(b),
                BinOp::Mul => a.mul(b),
                BinOp::Gt => a.gt(b),
                BinOp::Ge => a.ge(b),
                BinOp::Lt => a.lt(b),
                // `<=` is the flipped `>=`; `!=` the negated `==` (the
                // engine Expr keeps a minimal operator set).
                BinOp::Le => b.ge(a),
                BinOp::Eq => a.eq_expr(b),
                BinOp::Ne => a.eq_expr(b).negate(),
                BinOp::And => a.and(b),
                BinOp::Or => a.or(b),
            })
        }
        PExpr::Not(inner) => Ok(lower_expr(inner, scenario, env, terms)?.negate()),
        PExpr::Neg(inner) => match &inner.node {
            PExpr::Int(v) => Ok(Expr::int(-v)),
            PExpr::Float(v) => Ok(Expr::float(-v)),
            _ => Ok(Expr::int(0).sub(lower_expr(inner, scenario, env, terms)?)),
        },
    }
}

/// Friendly `object.attr` rendering of a resolved key, for diagnostics.
fn key_name(scenario: &Scenario, key: AttrKey) -> String {
    scenario
        .timeline
        .objects
        .iter()
        .find(|o| o.id == key.object)
        .map(|o| {
            let attr = o.attrs.get(key.attr).map(|(n, _)| n.as_str()).unwrap_or("?");
            format!("{}.{attr}", o.name)
        })
        .unwrap_or_else(|| format!("obj{}.attr{}", key.object, key.attr))
}

fn lower_predicate(
    def: &PredicateDef,
    scenario: &Scenario,
    env: &Env,
    diags: &mut Vec<Diagnostic>,
) -> Option<CompiledPredicate> {
    let predicate = match &def.body {
        PredicateBody::Relational(e) => match lower_expr(e, scenario, env, &mut 0) {
            Ok(expr) => Predicate::Relational(expr),
            Err(d) => {
                diags.push(d);
                return None;
            }
        },
        PredicateBody::Conjunctive(parts) => {
            let n = scenario.num_processes() as i64;
            let mut conjuncts = Vec::new();
            let mut ok = true;
            for part in parts {
                if part.process.node < 0 || part.process.node >= n {
                    diags.push(Diagnostic::new(
                        part.process.span,
                        format!(
                            "process {} is out of range (this world has {n} sensor processes)",
                            part.process.node
                        ),
                    ));
                    ok = false;
                    continue;
                }
                let process = part.process.node as usize;
                match lower_expr(&part.expr, scenario, env, &mut 0) {
                    Ok(expr) => {
                        // A conjunct must be local: every variable it
                        // reads is sensed by its owning process.
                        for key in expr.variables() {
                            let owner = scenario.sensing.process_for(key);
                            if owner != Some(process) {
                                diags.push(Diagnostic::new(
                                    part.expr.span,
                                    format!(
                                        "conjunct at process {process} reads \
                                         `{}`, which is sensed by {} — conjunctive \
                                         predicates must be local (use a relational \
                                         predicate for cross-process expressions)",
                                        key_name(scenario, key),
                                        match owner {
                                            Some(p) => format!("process {p}"),
                                            None => "no process".into(),
                                        }
                                    ),
                                ));
                                ok = false;
                            }
                        }
                        conjuncts.push(Conjunct { process, expr });
                    }
                    Err(d) => {
                        diags.push(d);
                        ok = false;
                    }
                }
            }
            if !ok {
                return None;
            }
            Predicate::Conjunctive(conjuncts)
        }
    };
    Some(CompiledPredicate { name: def.name.node.clone(), predicate })
}

/// Parse a discipline name (used by the `run { discipline ... }` field).
pub fn parse_discipline(name: &str) -> Option<Discipline> {
    Some(match name {
        "oracle" => Discipline::Oracle,
        "synced_physical" | "phys_sync" | "synced" => Discipline::SyncedPhysical,
        "unsynced_physical" | "phys_unsync" | "unsynced" => Discipline::UnsyncedPhysical,
        "arrival" => Discipline::Arrival,
        "scalar_strobe" | "strobe_scalar" => Discipline::ScalarStrobe,
        "vector_strobe" | "strobe_vector" => Discipline::VectorStrobe,
        _ => return None,
    })
}

fn lower_run_block(
    def: &ScenarioDef,
    config: &mut ExecutionConfig,
    discipline: &mut Discipline,
    diags: &mut Vec<Diagnostic>,
) {
    let mut r = FieldReader { diags };
    for f in &def.run {
        match f.name.node.as_str() {
            "shards" => {
                if let Some(v) = r.usize(f) {
                    if v == 0 {
                        r.diags.push(Diagnostic::new(f.value.span, "shards must be >= 1"));
                    } else {
                        config.shards = v;
                    }
                }
            }
            "discipline" => {
                if let Some(name) = r.ident(f) {
                    match parse_discipline(name) {
                        Some(d) => *discipline = d,
                        None => r.diags.push(Diagnostic::new(
                            f.value.span,
                            format!(
                                "unknown discipline `{name}` (known: oracle, synced_physical, \
                                 unsynced_physical, arrival, scalar_strobe, vector_strobe)"
                            ),
                        )),
                    }
                }
            }
            "stamp" => {
                if let Some(name) = r.ident(f) {
                    match name {
                        "scalar" => config.trace_stamp = TraceStampMode::Scalar,
                        "vector" => config.trace_stamp = TraceStampMode::Vector,
                        other => r.diags.push(Diagnostic::new(
                            f.value.span,
                            format!("unknown stamp mode `{other}` (known: scalar, vector)"),
                        )),
                    }
                }
            }
            "trace" => {
                if let Some(v) = r.bool(f) {
                    config.record_sim_trace = v;
                }
            }
            "end_time" => {
                if let Some(t) = r.time(f) {
                    config.end_time = Some(t);
                }
            }
            _ => unknown_field(
                r.diags,
                f,
                "run",
                &["shards", "discipline", "stamp", "trace", "end_time"],
            ),
        }
    }
}

fn lower_clocks(fields: &[Field], clocks: &mut ClockConfig, diags: &mut Vec<Diagnostic>) {
    let mut r = FieldReader { diags };
    for f in fields {
        match f.name.node.as_str() {
            "epsilon" => {
                if let Some(d) = r.duration(f) {
                    clocks.epsilon = d;
                }
            }
            "max_offset" => {
                if let Some(d) = r.duration(f) {
                    clocks.max_offset = d;
                }
            }
            "max_drift_ppm" => {
                if let Some(v) = r.f64(f) {
                    clocks.max_drift_ppm = v;
                }
            }
            _ => unknown_field(r.diags, f, "clocks", &["epsilon", "max_offset", "max_drift_ppm"]),
        }
    }
}

fn lower_strobes(
    fields: &[Field],
    strobes: &mut psn_core::StrobePolicy,
    diags: &mut Vec<Diagnostic>,
) {
    let mut r = FieldReader { diags };
    for f in fields {
        match f.name.node.as_str() {
            "every" => {
                if let Some(v) = r.usize(f) {
                    if v == 0 {
                        r.diags.push(Diagnostic::new(f.value.span, "`every` must be >= 1"));
                    } else {
                        strobes.every = v;
                    }
                }
            }
            "heartbeat" => {
                if let Some(d) = r.duration(f) {
                    strobes.heartbeat = Some(d);
                }
            }
            "flood" => {
                if let Some(v) = r.bool(f) {
                    strobes.flood = v;
                }
            }
            "quarantine" => {
                if let Some(v) = r.bool(f) {
                    strobes.quarantine = v;
                }
            }
            _ => {
                unknown_field(r.diags, f, "strobes", &["every", "heartbeat", "flood", "quarantine"])
            }
        }
    }
}

fn lower_network(net: &NetworkDef, config: &mut ExecutionConfig) {
    if let Some(d) = &net.delay {
        config.delay = match d.node {
            DelaySpec::Synchronous => DelayModel::Synchronous,
            DelaySpec::Fixed(ns) => DelayModel::Fixed(SimDuration::from_nanos(ns)),
            DelaySpec::Delta(ns) => DelayModel::delta(SimDuration::from_nanos(ns)),
            DelaySpec::Uniform { min, max } => DelayModel::DeltaBounded {
                min: SimDuration::from_nanos(min),
                max: SimDuration::from_nanos(max),
            },
            DelaySpec::Exponential { mean, cap } => DelayModel::Exponential {
                mean: SimDuration::from_nanos(mean),
                cap: cap.map(SimDuration::from_nanos),
            },
        };
    }
    if let Some(l) = &net.loss {
        config.loss = match l.node {
            LossSpec::None => LossModel::None,
            LossSpec::Bernoulli(p) => LossModel::Bernoulli { p },
            LossSpec::Bursty(p_gb, p_bg, lg, lb) => LossModel::bursty(p_gb, p_bg, lg, lb),
        };
    }
    if let Some(f) = &net.fifo {
        config.fifo = f.node;
    }
}

fn check_actor(a: &Spanned<i64>, n: usize, diags: &mut Vec<Diagnostic>) -> Option<usize> {
    if a.node < 0 || a.node >= n as i64 {
        diags.push(Diagnostic::new(
            a.span,
            format!("process {} is out of range (this world has {n} sensor processes)", a.node),
        ));
        None
    } else {
        Some(a.node as usize)
    }
}

fn lower_faults(
    def: &FaultsDef,
    n: usize,
    seed: u64,
    horizon: SimTime,
    diags: &mut Vec<Diagnostic>,
) -> Option<FaultScript> {
    let mut script = FaultScript::new();
    for entry in &def.entries {
        let spec = match &entry.node {
            FaultEntry::Crash { at, actor, recover } => {
                let actor = check_actor(actor, n, diags)?;
                (
                    *at,
                    FaultSpec::Crash { actor, recover_after: recover.map(SimDuration::from_nanos) },
                )
            }
            FaultEntry::Partition { at, group, heal, park } => {
                let mut ids = Vec::new();
                for a in group {
                    ids.push(check_actor(a, n, diags)?);
                }
                // An omitted heal outlives the run (an unhealed cut).
                let heal_after = heal
                    .map(SimDuration::from_nanos)
                    .unwrap_or_else(|| SimDuration::from_nanos(horizon.as_nanos().max(1) * 2));
                (
                    *at,
                    FaultSpec::Partition {
                        group: ids,
                        heal_after,
                        policy: if *park { CutPolicy::Park } else { CutPolicy::Drop },
                    },
                )
            }
            FaultEntry::Channel { at, from, to, prob, effect, dur } => {
                let from = match from {
                    Some(a) => Some(check_actor(a, n + 1, diags)?),
                    None => None,
                };
                let to = match to {
                    Some(a) => Some(check_actor(a, n + 1, diags)?),
                    None => None,
                };
                (
                    *at,
                    FaultSpec::Channel(ChannelFaultRule {
                        from,
                        to,
                        prob: *prob,
                        effect: match effect {
                            ChannelEffectDef::Drop => ChannelEffect::Drop,
                            ChannelEffectDef::Duplicate => ChannelEffect::Duplicate,
                            ChannelEffectDef::Reorder(ns) => {
                                ChannelEffect::Reorder { extra: SimDuration::from_nanos(*ns) }
                            }
                            ChannelEffectDef::Corrupt => ChannelEffect::Corrupt,
                        },
                        duration: dur.map(SimDuration::from_nanos),
                    }),
                )
            }
            FaultEntry::Clock { at, actor, kind } => {
                let actor = check_actor(actor, n, diags)?;
                (
                    *at,
                    FaultSpec::Clock {
                        actor,
                        kind: match kind {
                            ClockKindDef::DriftSpike(ppm) => {
                                ClockFaultKind::DriftSpike { add_ppm: *ppm }
                            }
                            ClockKindDef::Reset => ClockFaultKind::Reset,
                            ClockKindDef::Freeze => ClockFaultKind::Freeze,
                            ClockKindDef::Unfreeze => ClockFaultKind::Unfreeze,
                            ClockKindDef::Desync => ClockFaultKind::Desync,
                            ClockKindDef::Resync => ClockFaultKind::Resync,
                        },
                    },
                )
            }
        };
        script
            .faults
            .push(psn_sim::fault::ScriptedFault { at: SimTime::from_nanos(spec.0), spec: spec.1 });
    }
    if let Some(chaos_fields) = &def.chaos {
        let mut cfg = ChaosConfig::new((0..n).collect(), horizon);
        let mut r = FieldReader { diags };
        for f in chaos_fields {
            match f.name.node.as_str() {
                "crashes" => {
                    if let Some(v) = r.usize(f) {
                        cfg.crashes = v;
                    }
                }
                "partitions" => {
                    if let Some(v) = r.usize(f) {
                        cfg.partitions = v;
                    }
                }
                "channel_rules" => {
                    if let Some(v) = r.usize(f) {
                        cfg.channel_rules = v;
                    }
                }
                "clock_faults" => {
                    if let Some(v) = r.usize(f) {
                        cfg.clock_faults = v;
                    }
                }
                "corruption" => {
                    if let Some(v) = r.bool(f) {
                        cfg.corruption = v;
                    }
                }
                "park" => {
                    if let Some(v) = r.bool(f) {
                        cfg.park = v;
                    }
                }
                "horizon" => {
                    if let Some(t) = r.time(f) {
                        cfg.horizon = t;
                    }
                }
                _ => unknown_field(
                    r.diags,
                    f,
                    "chaos",
                    &[
                        "crashes",
                        "partitions",
                        "channel_rules",
                        "clock_faults",
                        "corruption",
                        "park",
                        "horizon",
                    ],
                ),
            }
        }
        script.faults.extend(FaultScript::generate(&cfg, seed).faults);
    }
    Some(script)
}

/// Lower an already-parsed [`ScenarioDef`].
pub fn compile_def(def: &ScenarioDef) -> Result<CompiledScenario, Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let seed = def.seed.as_ref().map(|s| s.node).unwrap_or(1);

    let Some((scenario, env, duration)) = lower_world(&def.world, seed, &mut diags) else {
        return Err(diags);
    };
    let n = scenario.num_processes();

    let mut config = ExecutionConfig {
        seed,
        // Scenario runs are meant to be analyzed: the structured trace
        // feeds detection, the golden hashes, and the chaos invariants.
        record_sim_trace: true,
        ..ExecutionConfig::default()
    };
    let mut discipline = Discipline::VectorStrobe;

    lower_clocks(&def.clocks, &mut config.clocks, &mut diags);
    lower_strobes(&def.strobes, &mut config.strobes, &mut diags);
    if let Some(net) = &def.network {
        lower_network(net, &mut config);
    }
    lower_run_block(def, &mut config, &mut discipline, &mut diags);

    if let Some(faults) = &def.faults {
        match lower_faults(faults, n, seed, duration, &mut diags) {
            Some(script) if !script.is_empty() => config.faults = Some(script),
            _ => {}
        }
    }

    let mut predicates = Vec::new();
    for p in &def.predicates {
        if let Some(cp) = lower_predicate(p, &scenario, &env, &mut diags) {
            predicates.push(cp);
        }
    }

    if !diags.is_empty() {
        return Err(diags);
    }
    Ok(CompiledScenario {
        name: def.name.node.clone(),
        seed,
        scenario,
        config,
        predicates,
        discipline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_an_exhibition_with_sum_predicate() {
        let src = r#"scenario "demo" {
            seed 11
            world exhibition { doors 3 duration 120s capacity 40 }
            network { delay uniform 20ms..200ms }
            predicate "crowded" relational {
                sum(d in 0..doors)(door[d].x - door[d].y) > capacity
            }
        }"#;
        let c = compile(src).expect("compiles");
        assert_eq!(c.scenario.num_processes(), 3);
        assert_eq!(c.predicates.len(), 1);
        // The sum unrolled into 3 terms.
        let Predicate::Relational(Expr::Gt(lhs, _)) = &c.predicates[0].predicate else {
            panic!("shape");
        };
        let Expr::Sum(terms) = lhs.as_ref() else { panic!("expected Sum") };
        assert_eq!(terms.len(), 3);
    }

    #[test]
    fn conjunct_locality_is_enforced() {
        let src = r#"scenario "bad" {
            world office { rooms 2 persons 1 duration 120s }
            predicate "wrong" conjunctive {
                at 0: room[1].motion
            }
        }"#;
        let errs = compile(src).unwrap_err();
        assert!(errs.iter().any(|d| d.message.contains("must be local")), "{errs:?}");
    }

    #[test]
    fn hospital_prefix_match_finds_infectious_ward() {
        let src = r#"scenario "h" {
            world hospital { duration 600s }
            predicate "exposure" relational { ward[4].count > 0 }
        }"#;
        let c = compile(src).expect("compiles");
        assert_eq!(c.predicates.len(), 1);
    }

    #[test]
    fn unknown_world_field_lists_known() {
        let src = r#"scenario "x" { world exhibition { dors 3 } }"#;
        let errs = compile(src).unwrap_err();
        assert!(errs[0].message.contains("unknown exhibition field `dors`"), "{}", errs[0].message);
        assert!(errs[0].message.contains("doors"), "{}", errs[0].message);
    }

    #[test]
    fn faults_lower_into_a_script() {
        let src = r#"scenario "f" {
            world exhibition { doors 3 duration 300s }
            faults {
                at 30s crash 0 recover 20s
                at 50s partition [0, 1] heal 10s park
                at 10s channel from 0 prob 0.5 reorder 50ms for 100s
                at 5s clock 1 drift_spike 400.0
                chaos { crashes 1 partitions 0 channel_rules 0 clock_faults 0 }
            }
        }"#;
        let c = compile(src).expect("compiles");
        let script = c.config.faults.expect("has script");
        // 4 explicit + 1 generated crash.
        assert_eq!(script.faults.len(), 5);
    }

    #[test]
    fn out_of_range_actor_is_a_diagnostic() {
        let src = r#"scenario "f" {
            world exhibition { doors 3 duration 300s }
            faults { at 30s crash 7 }
        }"#;
        let errs = compile(src).unwrap_err();
        assert!(errs[0].message.contains("out of range"), "{}", errs[0].message);
    }

    #[test]
    fn run_block_configures_sharding() {
        let src = r#"scenario "s" {
            world exhibition { doors 4 duration 120s }
            network { delay uniform 20ms..200ms }
            run { shards 4 discipline arrival }
        }"#;
        let c = compile(src).expect("compiles");
        assert_eq!(c.config.shards, 4);
        assert_eq!(c.discipline, Discipline::Arrival);

        // Sharded runs have one window discipline and one partition, so
        // there is nothing to choose: `optimistic` and `plan` are unknown
        // fields like any other.
        for (field, value) in [("optimistic", "true"), ("plan", "affinity")] {
            let errs = compile(&src.replace("shards 4", &format!("shards 4 {field} {value}")))
                .unwrap_err();
            assert_eq!(errs.len(), 1, "{errs:?}");
            assert_eq!(
                errs[0].message,
                format!(
                    "unknown run field `{field}` (known: shards, discipline, stamp, trace, \
                     end_time)"
                )
            );
        }
    }

    #[test]
    fn default_seed_is_one_and_trace_on() {
        let src = r#"scenario "d" { world habitat { duration 600s } }"#;
        let c = compile(src).expect("compiles");
        assert_eq!(c.seed, 1);
        assert!(c.config.record_sim_trace);
    }
}
