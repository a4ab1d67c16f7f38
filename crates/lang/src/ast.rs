//! Typed AST for the `.psn` scenario language.
//!
//! The parser builds this tree; the compiler
//! ([`mod@crate::compile`]) lowers it onto the existing workspace structures
//! (world generators, [`psn_predicates::spec::Predicate`],
//! [`psn_core::execution::ExecutionConfig`], [`psn_sim::fault::FaultScript`]).
//! Nodes that later phases validate carry [`Spanned`] wrappers so
//! diagnostics point back at the source.

use crate::diag::Spanned;

/// One `.psn` file: a single `scenario "name" { ... }` form.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDef {
    /// The quoted scenario name.
    pub name: Spanned<String>,
    /// `seed N` (defaults to 1 when omitted).
    pub seed: Option<Spanned<u64>>,
    /// The mandatory `world <kind> { ... }` block.
    pub world: WorldDef,
    /// `clocks { ... }` fields (epsilon, max_offset, max_drift_ppm).
    pub clocks: Vec<Field>,
    /// `strobes { ... }` fields (every, heartbeat, flood, quarantine).
    pub strobes: Vec<Field>,
    /// `network { ... }` block (delay/loss/fifo).
    pub network: Option<NetworkDef>,
    /// `run { ... }` fields (shards, discipline, …).
    pub run: Vec<Field>,
    /// `predicate "name" relational|conjunctive { ... }` blocks.
    pub predicates: Vec<PredicateDef>,
    /// `faults { ... }` block.
    pub faults: Option<FaultsDef>,
}

/// `world <kind> { key value ... }`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldDef {
    /// Which parameterized generator: office, exhibition, hospital,
    /// habitat, or structure.
    pub kind: Spanned<String>,
    /// Parameter overrides; anything omitted keeps the generator default.
    pub fields: Vec<Field>,
}

/// A `key value` pair inside a block.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// The key identifier.
    pub name: Spanned<String>,
    /// Its literal value.
    pub value: Spanned<Value>,
}

/// A literal field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Duration literal, nanoseconds.
    Dur(u64),
    /// `true` / `false`.
    Bool(bool),
    /// A bare identifier (e.g. a discipline name).
    Ident(String),
}

impl Value {
    /// Short description for type-mismatch diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Dur(_) => "duration",
            Value::Bool(_) => "bool",
            Value::Ident(_) => "identifier",
        }
    }
}

/// `network { delay ... loss ... fifo ... }`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkDef {
    /// The delay model, if specified.
    pub delay: Option<Spanned<DelaySpec>>,
    /// The loss model, if specified.
    pub loss: Option<Spanned<LossSpec>>,
    /// `fifo true|false`.
    pub fifo: Option<Spanned<bool>>,
}

/// The delay model surface syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum DelaySpec {
    /// `delay synchronous`
    Synchronous,
    /// `delay fixed 100ms`
    Fixed(u64),
    /// `delay delta 300ms` — uniform on [0, Δ].
    Delta(u64),
    /// `delay uniform 50ms..300ms` — uniform on [min, max].
    Uniform {
        /// Lower bound, nanoseconds.
        min: u64,
        /// Upper bound, nanoseconds.
        max: u64,
    },
    /// `delay exponential 100ms [cap 1s]`
    Exponential {
        /// Mean, nanoseconds.
        mean: u64,
        /// Optional cap, nanoseconds.
        cap: Option<u64>,
    },
}

/// The loss model surface syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum LossSpec {
    /// `loss none`
    None,
    /// `loss bernoulli 0.05`
    Bernoulli(f64),
    /// `loss bursty p_gb p_bg loss_good loss_bad` (Gilbert–Elliott).
    Bursty(f64, f64, f64, f64),
}

/// `predicate "name" relational { expr }` or
/// `predicate "name" conjunctive { at P: expr ... }`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateDef {
    /// The quoted predicate name.
    pub name: Spanned<String>,
    /// Relational (global expression) or conjunctive (per-process parts).
    pub body: PredicateBody,
}

/// The two predicate shapes of the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateBody {
    /// One expression over any processes' variables.
    Relational(Spanned<PExpr>),
    /// `at P: expr` parts — each expression's variables must be local to
    /// process `P` (the compiler checks this against the sensor
    /// assignment).
    Conjunctive(Vec<ConjunctDef>),
}

/// One `at P: expr` part of a conjunctive predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctDef {
    /// The owning process index.
    pub process: Spanned<i64>,
    /// The local expression.
    pub expr: Spanned<PExpr>,
}

/// Binary operators in predicate expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=` (lowered as the flipped `>=`).
    Le,
    /// `==`
    Eq,
    /// `!=` (lowered as negated `==`).
    Ne,
    /// `and` / `&&`
    And,
    /// `or` / `||`
    Or,
}

/// A predicate expression before lowering. Variables are still names
/// (`door[d].x`), indices may reference world parameters or `sum` loop
/// variables, and `sum` comprehensions are not yet unrolled.
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A bare identifier: a `sum` loop variable or a world-parameter
    /// constant (`doors`, `rooms`, `n`, …) usable wherever an integer is.
    Const(String),
    /// `family[index].attr` or `object.attr` — an attribute reference.
    Var {
        /// Object family (`door`) or full object name (`waiting_room`).
        family: String,
        /// The index expression, const-evaluated at compile time.
        index: Option<Box<Spanned<PExpr>>>,
        /// The attribute name.
        attr: String,
    },
    /// `sum(i in lo..hi)(body)` — unrolled at compile time.
    Sum {
        /// The loop variable.
        var: String,
        /// Inclusive lower bound (const-evaluated).
        lo: Box<Spanned<PExpr>>,
        /// Exclusive upper bound (const-evaluated).
        hi: Box<Spanned<PExpr>>,
        /// The body, instantiated once per index.
        body: Box<Spanned<PExpr>>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Spanned<PExpr>>,
        /// Right operand.
        rhs: Box<Spanned<PExpr>>,
    },
    /// `not e` / `!e`.
    Not(Box<Spanned<PExpr>>),
    /// Unary minus.
    Neg(Box<Spanned<PExpr>>),
}

/// `faults { at ... ; chaos { ... } }`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultsDef {
    /// Explicit scripted faults, in file order.
    pub entries: Vec<Spanned<FaultEntry>>,
    /// `chaos { ... }` fields — lowered to a
    /// [`psn_sim::fault::ChaosConfig`]-generated script merged after the
    /// explicit entries.
    pub chaos: Option<Vec<Field>>,
}

/// One `at T ...` scripted fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEntry {
    /// `at T crash A [recover D]`
    Crash {
        /// Injection time, nanoseconds.
        at: u64,
        /// The crashed sensor.
        actor: Spanned<i64>,
        /// Recovery delay, if the process comes back.
        recover: Option<u64>,
    },
    /// `at T partition [A, B, ...] [heal D] [park]`
    Partition {
        /// Injection time, nanoseconds.
        at: u64,
        /// The group cut off from the rest.
        group: Vec<Spanned<i64>>,
        /// Heal delay, if the cut heals.
        heal: Option<u64>,
        /// Park messages at the cut instead of dropping them.
        park: bool,
    },
    /// `at T channel [from A] [to B] prob P <effect> [for D]`
    Channel {
        /// Injection time, nanoseconds.
        at: u64,
        /// Source filter.
        from: Option<Spanned<i64>>,
        /// Destination filter.
        to: Option<Spanned<i64>>,
        /// Per-message probability.
        prob: f64,
        /// What happens to a matched message.
        effect: ChannelEffectDef,
        /// Rule lifetime (permanent when omitted).
        dur: Option<u64>,
    },
    /// `at T clock A <kind>`
    Clock {
        /// Injection time, nanoseconds.
        at: u64,
        /// The affected sensor.
        actor: Spanned<i64>,
        /// What happens to its clock.
        kind: ClockKindDef,
    },
}

/// Channel-fault effects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelEffectDef {
    /// `drop`
    Drop,
    /// `duplicate`
    Duplicate,
    /// `reorder D` — extra delay D.
    Reorder(u64),
    /// `corrupt`
    Corrupt,
}

/// Clock-fault kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockKindDef {
    /// `drift_spike PPM`
    DriftSpike(f64),
    /// `reset`
    Reset,
    /// `freeze`
    Freeze,
    /// `unfreeze`
    Unfreeze,
    /// `desync`
    Desync,
    /// `resync`
    Resync,
}
