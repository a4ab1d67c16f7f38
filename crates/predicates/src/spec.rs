//! Predicate specification (paper §3.1.2).
//!
//! Two predicate classes matter for observing world-plane executions:
//!
//! - **conjunctive** — φ = ⋀ᵢ φᵢ where each conjunct is locally evaluable
//!   at one process (e.g. `xᵢ = 5 ∧ yⱼ > 7`);
//! - **relational** — an arbitrary expression over system-wide variables
//!   (e.g. the §5 occupancy predicate `Σᵢ (xᵢ − yᵢ) > 200`).
//!
//! Both are built from a small typed expression AST over world attributes,
//! evaluable against *any* variable source: the ground-truth
//! [`WorldState`], or the root's reconstructed observation map.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use psn_clocks::ProcessId;
use psn_world::{AttrKey, AttrValue, WorldState};

/// A typed expression over world attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal.
    Lit(AttrValue),
    /// A variable: the current value of one attribute.
    Var(AttrKey),
    /// Arithmetic.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Sum of many terms (Σ — the paper's occupancy predicate shape).
    Sum(Vec<Expr>),
    /// Strictly greater.
    Gt(Box<Expr>, Box<Expr>),
    /// Greater or equal.
    Ge(Box<Expr>, Box<Expr>),
    /// Strictly less.
    Lt(Box<Expr>, Box<Expr>),
    /// Numeric equality (exact for ints/bools, epsilon-free for floats).
    Eq(Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// A variable reference.
    pub fn var(key: AttrKey) -> Expr {
        Expr::Var(key)
    }
    /// An integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(AttrValue::Int(v))
    }
    /// A float literal.
    pub fn float(v: f64) -> Expr {
        Expr::Lit(AttrValue::Float(v))
    }
    /// A boolean literal.
    pub fn boolean(v: bool) -> Expr {
        Expr::Lit(AttrValue::Bool(v))
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Gt(Box::new(self), Box::new(rhs))
    }
    /// `self ≥ rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Ge(Box::new(self), Box::new(rhs))
    }
    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Lt(Box::new(self), Box::new(rhs))
    }
    /// `self = rhs`.
    pub fn eq_expr(self, rhs: Expr) -> Expr {
        Expr::Eq(Box::new(self), Box::new(rhs))
    }
    /// `self ∧ rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }
    /// `self ∨ rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }
    /// `¬self`.
    pub fn negate(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self − rhs`.
    #[allow(clippy::should_implement_trait)] // by-value builder DSL, not arithmetic on &Expr
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
    /// `self × rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// Numeric evaluation (booleans coerce to 0/1).
    pub fn eval_num(&self, read: &dyn Fn(AttrKey) -> AttrValue) -> f64 {
        match self {
            Expr::Lit(v) => v.as_float(),
            Expr::Var(k) => read(*k).as_float(),
            Expr::Add(a, b) => a.eval_num(read) + b.eval_num(read),
            Expr::Sub(a, b) => a.eval_num(read) - b.eval_num(read),
            Expr::Mul(a, b) => a.eval_num(read) * b.eval_num(read),
            Expr::Sum(xs) => xs.iter().map(|x| x.eval_num(read)).sum(),
            // Comparisons/logic coerce to 0/1 when used numerically.
            other => {
                if other.eval_bool(read) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Boolean evaluation (numbers are true iff nonzero).
    pub fn eval_bool(&self, read: &dyn Fn(AttrKey) -> AttrValue) -> bool {
        match self {
            Expr::Lit(v) => v.as_bool(),
            Expr::Var(k) => read(*k).as_bool(),
            Expr::Gt(a, b) => a.eval_num(read) > b.eval_num(read),
            Expr::Ge(a, b) => a.eval_num(read) >= b.eval_num(read),
            Expr::Lt(a, b) => a.eval_num(read) < b.eval_num(read),
            Expr::Eq(a, b) => a.eval_num(read) == b.eval_num(read),
            Expr::And(a, b) => a.eval_bool(read) && b.eval_bool(read),
            Expr::Or(a, b) => a.eval_bool(read) || b.eval_bool(read),
            Expr::Not(a) => !a.eval_bool(read),
            other => other.eval_num(read) != 0.0,
        }
    }

    /// Compile this expression (one conjunct's, say) for slot evaluation,
    /// observing `initial`.
    pub fn compile(&self, initial: &WorldState) -> Compiled {
        Compiled::new(std::iter::once(self), self.variables(), initial)
    }

    /// All variables mentioned.
    pub fn variables(&self) -> Vec<AttrKey> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<AttrKey>) {
        match self {
            Expr::Lit(_) => {}
            Expr::Var(k) => out.push(*k),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::Lt(a, b)
            | Expr::Eq(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Not(a) => a.collect_vars(out),
            Expr::Sum(xs) => {
                for x in xs {
                    x.collect_vars(out);
                }
            }
        }
    }
}

/// One locally evaluable conjunct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conjunct {
    /// The process that can evaluate this conjunct from its own sensed
    /// variables.
    pub process: ProcessId,
    /// The local expression.
    pub expr: Expr,
}

/// A predicate, classified per the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// φ = ⋀ᵢ φᵢ with each φᵢ local to one process.
    Conjunctive(Vec<Conjunct>),
    /// An arbitrary expression over system-wide variables.
    Relational(Expr),
}

impl Predicate {
    /// Evaluate against any variable source.
    pub fn eval(&self, read: &dyn Fn(AttrKey) -> AttrValue) -> bool {
        match self {
            Predicate::Conjunctive(cs) => cs.iter().all(|c| c.expr.eval_bool(read)),
            Predicate::Relational(e) => e.eval_bool(read),
        }
    }

    /// Evaluate against the ground-truth world state (missing attributes
    /// default to Int(0), matching the root's ignorance before the first
    /// report).
    pub fn eval_state(&self, state: &WorldState) -> bool {
        self.eval(&|k| state.get(k).unwrap_or(AttrValue::Int(0)))
    }

    /// Compile for slot evaluation, observing `initial` (the deployment-time
    /// state; a variable it lacks reads `Int(0)`, as in
    /// [`eval_state`](Self::eval_state)).
    pub fn compile(&self, initial: &WorldState) -> Compiled {
        match self {
            Predicate::Conjunctive(cs) => {
                Compiled::new(cs.iter().map(|c| &c.expr), self.variables(), initial)
            }
            Predicate::Relational(e) => e.compile(initial),
        }
    }

    /// All variables mentioned.
    pub fn variables(&self) -> Vec<AttrKey> {
        let mut out = match self {
            Predicate::Conjunctive(cs) => {
                cs.iter().flat_map(|c| c.expr.variables()).collect::<Vec<_>>()
            }
            Predicate::Relational(e) => e.variables(),
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The §5 occupancy predicate: Σ_d (x_d − y_d) > capacity, with door d
    /// watched by process d, x at attr 0 and y at attr 1.
    pub fn occupancy_over(doors: usize, capacity: i64) -> Predicate {
        Predicate::Relational(
            Expr::Sum(
                (0..doors)
                    .map(|d| Expr::var(AttrKey::new(d, 0)).sub(Expr::var(AttrKey::new(d, 1))))
                    .collect(),
            )
            .gt(Expr::int(capacity)),
        )
    }

    /// The §3.1 smart-office conjunctive predicate: motion in `room` ∧
    /// temp > `threshold`, both sensed by process `room`.
    pub fn hot_and_occupied(room: usize, threshold: f64) -> Predicate {
        Predicate::Conjunctive(vec![Conjunct {
            process: room,
            expr: Expr::var(AttrKey::new(room, 1))
                .and(Expr::var(AttrKey::new(room, 0)).gt(Expr::float(threshold))),
        }])
    }
}

/// One node of a [`Compiled`] program. Nodes are stored in postfix order,
/// each after its operands, with the root last. A boolean result is 1.0 /
/// 0.0 and an operand is true iff it is `!= 0.0` — the coercions of
/// [`Expr::eval_num`] / [`Expr::eval_bool`].
#[derive(Debug, Clone, Copy)]
struct Node {
    op: Op,
    /// The operand nodes `a`, `b` of a binary node; the operand `a` of
    /// `Not`; the slot `a` of `Slot`; the operands `terms[a..b]` of `Sum`.
    a: u32,
    b: u32,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A literal: its value is cached once and never recomputed.
    Lit,
    /// The current value of slot `a`.
    Slot,
    Add,
    Sub,
    Mul,
    /// The sum of its operands, added first to last.
    Sum,
    Gt,
    Ge,
    Lt,
    Eq,
    And,
    Or,
    Not,
}

/// What compiling fixes: the variables, the nodes and, per slot, the nodes
/// its value reaches. A [`Compiled`]'s clones share it.
#[derive(Debug)]
struct Program {
    /// Sorted; slot `i` holds the value of `vars[i]`.
    vars: Vec<AttrKey>,
    nodes: Vec<Node>,
    /// The operands of every `Sum` node, as node indices.
    terms: Vec<u32>,
    /// Slot `i` reaches `reach[reach_at[i]..reach_at[i + 1]]`: its leaves
    /// and their ancestors, ascending — so each after its operands.
    reach: Vec<u32>,
    reach_at: Vec<u32>,
}

impl Program {
    /// The program of `nodes` over `vars`, with each slot's reach.
    fn new(vars: Vec<AttrKey>, nodes: Vec<Node>, terms: Vec<u32>) -> Self {
        let mut program = Program { vars, nodes, terms, reach: Vec::new(), reach_at: Vec::new() };
        // Each node but the root has one reader; walk up from every leaf.
        let mut parent = vec![u32::MAX; program.nodes.len()];
        for n in 0..program.nodes.len() {
            for o in program.operands(n) {
                parent[o as usize] = n as u32;
            }
        }
        let mut reached = Vec::new();
        for (leaf, node) in program.nodes.iter().enumerate() {
            if let Op::Slot = node.op {
                let mut n = leaf as u32;
                while n != u32::MAX {
                    reached.push((node.a, n));
                    n = parent[n as usize];
                }
            }
        }
        reached.sort_unstable();
        reached.dedup();
        program.reach_at = vec![0; program.vars.len() + 1];
        for &(slot, _) in &reached {
            program.reach_at[slot as usize + 1] += 1;
        }
        for i in 0..program.vars.len() {
            program.reach_at[i + 1] += program.reach_at[i];
        }
        program.reach = reached.into_iter().map(|(_, n)| n).collect();
        program
    }

    /// Node `n`'s value from the slots and its operands' cached values (a
    /// literal keeps its own).
    fn compute(&self, n: usize, vals: &[AttrValue], values: &[f64]) -> f64 {
        let Node { op, a, b } = self.nodes[n];
        let truth = |b: bool| f64::from(u8::from(b));
        let x = |i: u32| values[i as usize];
        match op {
            Op::Lit => values[n],
            Op::Slot => vals[a as usize].as_float(),
            Op::Sum => self.terms[a as usize..b as usize].iter().map(|&t| x(t)).sum(),
            Op::Add => x(a) + x(b),
            Op::Sub => x(a) - x(b),
            Op::Mul => x(a) * x(b),
            Op::Gt => truth(x(a) > x(b)),
            Op::Ge => truth(x(a) >= x(b)),
            Op::Lt => truth(x(a) < x(b)),
            Op::Eq => truth(x(a) == x(b)),
            Op::And => truth(x(a) != 0.0 && x(b) != 0.0),
            Op::Or => truth(x(a) != 0.0 || x(b) != 0.0),
            Op::Not => truth(x(a) == 0.0),
        }
    }

    /// The nodes node `n` reads.
    fn operands(&self, n: usize) -> Vec<u32> {
        let Node { op, a, b } = self.nodes[n];
        match op {
            Op::Lit | Op::Slot => Vec::new(),
            Op::Not => vec![a],
            Op::Sum => self.terms[a as usize..b as usize].to_vec(),
            _ => vec![a, b],
        }
    }
}

/// A predicate compiled once against its sorted [`Predicate::variables`]:
/// the observed state is one dense slot per variable, and φ is a postfix
/// program over those slots that caches one `f64` per node. [`set`] writes
/// a slot and recomputes only the nodes its value reaches, in postfix
/// order; [`holds`] reads the root. Each node is computed by the same `f64`
/// operation, on the same operand values, as [`Predicate::eval`] computes
/// it — a sum re-adds its cached operands first to last — so every verdict
/// is `eval`'s, which stays the definition (and the oracle the proptests
/// check this against). Every detector holds one of these; its clones
/// share the program and copy only the slots and node values.
///
/// [`set`]: Self::set
/// [`holds`]: Self::holds
#[derive(Debug, Clone)]
pub struct Compiled {
    program: Arc<Program>,
    /// `vals[i]` is the observed value of `program.vars[i]`.
    vals: Vec<AttrValue>,
    /// `values[n]` is node `n`'s value on the observed state.
    values: Vec<f64>,
}

/// A copy of a [`Compiled`]'s observed state, for [`Compiled::restore`];
/// its buffers are reused from one save to the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct SavedState {
    vals: Vec<AttrValue>,
    values: Vec<f64>,
}

impl Compiled {
    /// The conjunction of `exprs` (one expression for a relational predicate
    /// or a single conjunct; none is vacuously true) over `vars`, observed
    /// from `initial` — a variable it lacks reads `Int(0)`.
    fn new<'a>(
        exprs: impl Iterator<Item = &'a Expr>,
        vars: Vec<AttrKey>,
        initial: &WorldState,
    ) -> Self {
        let mut lowering =
            Lowering { vars: &vars, nodes: Vec::new(), literals: Vec::new(), terms: Vec::new() };
        let mut root = None;
        for e in exprs {
            let n = lowering.lower(e);
            root = Some(match root {
                Some(left) => lowering.push(Op::And, left, n, 0.0),
                None => n,
            });
        }
        if root.is_none() {
            lowering.push(Op::Lit, 0, 0, 1.0);
        }
        let Lowering { nodes, literals, terms, .. } = lowering;
        let vals: Vec<AttrValue> =
            vars.iter().map(|&k| initial.get(k).unwrap_or(AttrValue::Int(0))).collect();
        let program = Program::new(vars, nodes, terms);
        let mut values = literals;
        for n in 0..values.len() {
            values[n] = program.compute(n, &vals, &values);
        }
        Compiled { program: Arc::new(program), vals, values }
    }

    fn slot(&self, key: AttrKey) -> Option<usize> {
        self.program.vars.binary_search(&key).ok()
    }

    /// Is `key` one of the predicate's variables?
    pub fn watches(&self, key: AttrKey) -> bool {
        self.slot(key).is_some()
    }

    /// Observe `key = value`. Returns the value it replaces, or `None` when
    /// `key` is not one of the predicate's variables: the report is
    /// irrelevant, nothing changed, and [`holds`](Self::holds) cannot have.
    pub fn set(&mut self, key: AttrKey, value: AttrValue) -> Option<AttrValue> {
        let slot = self.slot(key)?;
        let old = std::mem::replace(&mut self.vals[slot], value);
        let p = &*self.program;
        for &n in &p.reach[p.reach_at[slot] as usize..p.reach_at[slot + 1] as usize] {
            self.values[n as usize] = p.compute(n as usize, &self.vals, &self.values);
        }
        Some(old)
    }

    /// Does the predicate hold in the observed state?
    pub fn holds(&self) -> bool {
        *self.values.last().expect("a program has a root") != 0.0
    }

    /// Copy the observed state into `to`.
    pub(crate) fn save(&self, to: &mut SavedState) {
        to.vals.clone_from(&self.vals);
        to.values.clone_from(&self.values);
    }

    /// Return to the observed state `from` saved.
    pub(crate) fn restore(&mut self, from: &SavedState) {
        self.vals.copy_from_slice(&from.vals);
        self.values.copy_from_slice(&from.values);
    }
}

/// Appends an expression's nodes in postfix order.
struct Lowering<'a> {
    /// Sorted; lists every variable lowered.
    vars: &'a [AttrKey],
    nodes: Vec<Node>,
    /// Each node's value if it is a literal, else a placeholder.
    literals: Vec<f64>,
    terms: Vec<u32>,
}

impl Lowering<'_> {
    fn push(&mut self, op: Op, a: u32, b: u32, literal: f64) -> u32 {
        self.nodes.push(Node { op, a, b });
        self.literals.push(literal);
        (self.nodes.len() - 1) as u32
    }

    /// Append `e`; returns its root node.
    fn lower(&mut self, e: &Expr) -> u32 {
        let (a, b, op) = match e {
            Expr::Lit(v) => return self.push(Op::Lit, 0, 0, v.as_float()),
            Expr::Var(k) => {
                let slot = self.vars.binary_search(k).expect("compiled over its variables");
                return self.push(Op::Slot, slot as u32, 0, 0.0);
            }
            Expr::Sum(xs) => {
                let operands: Vec<u32> = xs.iter().map(|x| self.lower(x)).collect();
                let start = self.terms.len() as u32;
                self.terms.extend(operands);
                return self.push(Op::Sum, start, self.terms.len() as u32, 0.0);
            }
            Expr::Not(a) => {
                let a = self.lower(a);
                return self.push(Op::Not, a, 0, 0.0);
            }
            Expr::Add(a, b) => (a, b, Op::Add),
            Expr::Sub(a, b) => (a, b, Op::Sub),
            Expr::Mul(a, b) => (a, b, Op::Mul),
            Expr::Gt(a, b) => (a, b, Op::Gt),
            Expr::Ge(a, b) => (a, b, Op::Ge),
            Expr::Lt(a, b) => (a, b, Op::Lt),
            Expr::Eq(a, b) => (a, b, Op::Eq),
            Expr::And(a, b) => (a, b, Op::And),
            Expr::Or(a, b) => (a, b, Op::Or),
        };
        let a = self.lower(a);
        let b = self.lower(b);
        self.push(op, a, b, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(pairs: &[(AttrKey, AttrValue)]) -> impl Fn(AttrKey) -> AttrValue + '_ {
        move |k| {
            pairs.iter().find(|(key, _)| *key == k).map(|(_, v)| *v).unwrap_or(AttrValue::Int(0))
        }
    }

    #[test]
    fn arithmetic_and_comparison() {
        let k = AttrKey::new(0, 0);
        let vars = [(k, AttrValue::Int(7))];
        let read = reader(&vars);
        assert!((Expr::var(k).add(Expr::int(3)).eval_num(&read) - 10.0).abs() < 1e-12);
        assert!(Expr::var(k).gt(Expr::int(5)).eval_bool(&read));
        assert!(!Expr::var(k).lt(Expr::int(5)).eval_bool(&read));
        assert!(Expr::var(k).eq_expr(Expr::int(7)).eval_bool(&read));
        assert!(Expr::var(k).ge(Expr::int(7)).eval_bool(&read));
        assert!((Expr::var(k).mul(Expr::int(2)).eval_num(&read) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn boolean_logic() {
        let a = AttrKey::new(0, 0);
        let b = AttrKey::new(1, 0);
        let vars = [(a, AttrValue::Bool(true)), (b, AttrValue::Bool(false))];
        let read = reader(&vars);
        assert!(Expr::var(a).and(Expr::var(b).negate()).eval_bool(&read));
        assert!(Expr::var(a).or(Expr::var(b)).eval_bool(&read));
        assert!(!Expr::var(b).eval_bool(&read));
        assert!(Expr::boolean(true).eval_bool(&read));
    }

    #[test]
    fn comparisons_coerce_numerically() {
        let read = reader(&[]);
        // (1 > 0) used as a number is 1.
        assert_eq!(Expr::int(1).gt(Expr::int(0)).eval_num(&read), 1.0);
        assert_eq!(Expr::int(0).gt(Expr::int(1)).eval_num(&read), 0.0);
        // A number used as a bool is nonzero.
        assert!(Expr::int(5).eval_bool(&read));
        assert!(!Expr::int(0).eval_bool(&read));
    }

    #[test]
    fn variables_are_collected_and_deduped() {
        let k0 = AttrKey::new(0, 0);
        let k1 = AttrKey::new(1, 0);
        let e = Expr::var(k0).add(Expr::var(k1)).gt(Expr::var(k0));
        assert_eq!(e.variables(), vec![k0, k1]);
    }

    #[test]
    fn occupancy_predicate_matches_manual_sum() {
        let p = Predicate::occupancy_over(2, 5);
        let vars = [
            (AttrKey::new(0, 0), AttrValue::Int(4)), // x0
            (AttrKey::new(0, 1), AttrValue::Int(1)), // y0
            (AttrKey::new(1, 0), AttrValue::Int(3)), // x1
            (AttrKey::new(1, 1), AttrValue::Int(0)), // y1
        ];
        let read = reader(&vars);
        assert!(p.eval(&read), "occupancy 6 > 5");
        let vars2 = [
            (AttrKey::new(0, 0), AttrValue::Int(4)),
            (AttrKey::new(0, 1), AttrValue::Int(2)),
            (AttrKey::new(1, 0), AttrValue::Int(3)),
            (AttrKey::new(1, 1), AttrValue::Int(0)),
        ];
        assert!(!p.eval(&reader(&vars2)), "occupancy 5 is not > 5");
    }

    #[test]
    fn conjunctive_needs_all_conjuncts() {
        let p = Predicate::Conjunctive(vec![
            Conjunct { process: 0, expr: Expr::var(AttrKey::new(0, 0)).gt(Expr::int(1)) },
            Conjunct { process: 1, expr: Expr::var(AttrKey::new(1, 0)).gt(Expr::int(1)) },
        ]);
        let both =
            [(AttrKey::new(0, 0), AttrValue::Int(2)), (AttrKey::new(1, 0), AttrValue::Int(2))];
        let one =
            [(AttrKey::new(0, 0), AttrValue::Int(2)), (AttrKey::new(1, 0), AttrValue::Int(0))];
        assert!(p.eval(&reader(&both)));
        assert!(!p.eval(&reader(&one)));
    }

    #[test]
    fn eval_state_defaults_missing_to_zero() {
        let p = Predicate::Relational(Expr::var(AttrKey::new(9, 9)).eq_expr(Expr::int(0)));
        let state = WorldState::default();
        assert!(p.eval_state(&state));
    }

    #[test]
    fn hot_and_occupied_shape() {
        let p = Predicate::hot_and_occupied(2, 30.0);
        let hot_occ = [
            (AttrKey::new(2, 0), AttrValue::Float(31.0)),
            (AttrKey::new(2, 1), AttrValue::Bool(true)),
        ];
        let hot_empty = [
            (AttrKey::new(2, 0), AttrValue::Float(31.0)),
            (AttrKey::new(2, 1), AttrValue::Bool(false)),
        ];
        assert!(p.eval(&reader(&hot_occ)));
        assert!(!p.eval(&reader(&hot_empty)));
        assert_eq!(p.variables().len(), 2);
    }
}
