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

/// One instruction of a [`Compiled`] program: postfix over an `f64` stack.
/// A boolean result is pushed as 1.0 / 0.0 and an operand is true iff it is
/// `!= 0.0` — the coercions of [`Expr::eval_num`] / [`Expr::eval_bool`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Lit(f64),
    /// Push the current value of slot `i`.
    Slot(usize),
    Add,
    Sub,
    Mul,
    /// Replace the top `n` operands by their sum, added first to last.
    Sum(usize),
    Gt,
    Ge,
    Lt,
    Eq,
    And,
    Or,
    Not,
}

/// A predicate compiled once against its sorted [`Predicate::variables`]:
/// the observed state is one dense slot per variable and φ is a flat postfix
/// program over those slots. Every detector holds one of these — per report
/// it costs a binary search over the predicate's own variables and one pass
/// over the program, performing the same `f64` operations in the same order
/// as [`Predicate::eval`], which stays the definition (and the oracle the
/// proptests check this against).
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Sorted; `vals[i]` is the observed value of `vars[i]`.
    vars: Vec<AttrKey>,
    vals: Vec<AttrValue>,
    ops: Vec<Op>,
    /// Operand stack, kept for its capacity.
    stack: Vec<f64>,
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
        let mut ops = Vec::new();
        for (i, e) in exprs.enumerate() {
            lower(e, &vars, &mut ops);
            if i > 0 {
                ops.push(Op::And);
            }
        }
        if ops.is_empty() {
            ops.push(Op::Lit(1.0));
        }
        let vals = vars.iter().map(|&k| initial.get(k).unwrap_or(AttrValue::Int(0))).collect();
        Compiled { vars, vals, ops, stack: Vec::new() }
    }

    fn slot(&self, key: AttrKey) -> Option<usize> {
        self.vars.binary_search(&key).ok()
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
        Some(std::mem::replace(&mut self.vals[slot], value))
    }

    /// Does the predicate hold in the observed state?
    pub fn holds(&mut self) -> bool {
        fn binary(stack: &mut Vec<f64>, f: impl FnOnce(f64, f64) -> f64) {
            let b = stack.pop().expect("right operand");
            let a = stack.pop().expect("left operand");
            stack.push(f(a, b));
        }
        let truth = |b: bool| f64::from(u8::from(b));
        let stack = &mut self.stack;
        stack.clear();
        for op in &self.ops {
            match *op {
                Op::Lit(x) => stack.push(x),
                Op::Slot(i) => stack.push(self.vals[i].as_float()),
                Op::Sum(n) => {
                    let terms = stack.len() - n;
                    let sum = stack[terms..].iter().sum();
                    stack.truncate(terms);
                    stack.push(sum);
                }
                Op::Add => binary(stack, |a, b| a + b),
                Op::Sub => binary(stack, |a, b| a - b),
                Op::Mul => binary(stack, |a, b| a * b),
                Op::Gt => binary(stack, |a, b| truth(a > b)),
                Op::Ge => binary(stack, |a, b| truth(a >= b)),
                Op::Lt => binary(stack, |a, b| truth(a < b)),
                Op::Eq => binary(stack, |a, b| truth(a == b)),
                Op::And => binary(stack, |a, b| truth(a != 0.0 && b != 0.0)),
                Op::Or => binary(stack, |a, b| truth(a != 0.0 || b != 0.0)),
                Op::Not => {
                    let a = stack.pop().expect("operand");
                    stack.push(truth(a == 0.0));
                }
            }
        }
        stack.pop().expect("a program leaves its result") != 0.0
    }
}

/// Append `e` in postfix; `vars` is sorted and lists every variable of `e`.
fn lower(e: &Expr, vars: &[AttrKey], ops: &mut Vec<Op>) {
    let (a, b, op) = match e {
        Expr::Lit(v) => return ops.push(Op::Lit(v.as_float())),
        Expr::Var(k) => {
            return ops.push(Op::Slot(vars.binary_search(k).expect("compiled over its variables")))
        }
        Expr::Sum(xs) => {
            xs.iter().for_each(|x| lower(x, vars, ops));
            return ops.push(Op::Sum(xs.len()));
        }
        Expr::Not(a) => {
            lower(a, vars, ops);
            return ops.push(Op::Not);
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
    lower(a, vars, ops);
    lower(b, vars, ops);
    ops.push(op);
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
