//! Recursive-descent parser for the `.psn` scenario language.
//!
//! Grammar sketch (see the README for the user-facing version):
//!
//! ```text
//! file       := scenario
//! scenario   := "scenario" STRING "{" item* "}"
//! item       := "seed" INT
//!             | "world" IDENT "{" field* "}"
//!             | "clocks" "{" field* "}"
//!             | "strobes" "{" field* "}"
//!             | "network" "{" net-item* "}"
//!             | "run" "{" field* "}"
//!             | "predicate" STRING ("relational" "{" expr "}"
//!                                  | "conjunctive" "{" ("at" INT ":" expr)* "}")
//!             | "faults" "{" fault-item* "}"
//! field      := IDENT value
//! value      := INT | FLOAT | DUR | "true" | "false" | IDENT
//! net-item   := "delay" delay | "loss" loss | "fifo" BOOL
//! delay      := "synchronous" | "fixed" DUR | "delta" DUR
//!             | "uniform" DUR ".." DUR | "exponential" DUR ["cap" DUR]
//! loss       := "none" | "bernoulli" FLOAT | "bursty" FLOAT FLOAT FLOAT FLOAT
//! fault-item := "at" DUR fault | "chaos" "{" field* "}"
//! fault      := "crash" INT ["recover" DUR]
//!             | "partition" "[" INT ("," INT)* "]" ["heal" DUR] ["park"]
//!             | "channel" ["from" INT] ["to" INT] "prob" NUM effect ["for" DUR]
//!             | "clock" INT clock-kind
//! effect     := "drop" | "duplicate" | "reorder" DUR | "corrupt"
//! clock-kind := "drift_spike" NUM | "reset" | "freeze" | "unfreeze"
//!             | "desync" | "resync"
//! expr       := or ; or := and ("or" and)* ; and := cmp ("and" cmp)*
//! cmp        := add (("<"|"<="|">"|">="|"=="|"!=") add)?
//! add        := mul (("+"|"-") mul)* ; mul := unary ("*" unary)*
//! unary      := ("not"|"!"|"-") unary | atom
//! atom       := NUM | BOOL | "(" expr ")"
//!             | "sum" "(" IDENT "in" expr ".." expr ")" "(" expr ")"
//!             | IDENT ("[" expr "]")? ("." IDENT)?
//! ```
//!
//! Statements need no terminators: every construct's arity is fixed by
//! its leading keyword.

use crate::ast::*;
use crate::diag::{Diagnostic, Span, Spanned};
use crate::lexer::{lex, Tok};

/// How deeply expressions may nest: parentheses, unary operators, `sum`s,
/// indices and chained binary operators each take one level. The parser
/// and the compiler recurse once per level, so hostile source must end in
/// a diagnostic rather than a stack overflow (the JSON codec's bound).
const MAX_DEPTH: usize = 128;

/// Precedence of the comparison operators.
const CMP: u8 = 2;
/// Precedence of `+` and `-`.
const ADD: u8 = 3;

struct Parser {
    toks: Vec<Spanned<Tok>>,
    pos: usize,
    /// Expression nesting levels currently open.
    depth: usize,
}

type PResult<T> = Result<T, Diagnostic>;

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].node
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Spanned<Tok> {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(Diagnostic::new(self.span(), msg))
    }

    fn expect(&mut self, want: &Tok, what: &str) -> PResult<Span> {
        if self.peek() == want {
            Ok(self.bump().span)
        } else {
            self.err(format!("expected {what}, found {}", self.peek().describe()))
        }
    }

    /// Consume the keyword `kw` (an `Ident` with that exact text).
    fn expect_kw(&mut self, kw: &str) -> PResult<Span> {
        match self.peek() {
            Tok::Ident(s) if s == kw => Ok(self.bump().span),
            other => Err(Diagnostic::new(
                self.span(),
                format!("expected `{kw}`, found {}", other.describe()),
            )),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn ident(&mut self, what: &str) -> PResult<Spanned<String>> {
        match self.peek().clone() {
            Tok::Ident(s) => Ok(Spanned::new(s, self.bump().span)),
            other => self.err(format!("expected {what}, found {}", other.describe())),
        }
    }

    fn string(&mut self, what: &str) -> PResult<Spanned<String>> {
        match self.peek().clone() {
            Tok::Str(s) => Ok(Spanned::new(s, self.bump().span)),
            other => {
                self.err(format!("expected {what} (a quoted string), found {}", other.describe()))
            }
        }
    }

    fn int(&mut self, what: &str) -> PResult<Spanned<i64>> {
        match *self.peek() {
            Tok::Int(v) => Ok(Spanned::new(v, self.bump().span)),
            ref other => {
                self.err(format!("expected {what} (an integer), found {}", other.describe()))
            }
        }
    }

    fn dur(&mut self, what: &str) -> PResult<Spanned<u64>> {
        match *self.peek() {
            Tok::Dur(ns) => Ok(Spanned::new(ns, self.bump().span)),
            ref other => self.err(format!(
                "expected {what} (a duration like `300ms` or `20s`), found {}",
                other.describe()
            )),
        }
    }

    fn num(&mut self, what: &str) -> PResult<Spanned<f64>> {
        match *self.peek() {
            Tok::Int(v) => Ok(Spanned::new(v as f64, self.bump().span)),
            Tok::Float(v) => Ok(Spanned::new(v, self.bump().span)),
            ref other => {
                self.err(format!("expected {what} (a number), found {}", other.describe()))
            }
        }
    }

    // ---- blocks --------------------------------------------------------

    fn scenario(&mut self) -> PResult<ScenarioDef> {
        self.expect_kw("scenario")?;
        let name = self.string("the scenario name")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let mut def = ScenarioDef {
            name,
            seed: None,
            world: WorldDef {
                kind: Spanned::new(String::new(), Span::default()),
                fields: Vec::new(),
            },
            clocks: Vec::new(),
            strobes: Vec::new(),
            network: None,
            run: Vec::new(),
            predicates: Vec::new(),
            faults: None,
        };
        let mut have_world = false;
        while self.peek() != &Tok::RBrace {
            let kw = self.ident("a block keyword")?;
            match kw.node.as_str() {
                "seed" => {
                    let v = self.int("the seed")?;
                    if v.node < 0 {
                        return Err(Diagnostic::new(v.span, "seed must be non-negative"));
                    }
                    def.seed = Some(Spanned::new(v.node as u64, v.span));
                }
                "world" => {
                    let kind = self
                        .ident("a world kind (office, exhibition, hospital, habitat, structure)")?;
                    def.world = WorldDef { kind, fields: self.field_block()? };
                    have_world = true;
                }
                "clocks" => def.clocks = self.field_block()?,
                "strobes" => def.strobes = self.field_block()?,
                "network" => def.network = Some(self.network_block()?),
                "run" => def.run = self.field_block()?,
                "predicate" => def.predicates.push(self.predicate_block()?),
                "faults" => def.faults = Some(self.faults_block()?),
                other => {
                    return Err(Diagnostic::new(
                        kw.span,
                        format!(
                            "unknown block `{other}` (expected seed, world, clocks, strobes, \
                             network, run, predicate, or faults)"
                        ),
                    ));
                }
            }
        }
        self.expect(&Tok::RBrace, "`}`")?;
        if !have_world {
            return Err(Diagnostic::new(
                def.name.span,
                "scenario has no `world` block (one is required)",
            ));
        }
        Ok(def)
    }

    fn field_block(&mut self) -> PResult<Vec<Field>> {
        self.expect(&Tok::LBrace, "`{`")?;
        let mut out = Vec::new();
        while self.peek() != &Tok::RBrace {
            let name = self.ident("a field name")?;
            let value = match self.peek().clone() {
                Tok::Int(v) => Spanned::new(Value::Int(v), self.bump().span),
                Tok::Float(v) => Spanned::new(Value::Float(v), self.bump().span),
                Tok::Dur(ns) => Spanned::new(Value::Dur(ns), self.bump().span),
                Tok::Ident(s) if s == "true" => Spanned::new(Value::Bool(true), self.bump().span),
                Tok::Ident(s) if s == "false" => Spanned::new(Value::Bool(false), self.bump().span),
                Tok::Ident(s) => Spanned::new(Value::Ident(s), self.bump().span),
                other => {
                    return self.err(format!(
                        "expected a value for field `{}`, found {}",
                        name.node,
                        other.describe()
                    ));
                }
            };
            out.push(Field { name, value });
        }
        self.expect(&Tok::RBrace, "`}`")?;
        Ok(out)
    }

    fn network_block(&mut self) -> PResult<NetworkDef> {
        self.expect(&Tok::LBrace, "`{`")?;
        let mut net = NetworkDef::default();
        while self.peek() != &Tok::RBrace {
            let kw = self.ident("`delay`, `loss`, or `fifo`")?;
            match kw.node.as_str() {
                "delay" => {
                    let start = self.span();
                    let spec = self.delay_spec()?;
                    net.delay = Some(Spanned::new(spec, start.to(self.prev_span())));
                }
                "loss" => {
                    let start = self.span();
                    let spec = self.loss_spec()?;
                    net.loss = Some(Spanned::new(spec, start.to(self.prev_span())));
                }
                "fifo" => {
                    let v = self.ident("`true` or `false`")?;
                    let b = match v.node.as_str() {
                        "true" => true,
                        "false" => false,
                        other => {
                            return Err(Diagnostic::new(
                                v.span,
                                format!("`fifo` expects `true` or `false`, found `{other}`"),
                            ));
                        }
                    };
                    net.fifo = Some(Spanned::new(b, v.span));
                }
                other => {
                    return Err(Diagnostic::new(
                        kw.span,
                        format!("unknown network item `{other}` (expected delay, loss, or fifo)"),
                    ));
                }
            }
        }
        self.expect(&Tok::RBrace, "`}`")?;
        Ok(net)
    }

    fn delay_spec(&mut self) -> PResult<DelaySpec> {
        let kind = self.ident("a delay model (synchronous, fixed, delta, uniform, exponential)")?;
        Ok(match kind.node.as_str() {
            "synchronous" => DelaySpec::Synchronous,
            "fixed" => DelaySpec::Fixed(self.dur("the fixed delay")?.node),
            "delta" => DelaySpec::Delta(self.dur("the delay bound Δ")?.node),
            "uniform" => {
                let min = self.dur("the minimum delay")?;
                self.expect(&Tok::DotDot, "`..`")?;
                let max = self.dur("the maximum delay")?;
                if min.node > max.node {
                    return Err(Diagnostic::new(
                        min.span.to(max.span),
                        "uniform delay range has min > max",
                    ));
                }
                DelaySpec::Uniform { min: min.node, max: max.node }
            }
            "exponential" => {
                let mean = self.dur("the mean delay")?.node;
                let cap = if self.at_kw("cap") {
                    self.bump();
                    Some(self.dur("the delay cap")?.node)
                } else {
                    None
                };
                DelaySpec::Exponential { mean, cap }
            }
            other => {
                return Err(Diagnostic::new(
                    kind.span,
                    format!(
                        "unknown delay model `{other}` (expected synchronous, fixed, delta, \
                         uniform, or exponential)"
                    ),
                ));
            }
        })
    }

    fn loss_spec(&mut self) -> PResult<LossSpec> {
        let kind = self.ident("a loss model (none, bernoulli, bursty)")?;
        Ok(match kind.node.as_str() {
            "none" => LossSpec::None,
            "bernoulli" => {
                let p = self.num("the loss probability")?;
                if !(0.0..=1.0).contains(&p.node) {
                    return Err(Diagnostic::new(p.span, "loss probability must be in [0, 1]"));
                }
                LossSpec::Bernoulli(p.node)
            }
            "bursty" => {
                let a = self.num("p(good→bad)")?.node;
                let b = self.num("p(bad→good)")?.node;
                let c = self.num("loss in good state")?.node;
                let d = self.num("loss in bad state")?.node;
                LossSpec::Bursty(a, b, c, d)
            }
            other => {
                return Err(Diagnostic::new(
                    kind.span,
                    format!("unknown loss model `{other}` (expected none, bernoulli, or bursty)"),
                ));
            }
        })
    }

    fn predicate_block(&mut self) -> PResult<PredicateDef> {
        let name = self.string("the predicate name")?;
        let shape = self.ident("`relational` or `conjunctive`")?;
        let body = match shape.node.as_str() {
            "relational" => {
                self.expect(&Tok::LBrace, "`{`")?;
                let e = self.expr()?;
                self.expect(&Tok::RBrace, "`}`")?;
                PredicateBody::Relational(e)
            }
            "conjunctive" => {
                self.expect(&Tok::LBrace, "`{`")?;
                let mut parts = Vec::new();
                while self.peek() != &Tok::RBrace {
                    self.expect_kw("at")?;
                    let process = self.int("the owning process index")?;
                    self.expect(&Tok::Colon, "`:`")?;
                    parts.push(ConjunctDef { process, expr: self.expr()? });
                }
                self.expect(&Tok::RBrace, "`}`")?;
                if parts.is_empty() {
                    return Err(Diagnostic::new(
                        name.span,
                        "conjunctive predicate has no `at P: expr` parts",
                    ));
                }
                PredicateBody::Conjunctive(parts)
            }
            other => {
                return Err(Diagnostic::new(
                    shape.span,
                    format!("expected `relational` or `conjunctive`, found `{other}`"),
                ));
            }
        };
        Ok(PredicateDef { name, body })
    }

    fn faults_block(&mut self) -> PResult<FaultsDef> {
        self.expect(&Tok::LBrace, "`{`")?;
        let mut def = FaultsDef::default();
        while self.peek() != &Tok::RBrace {
            if self.at_kw("chaos") {
                self.bump();
                def.chaos = Some(self.field_block()?);
                continue;
            }
            let start = self.span();
            self.expect_kw("at")?;
            let at = self.dur("the injection time")?.node;
            let entry = self.fault_entry(at)?;
            def.entries.push(Spanned::new(entry, start.to(self.prev_span())));
        }
        self.expect(&Tok::RBrace, "`}`")?;
        Ok(def)
    }

    fn fault_entry(&mut self, at: u64) -> PResult<FaultEntry> {
        let kind = self.ident("a fault kind (crash, partition, channel, clock)")?;
        Ok(match kind.node.as_str() {
            "crash" => {
                let actor = self.int("the crashed process")?;
                let recover = if self.at_kw("recover") {
                    self.bump();
                    Some(self.dur("the recovery delay")?.node)
                } else {
                    None
                };
                FaultEntry::Crash { at, actor, recover }
            }
            "partition" => {
                self.expect(&Tok::LBracket, "`[`")?;
                let mut group = vec![self.int("a process index")?];
                while self.peek() == &Tok::Comma {
                    self.bump();
                    group.push(self.int("a process index")?);
                }
                self.expect(&Tok::RBracket, "`]`")?;
                let heal = if self.at_kw("heal") {
                    self.bump();
                    Some(self.dur("the heal delay")?.node)
                } else {
                    None
                };
                let park = if self.at_kw("park") {
                    self.bump();
                    true
                } else {
                    false
                };
                FaultEntry::Partition { at, group, heal, park }
            }
            "channel" => {
                let mut from = None;
                let mut to = None;
                if self.at_kw("from") {
                    self.bump();
                    from = Some(self.int("the source process")?);
                }
                if self.at_kw("to") {
                    self.bump();
                    to = Some(self.int("the destination process")?);
                }
                self.expect_kw("prob")?;
                let prob = self.num("the match probability")?;
                if !(0.0..=1.0).contains(&prob.node) {
                    return Err(Diagnostic::new(prob.span, "probability must be in [0, 1]"));
                }
                let eff = self.ident("an effect (drop, duplicate, reorder, corrupt)")?;
                let effect = match eff.node.as_str() {
                    "drop" => ChannelEffectDef::Drop,
                    "duplicate" => ChannelEffectDef::Duplicate,
                    "reorder" => ChannelEffectDef::Reorder(self.dur("the extra delay")?.node),
                    "corrupt" => ChannelEffectDef::Corrupt,
                    other => {
                        return Err(Diagnostic::new(
                            eff.span,
                            format!(
                                "unknown channel effect `{other}` (expected drop, duplicate, \
                                 reorder, or corrupt)"
                            ),
                        ));
                    }
                };
                let dur = if self.at_kw("for") {
                    self.bump();
                    Some(self.dur("the rule lifetime")?.node)
                } else {
                    None
                };
                FaultEntry::Channel { at, from, to, prob: prob.node, effect, dur }
            }
            "clock" => {
                let actor = self.int("the affected process")?;
                let k = self.ident(
                    "a clock fault (drift_spike, reset, freeze, unfreeze, desync, resync)",
                )?;
                let kind = match k.node.as_str() {
                    "drift_spike" => {
                        ClockKindDef::DriftSpike(self.num("the added drift, ppm")?.node)
                    }
                    "reset" => ClockKindDef::Reset,
                    "freeze" => ClockKindDef::Freeze,
                    "unfreeze" => ClockKindDef::Unfreeze,
                    "desync" => ClockKindDef::Desync,
                    "resync" => ClockKindDef::Resync,
                    other => {
                        return Err(Diagnostic::new(
                            k.span,
                            format!(
                                "unknown clock fault `{other}` (expected drift_spike, reset, \
                                 freeze, unfreeze, desync, or resync)"
                            ),
                        ));
                    }
                };
                FaultEntry::Clock { at, actor, kind }
            }
            other => {
                return Err(Diagnostic::new(
                    kind.span,
                    format!(
                        "unknown fault kind `{other}` (expected crash, partition, channel, \
                         or clock)"
                    ),
                ));
            }
        })
    }

    // ---- expressions ---------------------------------------------------

    /// Open one more expression nesting level (see [`MAX_DEPTH`]). Parse
    /// errors abort the whole parse, so only the success paths close it.
    fn descend(&mut self) -> PResult<()> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("expression nests deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    fn expr(&mut self) -> PResult<Spanned<PExpr>> {
        self.descend()?;
        let e = self.binary(0)?;
        self.depth -= 1;
        Ok(e)
    }

    /// The binary operator at the cursor with its precedence: `or` 0,
    /// `and` 1, comparisons [`CMP`], `+ -` [`ADD`], `*` 4.
    fn binary_op(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek() {
            Tok::OrOr => (BinOp::Or, 0),
            Tok::Ident(s) if s == "or" => (BinOp::Or, 0),
            Tok::AndAnd => (BinOp::And, 1),
            Tok::Ident(s) if s == "and" => (BinOp::And, 1),
            Tok::Gt => (BinOp::Gt, CMP),
            Tok::Ge => (BinOp::Ge, CMP),
            Tok::Lt => (BinOp::Lt, CMP),
            Tok::Le => (BinOp::Le, CMP),
            Tok::EqEq => (BinOp::Eq, CMP),
            Tok::Ne => (BinOp::Ne, CMP),
            Tok::Plus => (BinOp::Add, ADD),
            Tok::Minus => (BinOp::Sub, ADD),
            Tok::Star => (BinOp::Mul, 4),
            _ => return None,
        })
    }

    /// Precedence climbing over operators of precedence `min` and above,
    /// all left-associative; a comparison does not chain.
    fn binary(&mut self, min: u8) -> PResult<Spanned<PExpr>> {
        let base = self.depth;
        let mut lhs = self.unary_expr()?;
        // The loosest operator folded so far bounds what may follow: an
        // operator above it is one the right operand refused, which only a
        // second comparison can be.
        let mut ceiling = u8::MAX;
        while let Some((op, prec)) = self.binary_op() {
            if prec < min || prec > ceiling {
                break;
            }
            ceiling = if prec == CMP { CMP - 1 } else { prec };
            self.descend()?;
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = Spanned::new(PExpr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span);
        }
        self.depth = base;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Spanned<PExpr>> {
        let not = self.at_kw("not") || self.peek() == &Tok::Bang;
        if !not && self.peek() != &Tok::Minus {
            return self.atom_expr();
        }
        self.descend()?;
        let start = self.bump().span;
        let inner = Box::new(self.unary_expr()?);
        self.depth -= 1;
        let span = start.to(inner.span);
        Ok(Spanned::new(if not { PExpr::Not(inner) } else { PExpr::Neg(inner) }, span))
    }

    fn atom_expr(&mut self) -> PResult<Spanned<PExpr>> {
        match self.peek().clone() {
            Tok::Int(v) => Ok(Spanned::new(PExpr::Int(v), self.bump().span)),
            Tok::Float(v) => Ok(Spanned::new(PExpr::Float(v), self.bump().span)),
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Ident(s) if s == "true" => Ok(Spanned::new(PExpr::Bool(true), self.bump().span)),
            Tok::Ident(s) if s == "false" => Ok(Spanned::new(PExpr::Bool(false), self.bump().span)),
            Tok::Ident(s) if s == "sum" => self.sum_expr(),
            Tok::Ident(name) => self.reference(name),
            other => self.err(format!("expected an expression, found {}", other.describe())),
        }
    }

    // `sum` and references parse outside `atom_expr`, so the frame that
    // every parenthesis level passes through stays small.

    /// `sum "(" IDENT "in" expr ".." expr ")" "(" expr ")"`.
    fn sum_expr(&mut self) -> PResult<Spanned<PExpr>> {
        let start = self.bump().span;
        self.expect(&Tok::LParen, "`(`")?;
        let var = self.ident("the loop variable")?;
        self.expect_kw("in")?;
        let lo = self.binary(ADD)?;
        self.expect(&Tok::DotDot, "`..`")?;
        let hi = self.binary(ADD)?;
        self.expect(&Tok::RParen, "`)`")?;
        self.expect(&Tok::LParen, "`(`")?;
        let body = self.expr()?;
        let end = self.expect(&Tok::RParen, "`)`")?;
        Ok(Spanned::new(
            PExpr::Sum { var: var.node, lo: Box::new(lo), hi: Box::new(hi), body: Box::new(body) },
            start.to(end),
        ))
    }

    /// `IDENT ("[" expr "]")? ("." IDENT)?` after its identifier `name`.
    fn reference(&mut self, name: String) -> PResult<Spanned<PExpr>> {
        let start = self.bump().span;
        let mut end = start;
        let index = if self.peek() == &Tok::LBracket {
            self.bump();
            let i = self.expr()?;
            end = self.expect(&Tok::RBracket, "`]`")?;
            Some(Box::new(i))
        } else {
            None
        };
        if self.peek() == &Tok::Dot {
            self.bump();
            let attr = self.ident("an attribute name")?;
            let span = start.to(attr.span);
            Ok(Spanned::new(PExpr::Var { family: name, index, attr: attr.node }, span))
        } else if index.is_some() {
            Err(Diagnostic::new(
                start.to(end),
                "indexed reference needs an attribute: write `family[i].attr`",
            ))
        } else {
            Ok(Spanned::new(PExpr::Const(name), start))
        }
    }
}

/// Parse one `.psn` source file into a [`ScenarioDef`].
pub fn parse(source: &str) -> Result<ScenarioDef, Vec<Diagnostic>> {
    let toks = lex(source).map_err(|d| vec![d])?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    let def = p.scenario().map_err(|d| vec![d])?;
    if p.peek() != &Tok::Eof {
        return Err(vec![Diagnostic::new(
            p.span(),
            format!("expected end of file after the scenario, found {}", p.peek().describe()),
        )]);
    }
    Ok(def)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"
        # A minimal scenario.
        scenario "demo" {
            seed 7
            world exhibition { doors 3 capacity 50 duration 300s }
            network {
                delay uniform 50ms..300ms
                loss bernoulli 0.02
                fifo true
            }
            run { shards 4 discipline arrival }
            predicate "crowded" relational {
                sum(d in 0..doors)(door[d].x - door[d].y) > 50
            }
            faults {
                at 30s crash 0 recover 20s
                at 60s partition [0, 1] heal 10s park
                at 10s channel from 0 to 2 prob 0.5 reorder 50ms for 100s
                at 5s clock 1 drift_spike 400.0
                chaos { crashes 1 partitions 0 }
            }
        }
    "#;

    #[test]
    fn parses_the_kitchen_sink() {
        let def = parse(SMALL).unwrap();
        assert_eq!(def.name.node, "demo");
        assert_eq!(def.seed.as_ref().unwrap().node, 7);
        assert_eq!(def.world.kind.node, "exhibition");
        assert_eq!(def.world.fields.len(), 3);
        let net = def.network.unwrap();
        assert_eq!(
            net.delay.unwrap().node,
            DelaySpec::Uniform { min: 50_000_000, max: 300_000_000 }
        );
        assert_eq!(net.loss.unwrap().node, LossSpec::Bernoulli(0.02));
        assert_eq!(def.predicates.len(), 1);
        let faults = def.faults.unwrap();
        assert_eq!(faults.entries.len(), 4);
        assert!(faults.chaos.is_some());
    }

    #[test]
    fn missing_world_is_an_error() {
        let errs = parse("scenario \"x\" { seed 1 }").unwrap_err();
        assert!(errs[0].message.contains("no `world` block"), "{}", errs[0].message);
    }

    #[test]
    fn unknown_block_names_the_candidates() {
        let errs = parse("scenario \"x\" { wrld office {} }").unwrap_err();
        assert!(errs[0].message.contains("unknown block `wrld`"));
        assert_eq!(errs[0].span.line, 1);
    }

    #[test]
    fn conjunctive_parts_parse() {
        let src = r#"scenario "c" {
            world office {}
            predicate "hot" conjunctive {
                at 0: room[0].temp > 30.0
                at 0: room[0].motion
            }
        }"#;
        let def = parse(src).unwrap();
        match &def.predicates[0].body {
            PredicateBody::Conjunctive(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected conjunctive, got {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let src = r#"scenario "p" {
            world office {}
            predicate "q" relational { room[0].temp + 1.0 * 2.0 > 3.0 and room[1].motion }
        }"#;
        let def = parse(src).unwrap();
        let PredicateBody::Relational(e) = &def.predicates[0].body else { panic!() };
        // Top level must be `and`.
        assert!(
            matches!(&e.node, PExpr::Binary { op: BinOp::And, .. }),
            "expected `and` at the top, got {:?}",
            e.node
        ); // Comparisons do not chain, also right of an `and`.
        for chained in ["1 < 2 < 3", "true and 1 < 2 < 3"] {
            let src = format!(
                r#"scenario "p" {{ world office {{}} predicate "q" relational {{ {chained} }} }}"#
            );
            assert!(parse(&src).is_err(), "{chained} must not parse");
        }
    }

    #[test]
    fn indexed_ref_without_attr_is_an_error() {
        let src = r#"scenario "p" { world office {} predicate "q" relational { door[0] > 1 } }"#;
        let errs = parse(src).unwrap_err();
        assert!(errs[0].message.contains("needs an attribute"), "{}", errs[0].message);
    }
}
