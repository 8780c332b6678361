//! The sensor-constraint expression language.
//!
//! §8 of the paper names "codification of sensor constraints via the
//! development of an expressive language" as a key extension, one that
//! "would facilitate the operation of the resource manager in
//! automatically enforcing such limits". This module implements that
//! language: a small,
//! total, side-effect-free expression grammar over the attributes of an
//! actuation request, evaluated by the Resource Manager before any
//! command is approved.
//!
//! # Grammar
//!
//! ```text
//! expr   := or
//! or     := and ( '||' and )*
//! and    := not ( '&&' not )*
//! not    := '!' not | cmp
//! cmp    := sum ( ('<'|'<='|'>'|'>='|'=='|'!=') sum )?
//! sum    := term ( ('+'|'-') term )*
//! term   := unary ( ('*'|'/') unary )*
//! unary  := '-' unary | atom
//! atom   := NUMBER | 'true' | 'false' | IDENT
//!         | IDENT '(' expr (',' expr)* ')'        (built-in call)
//!         | '(' expr ')'
//! ```
//!
//! Built-in functions: `min(a, b)`, `max(a, b)`, `abs(x)` and
//! `clamp(x, lo, hi)` — enough to express duty/rate envelopes like
//! `rate_hz <= min(20, 1000 / interval_floor_ms)` without hard-coding
//! the arithmetic in the Resource Manager.
//!
//! Identifiers are bound by the evaluation environment; the Resource
//! Manager provides `interval_ms`, `rate_hz`, `duty_permille`,
//! `stream`, `priority` and friends (see `resource`). Unknown
//! identifiers and type confusion are *errors*, not silently false —
//! a mis-spelled constraint must fail loudly at registration.
//!
//! # Example
//!
//! ```
//! use garnet_core::constraints::{Constraint, Env, Value};
//!
//! let c = Constraint::parse("rate_hz <= 10 && duty_permille <= 500")?;
//! let mut env = Env::new();
//! env.set("rate_hz", Value::Num(4.0));
//! env.set("duty_permille", Value::Num(250.0));
//! assert!(c.check(&env)?);
//! # Ok::<(), garnet_core::constraints::ConstraintError>(())
//! ```

use std::collections::BTreeMap;

use core::fmt;

/// A runtime value: numbers (all arithmetic is `f64`) or booleans.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A numeric value.
    Num(f64),
    /// A boolean value.
    Bool(bool),
}

impl Value {
    fn type_name(self) -> &'static str {
        match self {
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
        }
    }

    fn as_num(self) -> Result<f64, ConstraintError> {
        match self {
            Value::Num(n) => Ok(n),
            Value::Bool(_) => {
                Err(ConstraintError::TypeMismatch { expected: "number", found: "boolean" })
            }
        }
    }

    fn as_bool(self) -> Result<bool, ConstraintError> {
        match self {
            Value::Bool(b) => Ok(b),
            Value::Num(_) => {
                Err(ConstraintError::TypeMismatch { expected: "boolean", found: "number" })
            }
        }
    }
}

/// The evaluation environment: identifier bindings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Env {
    vars: BTreeMap<String, Value>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `name` to `value`, replacing any previous binding.
    pub fn set(&mut self, name: &str, value: Value) -> &mut Self {
        self.vars.insert(name.to_owned(), value);
        self
    }

    /// Reads a binding.
    pub(crate) fn get(&self, name: &str) -> Option<Value> {
        self.vars.get(name).copied()
    }
}

/// Errors from parsing or evaluating a constraint.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConstraintError {
    /// Lexical error at a byte offset.
    BadToken {
        /// Byte offset into the source.
        at: usize,
        /// The offending character.
        found: char,
    },
    /// The parser expected something else.
    UnexpectedToken {
        /// Byte offset into the source.
        at: usize,
        /// Human description of what was found.
        found: String,
        /// What the grammar wanted.
        expected: &'static str,
    },
    /// Input ended mid-expression.
    UnexpectedEnd,
    /// An identifier with no binding in the environment.
    UnknownIdentifier(String),
    /// Operator applied to the wrong type.
    TypeMismatch {
        /// Required type.
        expected: &'static str,
        /// Provided type.
        found: &'static str,
    },
    /// Division by zero during evaluation.
    DivisionByZero,
    /// A call to a function the language does not define.
    UnknownFunction(String),
    /// A built-in called with the wrong number of arguments.
    WrongArity {
        /// The function.
        function: &'static str,
        /// Arguments it takes.
        expected: usize,
        /// Arguments provided.
        found: usize,
    },
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::BadToken { at, found } => {
                write!(f, "unexpected character {found:?} at offset {at}")
            }
            ConstraintError::UnexpectedToken { at, found, expected } => {
                write!(f, "expected {expected} at offset {at}, found {found}")
            }
            ConstraintError::UnexpectedEnd => write!(f, "unexpected end of expression"),
            ConstraintError::UnknownIdentifier(name) => {
                write!(f, "unknown identifier {name:?}")
            }
            ConstraintError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            ConstraintError::DivisionByZero => write!(f, "division by zero"),
            ConstraintError::UnknownFunction(name) => {
                write!(f, "unknown function {name:?}")
            }
            ConstraintError::WrongArity { function, expected, found } => {
                write!(f, "{function} takes {expected} argument(s), found {found}")
            }
        }
    }
}

impl std::error::Error for ConstraintError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Num(f64),
    Ident(String),
    True,
    False,
    Plus,
    Minus,
    Star,
    Slash,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    Bang,
    LParen,
    RParen,
    Comma,
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, ConstraintError> {
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '+' => {
                out.push((i, Tok::Plus));
                i += 1;
            }
            '-' => {
                out.push((i, Tok::Minus));
                i += 1;
            }
            '*' => {
                out.push((i, Tok::Star));
                i += 1;
            }
            '/' => {
                out.push((i, Tok::Slash));
                i += 1;
            }
            '(' => {
                out.push((i, Tok::LParen));
                i += 1;
            }
            ')' => {
                out.push((i, Tok::RParen));
                i += 1;
            }
            ',' => {
                out.push((i, Tok::Comma));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((i, Tok::Le));
                    i += 2;
                } else {
                    out.push((i, Tok::Lt));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((i, Tok::Ge));
                    i += 2;
                } else {
                    out.push((i, Tok::Gt));
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((i, Tok::EqEq));
                    i += 2;
                } else {
                    return Err(ConstraintError::BadToken { at: i, found: '=' });
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((i, Tok::Ne));
                    i += 2;
                } else {
                    out.push((i, Tok::Bang));
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    out.push((i, Tok::AndAnd));
                    i += 2;
                } else {
                    return Err(ConstraintError::BadToken { at: i, found: '&' });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    out.push((i, Tok::OrOr));
                    i += 2;
                } else {
                    return Err(ConstraintError::BadToken { at: i, found: '|' });
                }
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let text = &src[start..i];
                let n: f64 =
                    text.parse().map_err(|_| ConstraintError::BadToken { at: start, found: c })?;
                out.push((start, Tok::Num(n)));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                out.push((
                    start,
                    match word {
                        "true" => Tok::True,
                        "false" => Tok::False,
                        _ => Tok::Ident(word.to_owned()),
                    },
                ));
            }
            other => return Err(ConstraintError::BadToken { at: i, found: other }),
        }
    }
    Ok(out)
}

/// Parsed expression tree.
#[derive(Clone, Debug, PartialEq)]
enum Expr {
    Num(f64),
    Bool(bool),
    Var(String),
    Neg(Box<Expr>),
    Not(Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Call(Builtin, Vec<Expr>),
}

/// The built-in function set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Builtin {
    Min,
    Max,
    Abs,
    Clamp,
}

impl Builtin {
    fn lookup(name: &str) -> Option<Builtin> {
        match name {
            "min" => Some(Builtin::Min),
            "max" => Some(Builtin::Max),
            "abs" => Some(Builtin::Abs),
            "clamp" => Some(Builtin::Clamp),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Abs => "abs",
            Builtin::Clamp => "clamp",
        }
    }

    fn arity(self) -> usize {
        match self {
            Builtin::Min | Builtin::Max => 2,
            Builtin::Abs => 1,
            Builtin::Clamp => 3,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn next(&mut self) -> Option<(usize, Tok)> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_rparen(&mut self) -> Result<(), ConstraintError> {
        match self.next() {
            Some((_, Tok::RParen)) => Ok(()),
            Some((at, t)) => Err(ConstraintError::UnexpectedToken {
                at,
                found: format!("{t:?}"),
                expected: "')'",
            }),
            None => Err(ConstraintError::UnexpectedEnd),
        }
    }

    fn parse_or(&mut self) -> Result<Expr, ConstraintError> {
        let mut lhs = self.parse_and()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.next();
            let rhs = self.parse_and()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ConstraintError> {
        let mut lhs = self.parse_not()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.next();
            let rhs = self.parse_not()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr, ConstraintError> {
        if self.peek() == Some(&Tok::Bang) {
            self.next();
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr, ConstraintError> {
        let lhs = self.parse_sum()?;
        let op = match self.peek() {
            Some(Tok::Lt) => Some(BinOp::Lt),
            Some(Tok::Le) => Some(BinOp::Le),
            Some(Tok::Gt) => Some(BinOp::Gt),
            Some(Tok::Ge) => Some(BinOp::Ge),
            Some(Tok::EqEq) => Some(BinOp::Eq),
            Some(Tok::Ne) => Some(BinOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let rhs = self.parse_sum()?;
            Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_sum(&mut self) -> Result<Expr, ConstraintError> {
        let mut lhs = self.parse_term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.parse_term()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<Expr, ConstraintError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => break,
            };
            self.next();
            let rhs = self.parse_unary()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ConstraintError> {
        if self.peek() == Some(&Tok::Minus) {
            self.next();
            Ok(Expr::Neg(Box::new(self.parse_unary()?)))
        } else {
            self.parse_atom()
        }
    }

    fn parse_atom(&mut self) -> Result<Expr, ConstraintError> {
        match self.next() {
            Some((_, Tok::Num(n))) => Ok(Expr::Num(n)),
            Some((_, Tok::True)) => Ok(Expr::Bool(true)),
            Some((_, Tok::False)) => Ok(Expr::Bool(false)),
            Some((at, Tok::Ident(name))) => {
                if self.peek() == Some(&Tok::LParen) {
                    let Some(builtin) = Builtin::lookup(&name) else {
                        return Err(ConstraintError::UnknownFunction(name));
                    };
                    self.next(); // consume '('
                    let mut args = vec![self.parse_or()?];
                    while self.peek() == Some(&Tok::Comma) {
                        self.next();
                        args.push(self.parse_or()?);
                    }
                    self.expect_rparen()?;
                    if args.len() != builtin.arity() {
                        return Err(ConstraintError::WrongArity {
                            function: builtin.name(),
                            expected: builtin.arity(),
                            found: args.len(),
                        });
                    }
                    let _ = at;
                    Ok(Expr::Call(builtin, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Some((_, Tok::LParen)) => {
                let inner = self.parse_or()?;
                self.expect_rparen()?;
                Ok(inner)
            }
            Some((at, t)) => Err(ConstraintError::UnexpectedToken {
                at,
                found: format!("{t:?}"),
                expected: "a value, identifier or '('",
            }),
            None => Err(ConstraintError::UnexpectedEnd),
        }
    }
}

impl Expr {
    fn eval(&self, env: &Env) -> Result<Value, ConstraintError> {
        match self {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Var(name) => {
                env.get(name).ok_or_else(|| ConstraintError::UnknownIdentifier(name.clone()))
            }
            Expr::Neg(inner) => Ok(Value::Num(-inner.eval(env)?.as_num()?)),
            Expr::Not(inner) => Ok(Value::Bool(!inner.eval(env)?.as_bool()?)),
            Expr::Call(builtin, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(env)?.as_num()?);
                }
                Ok(Value::Num(match builtin {
                    Builtin::Min => vals[0].min(vals[1]),
                    Builtin::Max => vals[0].max(vals[1]),
                    Builtin::Abs => vals[0].abs(),
                    Builtin::Clamp => vals[0].clamp(vals[1].min(vals[2]), vals[2].max(vals[1])),
                }))
            }
            Expr::Bin(op, lhs, rhs) => {
                // Short-circuit logicals.
                match op {
                    BinOp::And => {
                        return Ok(Value::Bool(
                            lhs.eval(env)?.as_bool()? && rhs.eval(env)?.as_bool()?,
                        ))
                    }
                    BinOp::Or => {
                        return Ok(Value::Bool(
                            lhs.eval(env)?.as_bool()? || rhs.eval(env)?.as_bool()?,
                        ))
                    }
                    _ => {}
                }
                let l = lhs.eval(env)?;
                let r = rhs.eval(env)?;
                match op {
                    BinOp::Add => Ok(Value::Num(l.as_num()? + r.as_num()?)),
                    BinOp::Sub => Ok(Value::Num(l.as_num()? - r.as_num()?)),
                    BinOp::Mul => Ok(Value::Num(l.as_num()? * r.as_num()?)),
                    BinOp::Div => {
                        let d = r.as_num()?;
                        if d == 0.0 {
                            Err(ConstraintError::DivisionByZero)
                        } else {
                            Ok(Value::Num(l.as_num()? / d))
                        }
                    }
                    BinOp::Lt => Ok(Value::Bool(l.as_num()? < r.as_num()?)),
                    BinOp::Le => Ok(Value::Bool(l.as_num()? <= r.as_num()?)),
                    BinOp::Gt => Ok(Value::Bool(l.as_num()? > r.as_num()?)),
                    BinOp::Ge => Ok(Value::Bool(l.as_num()? >= r.as_num()?)),
                    BinOp::Eq => Ok(Value::Bool(match (l, r) {
                        (Value::Num(a), Value::Num(b)) => a == b,
                        (Value::Bool(a), Value::Bool(b)) => a == b,
                        (a, b) => {
                            return Err(ConstraintError::TypeMismatch {
                                expected: a.type_name(),
                                found: b.type_name(),
                            })
                        }
                    })),
                    BinOp::Ne => Ok(Value::Bool(match (l, r) {
                        (Value::Num(a), Value::Num(b)) => a != b,
                        (Value::Bool(a), Value::Bool(b)) => a != b,
                        (a, b) => {
                            return Err(ConstraintError::TypeMismatch {
                                expected: a.type_name(),
                                found: b.type_name(),
                            })
                        }
                    })),
                    #[expect(clippy::unreachable, reason = "the logicals returned above")]
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Var(name) => f.write_str(name),
            Expr::Neg(inner) => {
                write!(f, "-(")?;
                inner.write(f)?;
                write!(f, ")")
            }
            Expr::Not(inner) => {
                write!(f, "!(")?;
                inner.write(f)?;
                write!(f, ")")
            }
            Expr::Bin(op, lhs, rhs) => {
                write!(f, "(")?;
                lhs.write(f)?;
                write!(f, " {} ", op.symbol())?;
                rhs.write(f)?;
                write!(f, ")")
            }
            Expr::Call(builtin, args) => {
                write!(f, "{}(", builtin.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    a.write(f)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A parsed, reusable constraint expression.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    source: String,
    expr: Expr,
}

impl Constraint {
    /// Parses a constraint from source text.
    ///
    /// # Errors
    ///
    /// Lexical or syntax errors, with byte offsets for diagnostics.
    pub fn parse(source: &str) -> Result<Constraint, ConstraintError> {
        let toks = lex(source)?;
        let mut parser = Parser { toks, pos: 0 };
        let expr = parser.parse_or()?;
        if let Some((at, t)) = parser.next() {
            return Err(ConstraintError::UnexpectedToken {
                at,
                found: format!("{t:?}"),
                expected: "end of expression",
            });
        }
        Ok(Constraint { source: source.to_owned(), expr })
    }

    /// Evaluates to a boolean verdict.
    ///
    /// # Errors
    ///
    /// Unknown identifiers, type mismatches, division by zero, or a
    /// top-level numeric result (a constraint must be a predicate).
    pub fn check(&self, env: &Env) -> Result<bool, ConstraintError> {
        self.expr.eval(env)?.as_bool()
    }

    /// Evaluates to any value (for testing sub-expressions).
    #[cfg(test)]
    pub(crate) fn eval(&self, env: &Env) -> Result<Value, ConstraintError> {
        self.expr.eval(env)
    }

    /// The original source text.
    pub(crate) fn source(&self) -> &str {
        &self.source
    }
}

impl fmt::Display for Constraint {
    /// Renders a fully parenthesised canonical form (not the original
    /// source); `parse(display(c))` produces an equivalent constraint.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expr.write(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        let mut e = Env::new();
        e.set("rate_hz", Value::Num(5.0))
            .set("interval_ms", Value::Num(200.0))
            .set("duty_permille", Value::Num(300.0))
            .set("priority", Value::Num(2.0))
            .set("encrypted", Value::Bool(true));
        e
    }

    fn check(src: &str) -> bool {
        Constraint::parse(src).unwrap().check(&env()).unwrap()
    }

    #[test]
    fn comparisons() {
        assert!(check("rate_hz <= 10"));
        assert!(!check("rate_hz > 10"));
        assert!(check("interval_ms >= 200"));
        assert!(check("interval_ms == 200"));
        assert!(check("interval_ms != 100"));
        assert!(check("rate_hz < 5.5"));
    }

    #[test]
    fn boolean_composition() {
        assert!(check("rate_hz <= 10 && duty_permille <= 500"));
        assert!(!check("rate_hz <= 10 && duty_permille <= 100"));
        assert!(check("rate_hz > 100 || encrypted"));
        assert!(check("!(rate_hz > 100)"));
        assert!(check("!false"));
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert!(check("rate_hz * 2 == 10"));
        assert!(check("1 + 2 * 3 == 7"));
        assert!(check("(1 + 2) * 3 == 9"));
        assert!(check("10 - 4 - 3 == 3"), "subtraction is left-associative");
        assert!(check("8 / 2 / 2 == 2"));
        assert!(check("-rate_hz == -5"));
        assert!(check("1000 / interval_ms == rate_hz"));
    }

    #[test]
    fn comparison_binds_looser_than_arithmetic() {
        assert!(check("rate_hz + 1 <= 6"));
        assert!(check("2 < 1 + 2"));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        // false && false || true → (false && false) || true → true
        assert!(check("false && false || true"));
        assert!(!check("false && (false || true)"));
    }

    #[test]
    fn bool_equality() {
        assert!(check("encrypted == true"));
        assert!(check("encrypted != false"));
    }

    #[test]
    fn unknown_identifier_is_error() {
        let c = Constraint::parse("bogus_var < 5").unwrap();
        assert_eq!(c.check(&env()), Err(ConstraintError::UnknownIdentifier("bogus_var".into())));
    }

    #[test]
    fn type_mismatch_is_error() {
        let c = Constraint::parse("encrypted + 1 > 0").unwrap();
        assert!(matches!(c.check(&env()), Err(ConstraintError::TypeMismatch { .. })));
        let c = Constraint::parse("rate_hz && true").unwrap();
        assert!(matches!(c.check(&env()), Err(ConstraintError::TypeMismatch { .. })));
        let c = Constraint::parse("encrypted == 1").unwrap();
        assert!(matches!(c.check(&env()), Err(ConstraintError::TypeMismatch { .. })));
    }

    #[test]
    fn numeric_top_level_is_error() {
        let c = Constraint::parse("1 + 1").unwrap();
        assert!(matches!(c.check(&env()), Err(ConstraintError::TypeMismatch { .. })));
    }

    #[test]
    fn division_by_zero_is_error() {
        let c = Constraint::parse("1 / 0 > 0").unwrap();
        assert_eq!(c.check(&env()), Err(ConstraintError::DivisionByZero));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // Right side would divide by zero, but the left decides.
        assert!(check("true || 1 / 0 > 0"));
        assert!(!check("false && 1 / 0 > 0"));
    }

    #[test]
    fn syntax_errors_reported_with_position() {
        assert!(matches!(Constraint::parse("rate_hz <"), Err(ConstraintError::UnexpectedEnd)));
        assert!(matches!(
            Constraint::parse("rate_hz # 5"),
            Err(ConstraintError::BadToken { found: '#', .. })
        ));
        assert!(matches!(
            Constraint::parse("1 = 2"),
            Err(ConstraintError::BadToken { found: '=', .. })
        ));
        assert!(matches!(Constraint::parse("(1 < 2"), Err(ConstraintError::UnexpectedEnd)));
        assert!(matches!(
            Constraint::parse("1 < 2 extra"),
            Err(ConstraintError::UnexpectedToken { .. })
        ));
        assert!(matches!(Constraint::parse(""), Err(ConstraintError::UnexpectedEnd)));
        assert!(matches!(
            Constraint::parse("a & b"),
            Err(ConstraintError::BadToken { found: '&', .. })
        ));
    }

    #[test]
    fn display_round_trips_semantically() {
        let sources = [
            "rate_hz <= 10 && duty_permille <= 500",
            "1 + 2 * 3 == 7 || !encrypted",
            "-(rate_hz) < 0",
            "(rate_hz + 1) * 2 >= interval_ms / 100",
        ];
        for src in sources {
            let c1 = Constraint::parse(src).unwrap();
            let printed = c1.to_string();
            let c2 = Constraint::parse(&printed).unwrap();
            assert_eq!(
                c1.check(&env()),
                c2.check(&env()),
                "round trip changed meaning: {src} → {printed}"
            );
            // Fixpoint: printing the reparsed form is stable.
            assert_eq!(printed, c2.to_string());
        }
    }

    #[test]
    fn source_is_retained() {
        let c = Constraint::parse("rate_hz<=10").unwrap();
        assert_eq!(c.source(), "rate_hz<=10");
    }

    #[test]
    fn builtin_functions() {
        assert!(check("min(rate_hz, 3) == 3"));
        assert!(check("max(rate_hz, 3) == 5"));
        assert!(check("abs(0 - rate_hz) == 5"));
        assert!(check("clamp(rate_hz, 0, 4) == 4"));
        assert!(check("clamp(rate_hz, 6, 10) == 6"));
        assert!(check("rate_hz <= min(20, 1000 / interval_ms * 2)"));
        // Nested calls.
        assert!(check("min(max(rate_hz, 1), 10) == 5"));
    }

    #[test]
    fn builtin_errors() {
        assert!(matches!(
            Constraint::parse("sqrt(4) > 1"),
            Err(ConstraintError::UnknownFunction(name)) if name == "sqrt"
        ));
        assert!(matches!(
            Constraint::parse("min(1) > 0"),
            Err(ConstraintError::WrongArity { function: "min", expected: 2, found: 1 })
        ));
        assert!(matches!(
            Constraint::parse("abs(1, 2) > 0"),
            Err(ConstraintError::WrongArity { function: "abs", .. })
        ));
        assert!(matches!(Constraint::parse("min(1,"), Err(ConstraintError::UnexpectedEnd)));
        // Type errors inside calls surface.
        let c = Constraint::parse("min(true, 1) > 0").unwrap();
        assert!(matches!(c.check(&env()), Err(ConstraintError::TypeMismatch { .. })));
        // A bare comma outside a call is a syntax error.
        assert!(Constraint::parse("1 , 2").is_err());
    }

    #[test]
    fn builtin_display_round_trips() {
        let c1 = Constraint::parse("clamp(rate_hz, 0, min(10, 20)) <= 10").unwrap();
        let printed = c1.to_string();
        let c2 = Constraint::parse(&printed).unwrap();
        assert_eq!(c1.check(&env()).unwrap(), c2.check(&env()).unwrap());
        assert_eq!(printed, c2.to_string());
    }

    #[test]
    fn realistic_sensor_profile() {
        // A battery-powered acoustic sensor: max 2 Hz reporting, duty
        // cycle at most 20%, and high-rate requests only from
        // high-priority consumers.
        let c = Constraint::parse(
            "rate_hz <= 2 && duty_permille <= 200 && (rate_hz <= 0.5 || priority >= 3)",
        )
        .unwrap();
        let mut e = Env::new();
        e.set("rate_hz", Value::Num(0.2))
            .set("duty_permille", Value::Num(100.0))
            .set("priority", Value::Num(0.0));
        assert!(c.check(&e).unwrap());
        e.set("rate_hz", Value::Num(1.0));
        assert!(!c.check(&e).unwrap(), "1 Hz needs priority >= 3");
        e.set("priority", Value::Num(3.0));
        assert!(c.check(&e).unwrap());
        e.set("rate_hz", Value::Num(4.0));
        assert!(!c.check(&e).unwrap(), "4 Hz is over the hard cap");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_expr(depth: u32) -> BoxedStrategy<String> {
        if depth == 0 {
            prop_oneof![
                (0u32..100).prop_map(|n| n.to_string()),
                Just("x".to_owned()),
                Just("y".to_owned()),
            ]
            .boxed()
        } else {
            let sub = arb_expr(depth - 1);
            prop_oneof![
                (sub.clone(), prop_oneof![Just("+"), Just("-"), Just("*")], sub.clone())
                    .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
                sub.clone().prop_map(|a| format!("-({a})")),
                sub,
            ]
            .boxed()
        }
    }

    proptest! {
        #[test]
        fn print_parse_fixpoint(src in arb_expr(3), cmp in prop_oneof![Just("<"), Just(">="), Just("==")], rhs in arb_expr(2)) {
            let full = format!("{src} {cmp} {rhs}");
            let c1 = Constraint::parse(&full).unwrap();
            let printed = c1.to_string();
            let c2 = Constraint::parse(&printed).unwrap();
            prop_assert_eq!(printed.clone(), c2.to_string());

            let mut env = Env::new();
            env.set("x", Value::Num(3.0)).set("y", Value::Num(-7.0));
            prop_assert_eq!(c1.check(&env).unwrap(), c2.check(&env).unwrap());
        }

        #[test]
        fn parser_never_panics_on_arbitrary_input(src in "\\PC{0,64}") {
            // Any garbage string must produce Ok or a structured error —
            // never a panic (constraints arrive from operators at
            // runtime).
            let _ = Constraint::parse(&src);
        }

        #[test]
        fn parser_never_panics_on_token_shaped_garbage(
            parts in proptest::collection::vec(
                prop_oneof![
                    Just("&&".to_owned()), Just("||".to_owned()), Just("!".to_owned()),
                    Just("<=".to_owned()), Just("==".to_owned()), Just("(".to_owned()),
                    Just(")".to_owned()), Just("-".to_owned()), Just("/".to_owned()),
                    Just("rate_hz".to_owned()), Just("true".to_owned()),
                    (0u32..1000).prop_map(|n| n.to_string()),
                    Just(".".to_owned()), Just("..".to_owned()),
                ],
                0..16,
            )
        ) {
            let src = parts.join(" ");
            if let Ok(c) = Constraint::parse(&src) {
                // Whatever parsed must also evaluate without panicking.
                let mut env = Env::new();
                env.set("rate_hz", Value::Num(1.0));
                let _ = c.check(&env);
                // And its canonical form must re-parse.
                prop_assert!(Constraint::parse(&c.to_string()).is_ok());
            }
        }

        #[test]
        fn evaluator_is_total_on_numeric_exprs(src in arb_expr(4), x in -100.0f64..100.0, y in -100.0f64..100.0) {
            let c = Constraint::parse(&src).unwrap();
            let mut env = Env::new();
            env.set("x", Value::Num(x)).set("y", Value::Num(y));
            // No division in the generator, so evaluation must succeed
            // and produce a number.
            let v = c.eval(&env).unwrap();
            prop_assert!(matches!(v, Value::Num(_)));
        }
    }
}
