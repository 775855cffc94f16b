//! Recursive-descent parser for the HOCL text syntax.
//!
//! Grammar (see `lexer` docs for the token shapes):
//!
//! ```text
//! program   := letdef* solution
//! letdef    := "let" IDENT "=" ruledef "in"
//! ruledef   := ("replace" | "replace-one") patterns "by" templates ["if" guard]
//!            | "with" patterns "inject" templates
//! pattern   := ppost (":" ppost)*            -- 2+ parts make a tuple
//! ppost     := "?" IDENT | "_" | literal | IDENT | "rule" "(" IDENT ")"
//!            | "<" [pattern,* ["*" IDENT]] ">" | "[" pattern,* "]" | "(" pattern ")"
//! template  := tpost (":" tpost)*
//! tpost     := "?" IDENT | literal | IDENT | IDENT "(" template,* ")"
//!            | "<" template,* ">" | "[" template,* "]" | "(" template ")"
//! guard     := gor; gor := gand ("||" gand)*; gand := gnot ("&&" gnot)*
//! gnot      := "!" gprim | gprim
//! gprim     := expr CMP expr | IDENT "(" expr,* ")" | "(" guard ")"
//! expr      := "?" IDENT | literal | IDENT | IDENT "(" expr,* ")"
//! solution  := "<" [atom,*] ">"
//! atom      := apost (":" apost)* ; apost := literal | IDENT | "<"… | "["…
//! ```
//!
//! Inside solutions and templates, a bare identifier that names a
//! `let`-bound rule denotes that *rule atom* (the paper writes `max` inside
//! the solution); any other identifier is a symbol.

use crate::atom::Atom;
use crate::bindings::Var;
use crate::guard::{CmpOp, Expr, Guard};
use crate::lexer::{lex, LexError, Spanned, Token};
use crate::pattern::{Pattern, SubPattern};
use crate::rule::Rule;
use crate::solution::Solution;
use crate::template::Template;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A parsed HOCL program: `let` definitions plus the initial solution.
#[derive(Clone, Debug)]
pub struct Program {
    /// The `let`-bound rules, in definition order.
    pub rules: Vec<Arc<Rule>>,
    /// The initial solution (rule references already resolved to atoms).
    pub solution: Solution,
}

/// Parse error.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the source (best effort).
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// Parse a complete program (`let … in … ⟨…⟩`).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(&tokens);
    let program = p.program()?;
    p.expect_eof()?;
    Ok(program)
}

/// Parse a bare solution literal `⟨…⟩` (no rule definitions).
pub fn parse_solution(src: &str) -> Result<Solution, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(&tokens);
    let ms = p.solution_literal()?;
    p.expect_eof()?;
    Ok(Solution::from_atoms(ms))
}

struct Parser<'t> {
    tokens: &'t [Spanned],
    pos: usize,
    rules: HashMap<String, Arc<Rule>>,
    rule_order: Vec<Arc<Rule>>,
}

impl<'t> Parser<'t> {
    fn new(tokens: &'t [Spanned]) -> Self {
        Parser {
            tokens,
            pos: 0,
            rules: HashMap::new(),
            rule_order: Vec::new(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or_else(|| self.tokens.last().map(|s| s.offset + 1).unwrap_or(0))
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            offset: self.offset(),
        })
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => {
                let t = t.clone();
                self.err(format!("expected {want}, found {t}"))
            }
            None => self.err(format!("expected {want}, found end of input")),
        }
    }

    fn expect_ident(&mut self, want: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s == want => {
                self.pos += 1;
                Ok(())
            }
            other => {
                let found = other.map(|t| t.to_string()).unwrap_or("eof".into());
                self.err(format!("expected keyword `{want}`, found {found}"))
            }
        }
    }

    fn at_ident(&self, want: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == want)
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            self.err("trailing input after program")
        }
    }

    // ---- program ----------------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        while self.at_ident("let") {
            self.bump();
            let name = self.ident()?;
            self.expect(&Token::Eq)?;
            let rule = self.ruledef(&name)?;
            let arc = Arc::new(rule);
            self.rules.insert(name, arc.clone());
            self.rule_order.push(arc);
            self.expect_ident("in")?;
        }
        let ms = self.solution_literal()?;
        Ok(Program {
            rules: self.rule_order.clone(),
            solution: Solution::from_atoms(ms),
        })
    }

    fn ruledef(&mut self, name: &str) -> Result<Rule, ParseError> {
        if self.at_ident("with") {
            self.bump();
            let patterns = self.pattern_list()?;
            self.expect_ident("inject")?;
            let injected = self.template_list()?;
            // `with X inject M` reproduces the catalysts: each LHS pattern
            // must be convertible to a template (no wildcards).
            let mut catalysts = Vec::with_capacity(patterns.len());
            for p in patterns {
                let t = pattern_to_template(&p).ok_or_else(|| ParseError {
                    message: format!(
                        "`with` catalyst pattern {p} cannot be reproduced (contains a wildcard)"
                    ),
                    offset: self.offset(),
                })?;
                catalysts.push((p, t));
            }
            return Ok(Rule::with_inject(name, catalysts, injected));
        }
        let one_shot = if self.at_ident("replace") {
            self.bump();
            false
        } else if self.at_ident("replace-one") {
            self.bump();
            true
        } else {
            return self.err("expected `replace`, `replace-one` or `with`");
        };
        let lhs = self.pattern_list()?;
        self.expect_ident("by")?;
        let rhs = if self.at_ident("nothing") {
            self.bump();
            Vec::new()
        } else {
            self.template_list()?
        };
        let guard = if self.at_ident("if") {
            self.bump();
            self.guard()?
        } else {
            Guard::True
        };
        let mut b = Rule::builder(name).lhs(lhs).guard(guard).rhs(rhs);
        if one_shot {
            b = b.one_shot();
        }
        Ok(b.build())
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => {
                let found = other.map(|t| t.to_string()).unwrap_or("eof".into());
                self.pos -= 1;
                self.err(format!("expected identifier, found {found}"))
            }
        }
    }

    // ---- patterns ----------------------------------------------------

    fn pattern_list(&mut self) -> Result<Vec<Pattern>, ParseError> {
        let mut out = vec![self.pattern()?];
        while self.peek() == Some(&Token::Comma) {
            self.bump();
            out.push(self.pattern()?);
        }
        Ok(out)
    }

    fn pattern(&mut self) -> Result<Pattern, ParseError> {
        let first = self.pattern_primary()?;
        if self.peek() == Some(&Token::Colon) {
            let mut elems = vec![first];
            while self.peek() == Some(&Token::Colon) {
                self.bump();
                elems.push(self.pattern_primary()?);
            }
            Ok(Pattern::Tuple(elems))
        } else {
            Ok(first)
        }
    }

    fn pattern_primary(&mut self) -> Result<Pattern, ParseError> {
        match self.peek().cloned() {
            Some(Token::Question) => {
                self.bump();
                Ok(Pattern::Var(Var::new(self.ident()?)))
            }
            Some(Token::Underscore) => {
                self.bump();
                Ok(Pattern::Any)
            }
            Some(Token::Int(v)) => {
                self.bump();
                Ok(Pattern::Lit(Atom::Int(v)))
            }
            Some(Token::Float(v)) => {
                self.bump();
                Ok(Pattern::Lit(Atom::Float(v)))
            }
            Some(Token::Str(s)) => {
                self.bump();
                Ok(Pattern::Lit(Atom::Str(s)))
            }
            Some(Token::Ident(name)) => {
                self.bump();
                match name.as_str() {
                    "true" => Ok(Pattern::Lit(Atom::Bool(true))),
                    "false" => Ok(Pattern::Lit(Atom::Bool(false))),
                    "rule" if self.peek() == Some(&Token::LParen) => {
                        self.bump();
                        let rname = self.ident()?;
                        self.expect(&Token::RParen)?;
                        Ok(Pattern::RuleNamed(rname))
                    }
                    _ => Ok(Pattern::Lit(Atom::sym(name))),
                }
            }
            Some(Token::Lt) => {
                self.bump();
                self.sub_pattern()
            }
            Some(Token::LBracket) => {
                self.bump();
                let mut elems = Vec::new();
                if self.peek() != Some(&Token::RBracket) {
                    elems.push(self.pattern()?);
                    while self.peek() == Some(&Token::Comma) {
                        self.bump();
                        elems.push(self.pattern()?);
                    }
                }
                self.expect(&Token::RBracket)?;
                Ok(Pattern::List(elems))
            }
            Some(Token::LParen) => {
                self.bump();
                let p = self.pattern()?;
                self.expect(&Token::RParen)?;
                Ok(p)
            }
            other => {
                let found = other.map(|t| t.to_string()).unwrap_or("eof".into());
                self.err(format!("expected a pattern, found {found}"))
            }
        }
    }

    /// Called after consuming `<`.
    fn sub_pattern(&mut self) -> Result<Pattern, ParseError> {
        let mut elems = Vec::new();
        let mut rest = None;
        loop {
            match self.peek() {
                Some(Token::Gt) => {
                    self.bump();
                    break;
                }
                Some(Token::Star) => {
                    self.bump();
                    rest = Some(Var::new(self.ident()?));
                    self.expect(&Token::Gt)?;
                    break;
                }
                Some(_) => {
                    elems.push(self.pattern()?);
                    match self.peek() {
                        Some(Token::Comma) => {
                            self.bump();
                        }
                        Some(Token::Gt) | Some(Token::Star) => {}
                        _ => return self.err("expected `,`, `*rest` or `>` in subsolution"),
                    }
                }
                None => return self.err("unterminated subsolution pattern"),
            }
        }
        Ok(Pattern::Sub(SubPattern { elems, rest }))
    }

    // ---- templates ----------------------------------------------------

    fn template_list(&mut self) -> Result<Vec<Template>, ParseError> {
        let mut out = vec![self.template()?];
        while self.peek() == Some(&Token::Comma) {
            self.bump();
            out.push(self.template()?);
        }
        Ok(out)
    }

    fn template(&mut self) -> Result<Template, ParseError> {
        let first = self.template_primary()?;
        if self.peek() == Some(&Token::Colon) {
            let mut elems = vec![first];
            while self.peek() == Some(&Token::Colon) {
                self.bump();
                elems.push(self.template_primary()?);
            }
            Ok(Template::Tuple(elems))
        } else {
            Ok(first)
        }
    }

    fn template_primary(&mut self) -> Result<Template, ParseError> {
        match self.peek().cloned() {
            Some(Token::Question) => {
                self.bump();
                Ok(Template::Var(Var::new(self.ident()?)))
            }
            Some(Token::Int(v)) => {
                self.bump();
                Ok(Template::Lit(Atom::Int(v)))
            }
            Some(Token::Float(v)) => {
                self.bump();
                Ok(Template::Lit(Atom::Float(v)))
            }
            Some(Token::Str(s)) => {
                self.bump();
                Ok(Template::Lit(Atom::Str(s)))
            }
            Some(Token::Ident(name)) => {
                self.bump();
                if self.peek() == Some(&Token::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        args.push(self.template()?);
                        while self.peek() == Some(&Token::Comma) {
                            self.bump();
                            args.push(self.template()?);
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Template::Call(name, args));
                }
                match name.as_str() {
                    "true" => Ok(Template::Lit(Atom::Bool(true))),
                    "false" => Ok(Template::Lit(Atom::Bool(false))),
                    _ => match self.rules.get(&name) {
                        Some(rule) => Ok(Template::RuleLit(rule.clone())),
                        None => Ok(Template::Lit(Atom::sym(name))),
                    },
                }
            }
            Some(Token::Lt) => {
                self.bump();
                let mut elems = Vec::new();
                if self.peek() != Some(&Token::Gt) {
                    elems.push(self.template()?);
                    while self.peek() == Some(&Token::Comma) {
                        self.bump();
                        elems.push(self.template()?);
                    }
                }
                self.expect(&Token::Gt)?;
                Ok(Template::Sub(elems))
            }
            Some(Token::LBracket) => {
                self.bump();
                let mut elems = Vec::new();
                if self.peek() != Some(&Token::RBracket) {
                    elems.push(self.template()?);
                    while self.peek() == Some(&Token::Comma) {
                        self.bump();
                        elems.push(self.template()?);
                    }
                }
                self.expect(&Token::RBracket)?;
                Ok(Template::List(elems))
            }
            Some(Token::LParen) => {
                self.bump();
                let t = self.template()?;
                self.expect(&Token::RParen)?;
                Ok(t)
            }
            other => {
                let found = other.map(|t| t.to_string()).unwrap_or("eof".into());
                self.err(format!("expected a template, found {found}"))
            }
        }
    }

    // ---- guards ----------------------------------------------------

    fn guard(&mut self) -> Result<Guard, ParseError> {
        let mut left = self.guard_and()?;
        while self.peek() == Some(&Token::OrOr) {
            self.bump();
            let right = self.guard_and()?;
            left = Guard::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn guard_and(&mut self) -> Result<Guard, ParseError> {
        let mut left = self.guard_not()?;
        while self.peek() == Some(&Token::AndAnd) {
            self.bump();
            let right = self.guard_not()?;
            left = Guard::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn guard_not(&mut self) -> Result<Guard, ParseError> {
        if self.peek() == Some(&Token::Bang) {
            self.bump();
            let g = self.guard_not()?;
            return Ok(Guard::Not(Box::new(g)));
        }
        self.guard_primary()
    }

    fn guard_primary(&mut self) -> Result<Guard, ParseError> {
        // Parenthesised sub-guard vs parenthesised expression: try guard.
        if self.peek() == Some(&Token::LParen) {
            let save = self.pos;
            self.bump();
            if let Ok(g) = self.guard() {
                if self.peek() == Some(&Token::RParen) {
                    self.bump();
                    return Ok(g);
                }
            }
            self.pos = save;
        }
        // Predicate call `name(args)` not followed by a comparison operator.
        if let Some(Token::Ident(name)) = self.peek().cloned() {
            if self.tokens.get(self.pos + 1).map(|s| &s.token) == Some(&Token::LParen) {
                let save = self.pos;
                self.bump();
                self.bump();
                let mut args = Vec::new();
                if self.peek() != Some(&Token::RParen) {
                    args.push(self.expr()?);
                    while self.peek() == Some(&Token::Comma) {
                        self.bump();
                        args.push(self.expr()?);
                    }
                }
                self.expect(&Token::RParen)?;
                if !matches!(
                    self.peek(),
                    Some(Token::EqEq)
                        | Some(Token::Ne)
                        | Some(Token::Lt)
                        | Some(Token::Le)
                        | Some(Token::Gt)
                        | Some(Token::Ge)
                ) {
                    return Ok(Guard::Pred(name, args));
                }
                // It was the left side of a comparison after all.
                self.pos = save;
            }
        }
        let left = self.expr()?;
        let op = match self.peek() {
            Some(Token::EqEq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            _ => return self.err("expected comparison operator in guard"),
        };
        self.bump();
        let right = self.expr()?;
        Ok(Guard::Cmp(op, left, right))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Question) => {
                self.bump();
                Ok(Expr::Var(Var::new(self.ident()?)))
            }
            Some(Token::Int(v)) => {
                self.bump();
                Ok(Expr::Lit(Atom::Int(v)))
            }
            Some(Token::Float(v)) => {
                self.bump();
                Ok(Expr::Lit(Atom::Float(v)))
            }
            Some(Token::Str(s)) => {
                self.bump();
                Ok(Expr::Lit(Atom::Str(s)))
            }
            Some(Token::Ident(name)) => {
                self.bump();
                if self.peek() == Some(&Token::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        args.push(self.expr()?);
                        while self.peek() == Some(&Token::Comma) {
                            self.bump();
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Call(name, args));
                }
                match name.as_str() {
                    "true" => Ok(Expr::Lit(Atom::Bool(true))),
                    "false" => Ok(Expr::Lit(Atom::Bool(false))),
                    _ => Ok(Expr::Lit(Atom::sym(name))),
                }
            }
            other => {
                let found = other.map(|t| t.to_string()).unwrap_or("eof".into());
                self.err(format!("expected an expression, found {found}"))
            }
        }
    }

    // ---- solution literals ------------------------------------------

    fn solution_literal(&mut self) -> Result<Vec<Atom>, ParseError> {
        self.expect(&Token::Lt)?;
        let mut atoms = Vec::new();
        if self.peek() != Some(&Token::Gt) {
            atoms.push(self.atom()?);
            while self.peek() == Some(&Token::Comma) {
                self.bump();
                atoms.push(self.atom()?);
            }
        }
        self.expect(&Token::Gt)?;
        Ok(atoms)
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let first = self.atom_primary()?;
        if self.peek() == Some(&Token::Colon) {
            let mut elems = vec![first];
            while self.peek() == Some(&Token::Colon) {
                self.bump();
                elems.push(self.atom_primary()?);
            }
            Ok(Atom::Tuple(elems))
        } else {
            Ok(first)
        }
    }

    fn atom_primary(&mut self) -> Result<Atom, ParseError> {
        match self.peek().cloned() {
            Some(Token::Int(v)) => {
                self.bump();
                Ok(Atom::Int(v))
            }
            Some(Token::Float(v)) => {
                self.bump();
                Ok(Atom::Float(v))
            }
            Some(Token::Str(s)) => {
                self.bump();
                Ok(Atom::Str(s))
            }
            Some(Token::Ident(name)) => {
                self.bump();
                match name.as_str() {
                    "true" => Ok(Atom::Bool(true)),
                    "false" => Ok(Atom::Bool(false)),
                    _ => match self.rules.get(&name) {
                        Some(rule) => Ok(Atom::Rule(rule.clone())),
                        None => Ok(Atom::sym(name)),
                    },
                }
            }
            Some(Token::Lt) => {
                self.bump();
                let mut atoms = Vec::new();
                if self.peek() != Some(&Token::Gt) {
                    atoms.push(self.atom()?);
                    while self.peek() == Some(&Token::Comma) {
                        self.bump();
                        atoms.push(self.atom()?);
                    }
                }
                self.expect(&Token::Gt)?;
                Ok(Atom::sub(atoms))
            }
            Some(Token::LBracket) => {
                self.bump();
                let mut atoms = Vec::new();
                if self.peek() != Some(&Token::RBracket) {
                    atoms.push(self.atom()?);
                    while self.peek() == Some(&Token::Comma) {
                        self.bump();
                        atoms.push(self.atom()?);
                    }
                }
                self.expect(&Token::RBracket)?;
                Ok(Atom::List(atoms))
            }
            Some(Token::LParen) => {
                self.bump();
                let a = self.atom()?;
                self.expect(&Token::RParen)?;
                Ok(a)
            }
            other => {
                let found = other.map(|t| t.to_string()).unwrap_or("eof".into());
                self.err(format!("expected an atom, found {found}"))
            }
        }
    }
}

/// Convert a pattern into the template that reproduces the matched atoms
/// (used by the `with … inject …` sugar). Wildcards cannot be reproduced.
fn pattern_to_template(p: &Pattern) -> Option<Template> {
    match p {
        Pattern::Any => None,
        Pattern::Var(v) => Some(Template::Var(v.clone())),
        Pattern::Lit(a) => Some(Template::Lit(a.clone())),
        Pattern::Typed(v, _) => Some(Template::Var(v.clone())),
        Pattern::Tuple(ps) => Some(Template::Tuple(
            ps.iter().map(pattern_to_template).collect::<Option<_>>()?,
        )),
        Pattern::List(ps) => Some(Template::List(
            ps.iter().map(pattern_to_template).collect::<Option<_>>()?,
        )),
        Pattern::Sub(sp) => {
            let mut elems: Vec<Template> = sp
                .elems
                .iter()
                .map(pattern_to_template)
                .collect::<Option<_>>()?;
            if let Some(rest) = &sp.rest {
                elems.push(Template::Var(rest.clone()));
            }
            Some(Template::Sub(elems))
        }
        Pattern::RuleNamed(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::externs::NoExterns;

    #[test]
    fn parse_getmax_program_and_run_it() {
        let src = "
            let max = replace ?x, ?y by ?x if ?x >= ?y in
            <2, 3, 5, 8, 9, max>
        ";
        let program = parse_program(src).unwrap();
        assert_eq!(program.rules.len(), 1);
        let mut sol = program.solution;
        // The solution contains the rule atom, resolved by name.
        assert_eq!(sol.atoms().rule_indices().len(), 1);
        Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
        let ints: Vec<i64> = sol.atoms().iter().filter_map(Atom::as_int).collect();
        assert_eq!(ints, vec![9]);
    }

    #[test]
    fn parse_higher_order_clean() {
        let src = "
            let max = replace ?x, ?y by ?x if ?x >= ?y in
            let clean = replace-one <rule(max), *w> by ?w in
            <<2, 3, 5, 8, 9, max>, clean>
        ";
        let program = parse_program(src).unwrap();
        let mut sol = program.solution;
        Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
        assert_eq!(sol.atoms().len(), 1);
        assert_eq!(sol.atoms().get(0), Some(&Atom::int(9)));
    }

    #[test]
    fn parse_with_inject_sugar() {
        let src = "
            let go = with READY inject FIRE, 42 in
            <READY, go>
        ";
        let program = parse_program(src).unwrap();
        assert!(program.rules[0].is_one_shot());
        let mut sol = program.solution;
        Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
        assert!(sol.atoms().contains(&Atom::sym("READY")));
        assert!(sol.atoms().contains(&Atom::sym("FIRE")));
        assert!(sol.atoms().contains(&Atom::int(42)));
        assert!(sol.atoms().rule_indices().is_empty());
    }

    #[test]
    fn parse_workflow_style_molecules() {
        let src = "<T1:<SRC:<>, DST:<T2, T3>, SRV:s1, IN:<INPUT:\"data\">>>";
        let sol = parse_solution(src).unwrap();
        assert_eq!(sol.atoms().len(), 1);
        let t1 = sol.atoms().get(0).unwrap();
        assert_eq!(t1.tuple_key().unwrap().as_str(), "T1");
        let body = t1.as_tuple().unwrap()[1].as_sub().unwrap();
        assert_eq!(body.keyed_sub("DST").unwrap().len(), 2);
    }

    #[test]
    fn parse_guards_with_connectives() {
        let src = "
            let r = replace ?x, ?y by ?x if ?x >= ?y && !(?y == 0) || is_error(?x) in
            <>
        ";
        let program = parse_program(src).unwrap();
        let g = format!("{}", program.rules[0].guard());
        assert!(g.contains("&&"));
        assert!(g.contains("||"));
    }

    #[test]
    fn parse_omega_patterns() {
        let src = "
            let pass = replace RES:<*r>, DST:<?t, *d> by RES:<?r>, DST:<?d>, send(?t, ?r) in
            <>
        ";
        let program = parse_program(src).unwrap();
        let r = &program.rules[0];
        assert_eq!(r.lhs().len(), 2);
        assert_eq!(r.rhs_call_count(), 1);
    }

    #[test]
    fn parse_empty_rhs_keyword() {
        let src = "let drop = replace-one JUNK by nothing in <JUNK, drop>";
        let program = parse_program(src).unwrap();
        let mut sol = program.solution;
        Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
        assert!(sol.atoms().is_empty());
    }

    #[test]
    fn errors_are_located() {
        assert!(parse_program("let = replace ?x by ?x in <>").is_err());
        assert!(parse_program("<1, 2").is_err());
        assert!(parse_solution("<1,,2>").is_err());
        // `by` is lexed as a plain identifier, so the missing-pattern error
        // surfaces when the parser fails to find the `by` keyword.
        let e = parse_program("let r = replace by ?x in <>").unwrap_err();
        assert!(e.message.contains("by"));
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse_solution("<1> <2>").is_err());
    }

    #[test]
    fn bools_and_negative_numbers() {
        let sol = parse_solution("<true, false, -3, -2.5>").unwrap();
        assert!(sol.atoms().contains(&Atom::Bool(true)));
        assert!(sol.atoms().contains(&Atom::Int(-3)));
        assert!(sol.atoms().contains(&Atom::Float(-2.5)));
    }
}
