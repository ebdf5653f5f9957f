//! Recursive-descent parser for the Datalog surface syntax.
//!
//! The entry points are [`parse_program`] (a whole source file: rules, facts and an
//! optional `?- query.`), [`parse_rule`], [`parse_atom`] and [`parse_query`].
//!
//! Anonymous variables written `_` are replaced by fresh variables so that each `_`
//! occurrence is independent, matching the paper's use of "anonymous" argument
//! positions (§5, Proposition 5.5).

pub mod error;
pub mod lexer;

pub use error::{ParseError, ParseResult, Position};

use crate::ast::{Atom, Program, Query, Rule, Term};
use crate::symbol::Symbol;
use lexer::{tokenize, SpannedToken, Token};

/// The result of parsing a source file.
#[derive(Clone, Debug, Default)]
pub struct ParseOutput {
    /// All rules, including ground facts written in the source.
    pub program: Program,
    /// The queries (`?- atom.`) in source order.
    pub queries: Vec<Query>,
}

impl ParseOutput {
    /// The first query, if any.
    pub fn query(&self) -> Option<&Query> {
        self.queries.first()
    }

    /// Split the parsed rules into a program of proper rules and a list of ground
    /// facts (rules with an empty body and a ground head). Program facts whose
    /// predicate also appears as the head of a non-fact rule stay in the program (they
    /// are IDB seeds, such as the paper's `m_tbf(5).`).
    pub fn split_facts(&self) -> (Program, Vec<Atom>) {
        let idb_with_rules: std::collections::BTreeSet<Symbol> = self
            .program
            .rules
            .iter()
            .filter(|r| !r.is_fact())
            .map(|r| r.head.predicate)
            .collect();
        let mut rules = Vec::new();
        let mut facts = Vec::new();
        for rule in &self.program.rules {
            if rule.is_fact()
                && rule.head.is_ground()
                && !idb_with_rules.contains(&rule.head.predicate)
            {
                facts.push(rule.head.clone());
            } else {
                rules.push(rule.clone());
            }
        }
        (Program::from_rules(rules), facts)
    }
}

struct Parser {
    tokens: Vec<SpannedToken>,
    cursor: usize,
    anon_counter: u64,
}

impl Parser {
    fn new(input: &str) -> ParseResult<Parser> {
        Ok(Parser {
            tokens: tokenize(input)?,
            cursor: 0,
            anon_counter: 0,
        })
    }

    fn peek(&self) -> &SpannedToken {
        &self.tokens[self.cursor]
    }

    fn advance(&mut self) -> SpannedToken {
        let token = self.tokens[self.cursor].clone();
        if self.cursor + 1 < self.tokens.len() {
            self.cursor += 1;
        }
        token
    }

    fn expect(&mut self, expected: &Token, what: &str) -> ParseResult<()> {
        let found = self.peek().clone();
        if &found.token == expected {
            self.advance();
            Ok(())
        } else {
            Err(ParseError::new(
                found.position,
                format!("expected {what} but found {}", found.token.describe()),
            ))
        }
    }

    fn fresh_anonymous(&mut self) -> Term {
        self.anon_counter += 1;
        Term::Var(Symbol::intern(&format!("_anon{}", self.anon_counter)))
    }

    fn parse_term(&mut self) -> ParseResult<Term> {
        let tok = self.advance();
        match tok.token {
            Token::UpperIdent(name) => {
                if name == "_" {
                    Ok(self.fresh_anonymous())
                } else {
                    Ok(Term::Var(Symbol::intern(&name)))
                }
            }
            Token::LowerIdent(name) => Ok(Term::sym(&name)),
            Token::Integer(value) => Ok(Term::int(value)),
            Token::QuotedString(value) => Ok(Term::sym(&value)),
            other => Err(ParseError::new(
                tok.position,
                format!("expected a term but found {}", other.describe()),
            )),
        }
    }

    fn parse_atom(&mut self) -> ParseResult<Atom> {
        let tok = self.advance();
        let predicate = match tok.token {
            Token::LowerIdent(name) => Symbol::intern(&name),
            other => {
                return Err(ParseError::new(
                    tok.position,
                    format!("expected a predicate name but found {}", other.describe()),
                ));
            }
        };
        let mut terms = Vec::new();
        if self.peek().token == Token::LParen {
            self.advance();
            if self.peek().token == Token::RParen {
                let pos = self.peek().position;
                return Err(ParseError::new(
                    pos,
                    "empty argument list; omit the parentheses for a zero-arity atom",
                ));
            }
            loop {
                terms.push(self.parse_term()?);
                match &self.peek().token {
                    Token::Comma => {
                        self.advance();
                    }
                    Token::RParen => {
                        self.advance();
                        break;
                    }
                    other => {
                        let pos = self.peek().position;
                        return Err(ParseError::new(
                            pos,
                            format!("expected `,` or `)` but found {}", other.describe()),
                        ));
                    }
                }
            }
        }
        Ok(Atom::new(predicate, terms))
    }

    fn parse_clause(&mut self) -> ParseResult<Clause> {
        if self.peek().token == Token::QueryMark {
            self.advance();
            let atom = self.parse_atom()?;
            self.expect(&Token::Dot, "`.`")?;
            return Ok(Clause::Query(Query::new(atom)));
        }
        let head = self.parse_atom()?;
        match &self.peek().token {
            Token::Dot => {
                self.advance();
                Ok(Clause::Rule(Rule::fact(head)))
            }
            Token::Implies => {
                self.advance();
                let mut body = Vec::new();
                loop {
                    body.push(self.parse_atom()?);
                    match &self.peek().token {
                        Token::Comma => {
                            self.advance();
                        }
                        Token::Dot => {
                            self.advance();
                            break;
                        }
                        other => {
                            let pos = self.peek().position;
                            return Err(ParseError::new(
                                pos,
                                format!("expected `,` or `.` but found {}", other.describe()),
                            ));
                        }
                    }
                }
                Ok(Clause::Rule(Rule::new(head, body)))
            }
            other => {
                let pos = self.peek().position;
                Err(ParseError::new(
                    pos,
                    format!("expected `.` or `:-` but found {}", other.describe()),
                ))
            }
        }
    }

    fn parse_program(&mut self) -> ParseResult<ParseOutput> {
        let mut output = ParseOutput::default();
        while self.peek().token != Token::Eof {
            match self.parse_clause()? {
                Clause::Rule(rule) => output.program.push(rule),
                Clause::Query(query) => output.queries.push(query),
            }
        }
        Ok(output)
    }
}

enum Clause {
    Rule(Rule),
    Query(Query),
}

/// Parse a whole source file: rules, facts and zero or more `?- query.` clauses.
pub fn parse_program(input: &str) -> ParseResult<ParseOutput> {
    Parser::new(input)?.parse_program()
}

/// Parse a single rule or fact (terminated by `.`).
pub fn parse_rule(input: &str) -> ParseResult<Rule> {
    let mut parser = Parser::new(input)?;
    match parser.parse_clause()? {
        Clause::Rule(rule) => {
            parser.expect(&Token::Eof, "end of input")?;
            Ok(rule)
        }
        Clause::Query(_) => Err(ParseError::new(
            Position::start(),
            "expected a rule, found a query",
        )),
    }
}

/// Parse a single atom, e.g. `t(5, Y)` (no trailing `.`).
pub fn parse_atom(input: &str) -> ParseResult<Atom> {
    let mut parser = Parser::new(input)?;
    let atom = parser.parse_atom()?;
    parser.expect(&Token::Eof, "end of input")?;
    Ok(atom)
}

/// Parse a query of either form `?- t(5, Y).` or `t(5, Y)?` is not supported; use the
/// `?- ... .` form or pass a bare atom (without punctuation).
pub fn parse_query(input: &str) -> ParseResult<Query> {
    let trimmed = input.trim();
    if trimmed.starts_with("?-") {
        let mut parser = Parser::new(trimmed)?;
        match parser.parse_clause()? {
            Clause::Query(q) => Ok(q),
            Clause::Rule(_) => Err(ParseError::new(Position::start(), "expected a query")),
        }
    } else {
        Ok(Query::new(parse_atom(trimmed)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_rule_transitive_closure() {
        // Example 1.1 of the paper.
        let src = "
            t(X, Y) :- t(X, W), t(W, Y).
            t(X, Y) :- e(X, W), t(W, Y).
            t(X, Y) :- t(X, W), e(W, Y).
            t(X, Y) :- e(X, Y).
            ?- t(5, Y).
        ";
        let out = parse_program(src).unwrap();
        assert_eq!(out.program.len(), 4);
        assert_eq!(out.queries.len(), 1);
        assert_eq!(out.query().unwrap().adornment(), "bf");
        assert_eq!(
            format!("{}", out.program.rules[0]),
            "t(X, Y) :- t(X, W), t(W, Y)."
        );
    }

    #[test]
    fn parses_facts_and_splits_them() {
        let src = "
            t(X, Y) :- e(X, Y).
            e(1, 2).
            e(2, 3).
            seed(5).
            seed(W) :- seed(X), e(X, W).
        ";
        let out = parse_program(src).unwrap();
        let (program, facts) = out.split_facts();
        // e/2 facts are EDB; seed(5) stays in the program because seed has rules.
        assert_eq!(facts.len(), 2);
        assert_eq!(program.len(), 3);
        assert!(program
            .rules
            .iter()
            .any(|r| r.is_fact() && r.head.predicate == Symbol::intern("seed")));
    }

    #[test]
    fn parses_symbolic_constants_and_strings() {
        let rule = parse_rule("likes(alice, \"ice cream\").").unwrap();
        assert!(rule.is_fact());
        assert_eq!(format!("{}", rule.head), "likes(alice, \"ice cream\")");
    }

    #[test]
    fn parses_zero_arity_atoms() {
        let rule = parse_rule("goal :- p(X).").unwrap();
        assert_eq!(rule.head.arity(), 0);
        assert_eq!(format!("{rule}"), "goal :- p(X).");
    }

    #[test]
    fn anonymous_variables_are_fresh() {
        let rule = parse_rule("p(X) :- q(X, _), r(_, X).").unwrap();
        let v1 = rule.body[0].terms[1].as_var().unwrap();
        let v2 = rule.body[1].terms[0].as_var().unwrap();
        assert_ne!(v1, v2, "each `_` must become a distinct variable");
    }

    #[test]
    fn parse_atom_and_query_helpers() {
        let atom = parse_atom("t(5, Y)").unwrap();
        assert_eq!(atom.arity(), 2);
        let q = parse_query("?- t(5, Y).").unwrap();
        assert_eq!(q.adornment(), "bf");
        let q2 = parse_query("t(5, Y)").unwrap();
        assert_eq!(q2, q);
    }

    #[test]
    fn error_messages_carry_positions() {
        let err = parse_program("p(X) :- q(X)\np(Y).").unwrap_err();
        assert_eq!(
            err.position.line, 2,
            "error should point at the second line"
        );
        let err = parse_rule("p(X) :- .").unwrap_err();
        assert!(err.message.contains("expected a predicate name"));
        let err = parse_rule("p().").unwrap_err();
        assert!(err.message.contains("empty argument list"));
        let err = parse_atom("t(5, Y) extra").unwrap_err();
        assert!(err.message.contains("end of input"));
    }

    #[test]
    fn rejects_query_in_parse_rule() {
        let err = parse_rule("?- p(X).").unwrap_err();
        assert!(err.message.contains("expected a rule"));
    }

    #[test]
    fn roundtrip_display_then_parse() {
        let src = "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n";
        let out = parse_program(src).unwrap();
        let printed = format!("{}", out.program);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(out.program, reparsed.program);
    }
}
