//! Tokenizer for the Datalog surface syntax.
//!
//! The syntax follows the paper's notation closely:
//!
//! ```text
//! % transitive closure
//! t(X, Y) :- e(X, W), t(W, Y).
//! t(X, Y) :- e(X, Y).
//! e(1, 2).
//! ?- t(5, Y).
//! ```
//!
//! Identifiers beginning with an uppercase letter or `_` are variables; identifiers
//! beginning with a lowercase letter are predicate names or symbolic constants
//! (disambiguated by position during parsing). `%` starts a line comment.

use super::error::{ParseError, ParseResult, Position};

/// A lexical token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Token {
    /// A lowercase-initial identifier: predicate name or symbolic constant.
    LowerIdent(String),
    /// An uppercase- or underscore-initial identifier: a variable.
    UpperIdent(String),
    /// An integer literal (optionally negative).
    Integer(i64),
    /// A quoted string literal, used as a symbolic constant.
    QuotedString(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:-`
    Implies,
    /// `?-`
    QueryMark,
    /// End of input.
    Eof,
}

impl Token {
    /// A short description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            Token::LowerIdent(s) => format!("identifier `{s}`"),
            Token::UpperIdent(s) => format!("variable `{s}`"),
            Token::Integer(i) => format!("integer `{i}`"),
            Token::QuotedString(s) => format!("string \"{s}\""),
            Token::LParen => "`(`".to_string(),
            Token::RParen => "`)`".to_string(),
            Token::Comma => "`,`".to_string(),
            Token::Dot => "`.`".to_string(),
            Token::Implies => "`:-`".to_string(),
            Token::QueryMark => "`?-`".to_string(),
            Token::Eof => "end of input".to_string(),
        }
    }
}

/// A token with its source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Position of the token's first character.
    pub position: Position,
}

/// Tokenize the whole input. Returns the token stream terminated by [`Token::Eof`].
pub fn tokenize(input: &str) -> ParseResult<Vec<SpannedToken>> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    let mut line: u32 = 1;
    let mut column: u32 = 1;

    macro_rules! here {
        () => {
            Position { line, column }
        };
    }

    while let Some(&c) = chars.peek() {
        let position = here!();
        match c {
            ' ' | '\t' | '\r' => {
                chars.next();
                column += 1;
            }
            '\n' => {
                chars.next();
                line += 1;
                column = 1;
            }
            '%' => {
                // Line comment: skip to end of line.
                while let Some(&c2) = chars.peek() {
                    if c2 == '\n' {
                        break;
                    }
                    chars.next();
                    column += 1;
                }
            }
            '(' => {
                chars.next();
                column += 1;
                tokens.push(SpannedToken {
                    token: Token::LParen,
                    position,
                });
            }
            ')' => {
                chars.next();
                column += 1;
                tokens.push(SpannedToken {
                    token: Token::RParen,
                    position,
                });
            }
            ',' => {
                chars.next();
                column += 1;
                tokens.push(SpannedToken {
                    token: Token::Comma,
                    position,
                });
            }
            '.' => {
                chars.next();
                column += 1;
                tokens.push(SpannedToken {
                    token: Token::Dot,
                    position,
                });
            }
            ':' => {
                chars.next();
                column += 1;
                match chars.peek() {
                    Some('-') => {
                        chars.next();
                        column += 1;
                        tokens.push(SpannedToken {
                            token: Token::Implies,
                            position,
                        });
                    }
                    other => {
                        return Err(ParseError::new(
                            position,
                            format!(
                                "expected `:-` but found `:`{}",
                                other
                                    .map(|c| format!(" followed by `{c}`"))
                                    .unwrap_or_default()
                            ),
                        ));
                    }
                }
            }
            '?' => {
                chars.next();
                column += 1;
                match chars.peek() {
                    Some('-') => {
                        chars.next();
                        column += 1;
                        tokens.push(SpannedToken {
                            token: Token::QueryMark,
                            position,
                        });
                    }
                    _ => {
                        return Err(ParseError::new(position, "expected `?-`"));
                    }
                }
            }
            '"' => {
                chars.next();
                column += 1;
                let mut value = String::new();
                loop {
                    match chars.next() {
                        Some('"') => {
                            column += 1;
                            break;
                        }
                        Some('\n') => {
                            return Err(ParseError::new(position, "unterminated string literal"));
                        }
                        Some('\\') => {
                            column += 2;
                            value.push(match chars.next() {
                                Some('"') => '"',
                                Some('\\') => '\\',
                                Some('n') => '\n',
                                _ => {
                                    let message = "unknown escape in string literal \
                                                   (expected \\\", \\\\ or \\n)";
                                    return Err(ParseError::new(position, message));
                                }
                            });
                        }
                        Some(c2) => {
                            column += 1;
                            value.push(c2);
                        }
                        None => {
                            return Err(ParseError::new(position, "unterminated string literal"));
                        }
                    }
                }
                tokens.push(SpannedToken {
                    token: Token::QuotedString(value),
                    position,
                });
            }
            '-' | '0'..='9' => {
                let negative = c == '-';
                if negative {
                    chars.next();
                    column += 1;
                    if !matches!(chars.peek(), Some('0'..='9')) {
                        return Err(ParseError::new(position, "expected digits after `-`"));
                    }
                }
                // Sign and digits parse together: `-9223372036854775808` is
                // `i64::MIN`, whose magnitude alone is out of range.
                let mut digits = String::from(if negative { "-" } else { "" });
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        digits.push(d);
                        chars.next();
                        column += 1;
                    } else {
                        break;
                    }
                }
                let value: i64 = digits.parse().map_err(|_| {
                    ParseError::new(position, format!("integer literal `{digits}` out of range"))
                })?;
                tokens.push(SpannedToken {
                    token: Token::Integer(value),
                    position,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut ident = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        ident.push(d);
                        chars.next();
                        column += 1;
                    } else {
                        break;
                    }
                }
                let first = ident.chars().next().expect("nonempty identifier");
                let token = if first.is_uppercase() || first == '_' {
                    Token::UpperIdent(ident)
                } else {
                    Token::LowerIdent(ident)
                };
                tokens.push(SpannedToken { token, position });
            }
            other => {
                return Err(ParseError::new(
                    position,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }

    tokens.push(SpannedToken {
        token: Token::Eof,
        position: here!(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<Token> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn tokenizes_a_rule() {
        let toks = kinds("t(X, Y) :- e(X, Y).");
        assert_eq!(
            toks,
            vec![
                Token::LowerIdent("t".into()),
                Token::LParen,
                Token::UpperIdent("X".into()),
                Token::Comma,
                Token::UpperIdent("Y".into()),
                Token::RParen,
                Token::Implies,
                Token::LowerIdent("e".into()),
                Token::LParen,
                Token::UpperIdent("X".into()),
                Token::Comma,
                Token::UpperIdent("Y".into()),
                Token::RParen,
                Token::Dot,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn tokenizes_integers_and_negatives() {
        assert_eq!(
            kinds("p(5, -3)."),
            vec![
                Token::LowerIdent("p".into()),
                Token::LParen,
                Token::Integer(5),
                Token::Comma,
                Token::Integer(-3),
                Token::RParen,
                Token::Dot,
                Token::Eof,
            ]
        );
    }

    /// Regression (the digits used to parse before the sign, so `i64::MIN`,
    /// which `Const::Int` prints as exactly this text, did not read back).
    #[test]
    fn integer_literals_reach_both_i64_bounds() {
        for value in [i64::MIN, i64::MAX] {
            let text = format!("p({value}).");
            assert_eq!(kinds(&text)[2], Token::Integer(value), "{text}");
        }
        for text in ["p(-9223372036854775809).", "p(9223372036854775808)."] {
            let err = tokenize(text).unwrap_err();
            assert!(err.message.contains("out of range"), "{text}: {err}");
        }
    }

    #[test]
    fn tokenizes_query_mark_and_strings() {
        assert_eq!(
            kinds("?- p(\"hello world\")."),
            vec![
                Token::QueryMark,
                Token::LowerIdent("p".into()),
                Token::LParen,
                Token::QuotedString("hello world".into()),
                Token::RParen,
                Token::Dot,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn quoted_strings_round_trip_through_their_escapes() {
        use crate::ast::{Const, Term};
        for name in [
            "say \"hi\"",
            "back\\slash",
            "two\nlines",
            "\\\"\n",
            "plain text",
        ] {
            let rendered = Term::Const(Const::sym(name)).to_string();
            assert!(!rendered.contains('\n'), "one line: {rendered}");
            assert_eq!(
                kinds(&rendered),
                vec![Token::QuotedString(name.into()), Token::Eof],
                "{rendered}"
            );
        }
        let err = tokenize(r#""bad \q escape""#).unwrap_err();
        assert!(err.message.contains("unknown escape"), "{}", err.message);
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let toks = kinds("% a comment\n  p(X). % trailing\n");
        assert_eq!(
            toks,
            vec![
                Token::LowerIdent("p".into()),
                Token::LParen,
                Token::UpperIdent("X".into()),
                Token::RParen,
                Token::Dot,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn underscore_is_a_variable_token() {
        let toks = kinds("p(_, _Tail).");
        assert!(matches!(toks[2], Token::UpperIdent(ref s) if s == "_"));
        assert!(matches!(toks[4], Token::UpperIdent(ref s) if s == "_Tail"));
    }

    #[test]
    fn reports_positions() {
        let toks = tokenize("p(X).\nq(Y).").unwrap();
        // `q` is the 6th token (index 5) and starts at line 2, column 1.
        let q = &toks[5];
        assert_eq!(q.token, Token::LowerIdent("q".into()));
        assert_eq!(q.position.line, 2);
        assert_eq!(q.position.column, 1);
    }

    #[test]
    fn rejects_bad_characters() {
        let err = tokenize("p(X) & q(Y).").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        let err = tokenize("p(X) : q(Y).").unwrap_err();
        assert!(err.message.contains("expected `:-`"));
        let err = tokenize("\"unterminated").unwrap_err();
        assert!(err.message.contains("unterminated"));
        let err = tokenize("p(- ).").unwrap_err();
        assert!(err.message.contains("digits"));
    }
}
