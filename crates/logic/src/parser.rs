//! A small recursive-descent parser for propositional formulas.
//!
//! Grammar (lowest to highest precedence; `<->` and `<+>` associate
//! left, `->` associates right):
//!
//! ```text
//! iff     := implies ( ("<->" | "<+>") implies )*
//! implies := or ( "->" implies )?
//! or      := and ( ("|" | "\/") and )*
//! and     := unary ( ("&" | "/\") unary )*
//! unary   := ("!" | "~" | "-") unary | atom
//! atom    := "true" | "false" | ident | "(" iff ")"
//! ident   := [A-Za-z_][A-Za-z0-9_'#]*
//! ```
//!
//! Identifiers are interned into the supplied [`Signature`], so parsing
//! `"g | b"` then `"!g"` reuses the same letters.
//!
//! Nesting is capped at [`MAX_DEPTH`]: every `!`, every open
//! parenthesis, and every `->`, `<->` or `<+>` applied nests the
//! formula one level deeper. Everything downstream of the parser
//! (Tseitin, substitution, rendering, even dropping the formula) walks
//! the tree recursively, so an unbounded depth from one hostile input
//! would overflow the stack and abort the process.

use crate::formula::Formula;
use crate::var::Signature;
use std::fmt;

/// The deepest nesting [`parse`] accepts (see the module docs).
pub const MAX_DEPTH: usize = 256;

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position where parsing failed.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// Why a parse failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input is not a well-formed formula.
    Syntax,
    /// The formula nests deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse `input` into a formula, interning letters into `sig`.
///
/// ```
/// use revkb_logic::{parse, Signature};
/// let mut sig = Signature::new();
/// let f = parse("george | bill", &mut sig).unwrap();
/// let g = parse("!george", &mut sig).unwrap();
/// // Letters are shared through the signature.
/// assert!(revkb_logic::tt_entails(&f.and(g), &parse("bill", &mut sig).unwrap()));
/// ```
pub fn parse(input: &str, sig: &mut Signature) -> Result<Formula, ParseError> {
    parse_nested(input, sig, MAX_DEPTH)
}

/// [`parse`] with the nesting cap set to `max_depth` instead of
/// [`MAX_DEPTH`]. A server replaying its own log passes `usize::MAX`:
/// a record written before the cap existed was accepted then, and must
/// come back on restart.
pub fn parse_nested(
    input: &str,
    sig: &mut Signature,
    max_depth: usize,
) -> Result<Formula, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        max_depth,
        sig,
    };
    p.skip_ws();
    let f = p.parse_iff()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing input"));
    }
    Ok(f)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Nesting of the construct being parsed.
    depth: usize,
    max_depth: usize,
    sig: &'a mut Signature,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.to_string(),
            kind: ParseErrorKind::Syntax,
        }
    }

    /// Go one level deeper, or fail past `max_depth`. The caller
    /// comes back up by decrementing `depth`.
    fn nest(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(ParseError {
                position: self.pos,
                message: format!("formula nested deeper than {} levels", self.max_depth),
                kind: ParseErrorKind::TooDeep,
            });
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn parse_iff(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.parse_implies()?;
        // Each operator of a chain nests everything before it.
        let mut chained = 0;
        loop {
            self.skip_ws();
            let iff = if self.eat("<->") {
                true
            } else if self.eat("<+>") {
                false
            } else {
                self.depth -= chained;
                return Ok(left);
            };
            self.nest()?;
            chained += 1;
            self.skip_ws();
            let right = self.parse_implies()?;
            left = if iff {
                left.iff(right)
            } else {
                left.xor(right)
            };
        }
    }

    fn parse_implies(&mut self) -> Result<Formula, ParseError> {
        let left = self.parse_or()?;
        self.skip_ws();
        if self.eat("->") {
            self.nest()?;
            self.skip_ws();
            let right = self.parse_implies()?;
            self.depth -= 1;
            Ok(left.implies(right))
        } else {
            Ok(left)
        }
    }

    fn parse_or(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.parse_and()?];
        loop {
            self.skip_ws();
            // Careful not to consume the "|" of nothing or "\/".
            if self.eat("\\/")
                || (self.peek() == Some(b'|') && {
                    self.pos += 1;
                    true
                })
            {
                self.skip_ws();
                parts.push(self.parse_and()?);
            } else {
                break;
            }
        }
        Ok(Formula::or_all(parts))
    }

    fn parse_and(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.parse_unary()?];
        loop {
            self.skip_ws();
            if self.eat("/\\")
                || (self.peek() == Some(b'&') && {
                    self.pos += 1;
                    true
                })
            {
                self.skip_ws();
                parts.push(self.parse_unary()?);
            } else {
                break;
            }
        }
        Ok(Formula::and_all(parts))
    }

    fn parse_unary(&mut self) -> Result<Formula, ParseError> {
        self.skip_ws();
        match self.peek() {
            // '-' negation, but not the '->' arrow (can't start a term).
            Some(b'!') | Some(b'~') | Some(b'-') if !self.bytes[self.pos..].starts_with(b"->") => {
                self.pos += 1;
                self.nest()?;
                let f = self.parse_unary()?.not();
                self.depth -= 1;
                Ok(f)
            }
            _ => self.parse_atom(),
        }
    }

    fn parse_atom(&mut self) -> Result<Formula, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                self.nest()?;
                let f = self.parse_iff()?;
                self.depth -= 1;
                self.skip_ws();
                if self.peek() == Some(b')') {
                    self.pos += 1;
                    Ok(f)
                } else {
                    Err(self.error("expected ')'"))
                }
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self
                    .peek()
                    .map(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'\'' || c == b'#')
                    .unwrap_or(false)
                {
                    self.pos += 1;
                }
                let ident = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
                match ident {
                    "true" | "TRUE" | "T" => Ok(Formula::True),
                    "false" | "FALSE" | "F" => Ok(Formula::False),
                    name => Ok(Formula::var(self.sig.var(name))),
                }
            }
            _ => Err(self.error("expected atom")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tt_equivalent;
    use crate::formula::Formula;

    fn roundtrip(s: &str) -> (Formula, Signature) {
        let mut sig = Signature::new();
        let f = parse(s, &mut sig).expect("parse failed");
        (f, sig)
    }

    #[test]
    fn atoms_and_constants() {
        let (f, sig) = roundtrip("george");
        assert_eq!(f, Formula::var(sig.lookup("george").unwrap()));
        assert_eq!(roundtrip("true").0, Formula::True);
        assert_eq!(roundtrip("false").0, Formula::False);
    }

    #[test]
    fn precedence() {
        // a | b & c parses as a | (b & c)
        let (f, mut sig) = roundtrip("a | b & c");
        let expected = parse("a | (b & c)", &mut sig).unwrap();
        assert_eq!(f, expected);
        // !a & b parses as (!a) & b
        let (g, mut sig2) = roundtrip("!a & b");
        let expected2 = parse("(!a) & b", &mut sig2).unwrap();
        assert_eq!(g, expected2);
    }

    #[test]
    fn implication_right_associative() {
        let (f, mut sig) = roundtrip("a -> b -> c");
        let expected = parse("a -> (b -> c)", &mut sig).unwrap();
        assert_eq!(f, expected);
    }

    #[test]
    fn connective_spellings() {
        let (f, mut sig) = roundtrip("a /\\ b \\/ ~c");
        let expected = parse("a & b | !c", &mut sig).unwrap();
        assert!(tt_equivalent(&f, &expected));
    }

    #[test]
    fn iff_and_xor() {
        let (f, _) = roundtrip("a <-> b");
        assert!(matches!(f, Formula::Iff(_, _)));
        let (g, _) = roundtrip("a <+> b");
        assert!(matches!(g, Formula::Xor(_, _)));
    }

    #[test]
    fn shared_signature_reuses_letters() {
        let mut sig = Signature::new();
        let f = parse("g | b", &mut sig).unwrap();
        let g = parse("!g", &mut sig).unwrap();
        let conj = f.and(g);
        // g ∨ b, ¬g entails b (the paper's office example).
        let b = Formula::var(sig.lookup("b").unwrap());
        assert!(crate::eval::tt_entails(&conj, &b));
    }

    #[test]
    fn dash_negation_vs_arrow() {
        let (f, mut sig) = roundtrip("-a -> b");
        let expected = parse("(!a) -> b", &mut sig).unwrap();
        assert_eq!(f, expected);
    }

    #[test]
    fn errors() {
        let mut sig = Signature::new();
        assert!(parse("a &", &mut sig).is_err());
        assert!(parse("(a", &mut sig).is_err());
        assert!(parse("a b", &mut sig).is_err());
        assert!(parse("", &mut sig).is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let mut sig = Signature::new();
        let too_deep = |input: &str, sig: &mut Signature| {
            parse(input, sig).expect_err("over the cap").kind == ParseErrorKind::TooDeep
        };
        let nots = |n| format!("{}a", "!".repeat(n));
        let parens = |n| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        let chain = |n, op: &str| format!("a{}", format!(" {op} a").repeat(n));
        let arrows = |n| format!("{}a", "a -> ".repeat(n));
        for input in [nots(MAX_DEPTH), parens(MAX_DEPTH), arrows(MAX_DEPTH)] {
            assert!(parse(&input, &mut sig).is_ok(), "at the cap");
        }
        assert!(parse(&chain(MAX_DEPTH, "<->"), &mut sig).is_ok());
        assert!(parse(&chain(MAX_DEPTH, "<+>"), &mut sig).is_ok());
        for input in [
            nots(MAX_DEPTH + 1),
            parens(MAX_DEPTH + 1),
            arrows(MAX_DEPTH + 1),
            chain(MAX_DEPTH + 1, "<->"),
            chain(MAX_DEPTH + 1, "<+>"),
            format!("{}{}", "(".repeat(MAX_DEPTH / 2), nots(MAX_DEPTH / 2 + 1)),
        ] {
            assert!(too_deep(&input, &mut sig), "{}…", &input[..20]);
        }
        // Flat conjunctions and disjunctions nest nothing, and closed
        // parentheses give their depth back.
        assert!(parse(&chain(10 * MAX_DEPTH, "&"), &mut sig).is_ok());
        assert!(parse(
            &format!("{} & {}", parens(MAX_DEPTH), parens(MAX_DEPTH)),
            &mut sig
        )
        .is_ok());
        // The cap is a parameter of `parse_nested`.
        assert!(parse_nested(&nots(MAX_DEPTH + 1), &mut sig, MAX_DEPTH + 1).is_ok());
        assert!(parse_nested(&nots(3), &mut sig, 2).is_err());
        // A plain syntax error is not a depth error.
        assert_eq!(
            parse("(a", &mut sig).unwrap_err().kind,
            ParseErrorKind::Syntax
        );
    }

    #[test]
    fn primed_identifiers() {
        let (_, sig) = roundtrip("x1' & w#3");
        assert!(sig.lookup("x1'").is_some());
        assert!(sig.lookup("w#3").is_some());
    }
}
