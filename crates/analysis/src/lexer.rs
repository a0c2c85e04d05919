//! A minimal token-level Rust lexer — just enough structure for the
//! roadlint rules: identifiers, punctuation, literals and lifetimes, with
//! comments (line, doc and block) captured separately so marker comments
//! can be matched against token positions by line number.
//!
//! This is deliberately not a parser. Every rule in this crate is written
//! against token *shapes* (`.unwrap(`, `Ordering :: Relaxed`,
//! `ident [`), which keeps the pass dependency-free and fast, at the cost
//! of the approximations documented on each rule.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `unwrap`, `Ordering`, …).
    Ident(String),
    /// A single punctuation character (`::` is two consecutive `:`).
    Punct(char),
    /// Any literal: string, raw string, byte string, char or number.
    Lit,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }
}

/// A comment (line, doc or block) with its starting line. Line and doc
/// comments keep their text so marker directives can be parsed out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub text: String,
    pub line: u32,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Lexes `src` into tokens and comments. Unterminated constructs consume
/// to end of input rather than erroring: roadlint runs on code that
/// already compiles, so recovery precision does not matter.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    // Byte-level helpers keep the scanner allocation-light.
    let is_ident_start = |c: u8| c.is_ascii_alphabetic() || c == b'_';
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                let at = line;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line: at,
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let at = line;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line: at,
                });
            }
            b'"' => {
                let at = line;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token { tok: Tok::Lit, line: at });
            }
            b'r' | b'b' if starts_raw_string(b, i) => {
                let at = line;
                // Skip the prefix (r, br, rb…) up to the hashes/quote.
                while i < b.len() && (b[i] == b'r' || b[i] == b'b') {
                    i += 1;
                }
                let mut hashes = 0usize;
                while i < b.len() && b[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                'raw: while i < b.len() {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                        continue;
                    }
                    if b[i] == b'"' {
                        let mut k = 0usize;
                        while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                            k += 1;
                        }
                        if k == hashes {
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    i += 1;
                }
                out.tokens.push(Token { tok: Tok::Lit, line: at });
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'"' => {
                // Byte string: reuse the plain-string scan from the quote.
                let at = line;
                i += 2;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token { tok: Tok::Lit, line: at });
            }
            b'\'' => {
                // Lifetime or char literal. `'a` / `'static` are lifetimes
                // (ident run not closed by `'`); everything else is a char.
                let at = line;
                let mut j = i + 1;
                if j < b.len() && is_ident_start(b[j]) && b[j] != b'\\' {
                    let mut k = j;
                    while k < b.len() && is_ident(b[k]) {
                        k += 1;
                    }
                    if k < b.len() && b[k] == b'\'' {
                        // 'x' — a char literal.
                        out.tokens.push(Token { tok: Tok::Lit, line: at });
                        i = k + 1;
                    } else {
                        out.tokens.push(Token { tok: Tok::Lifetime, line: at });
                        i = k;
                    }
                } else {
                    // Escaped or symbolic char literal: '\n', '\'', '('.
                    if j < b.len() && b[j] == b'\\' {
                        j += 2;
                    } else {
                        j += 1;
                    }
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    out.tokens.push(Token { tok: Tok::Lit, line: at });
                    i = (j + 1).min(b.len());
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident(b[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(String::from_utf8_lossy(&b[start..i]).into_owned()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let at = line;
                i += 1;
                while i < b.len() {
                    if is_ident(b[i]) {
                        i += 1;
                    } else if b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                        // Decimal point, but not the `..` of a range.
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token { tok: Tok::Lit, line: at });
            }
            c => {
                out.tokens.push(Token { tok: Tok::Punct(c as char), line });
                i += 1;
            }
        }
    }
    out
}

/// True when position `i` starts a raw (or raw byte) string: `r"`, `r#`,
/// `br"`, `br#`, `rb…` — an `r`/`b` run followed by `#`s or a quote.
fn starts_raw_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    let mut saw_r = false;
    while j < b.len() && (b[j] == b'r' || b[j] == b'b') && j - i < 2 {
        saw_r |= b[j] == b'r';
        j += 1;
    }
    if !saw_r {
        return false;
    }
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.iter().filter_map(|t| t.ident().map(str::to_owned)).collect()
    }

    #[test]
    fn idents_puncts_and_lines() {
        let l = lex("let x = a.unwrap();\nlet y = 2;");
        assert_eq!(idents("let x = a.unwrap();"), ["let", "x", "a", "unwrap"]);
        let unwrap = l.tokens.iter().find(|t| t.ident() == Some("unwrap")).cloned();
        assert_eq!(unwrap.map(|t| t.line), Some(1));
        let y = l.tokens.iter().find(|t| t.ident() == Some("y")).cloned();
        assert_eq!(y.map(|t| t.line), Some(2));
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("// roadlint: hot-path\nfn f() {}\n/* block\nspan */ fn g() {}");
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].text.contains("hot-path"));
        assert_eq!(l.comments[1].line, 3);
        // The `fn g` after the block comment lands on line 4.
        let g = l.tokens.iter().find(|t| t.ident() == Some("g")).cloned();
        assert_eq!(g.map(|t| t.line), Some(4));
    }

    #[test]
    fn strings_and_chars_do_not_leak_tokens() {
        // `.unwrap(` inside a string must not look like a call.
        assert_eq!(idents(r#"let s = ".unwrap(";"#), ["let", "s"]);
        assert_eq!(idents(r##"let s = r#"panic!("x")"#;"##), ["let", "s"]);
        assert_eq!(idents("let c = '\\'';"), ["let", "c"]);
        assert_eq!(idents("let c = 'x'; let b = b'y';"), ["let", "c", "let", "b", "b"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'a'; }");
        let lifetimes = l.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = l.tokens.iter().filter(|t| t.tok == Tok::Lit).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn numbers_absorb_suffixes_and_ranges_split() {
        let l = lex("let r = 0..10; let f = 1.5f64; let h = 0xffu32;");
        // `0..10` must produce two dots between two literals.
        let dots = l.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
        let lits = l.tokens.iter().filter(|t| t.tok == Tok::Lit).count();
        assert_eq!(lits, 4);
    }
}
