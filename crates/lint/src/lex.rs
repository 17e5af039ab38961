//! The hand-rolled Rust lexer underneath the lint rules.
//!
//! Produces a flat stream of identifier / punctuation / string-literal
//! tokens plus the comment list. Comments (line, nested block, doc),
//! char/byte/numeric literals and lifetimes are consumed without producing
//! tokens, so rule words inside them can never fire. String literals *do*
//! produce a [`Tok::Str`] carrying their content, but since they are a
//! distinct token kind, identifier-matching rules never see them.

/// Token categories the rules and the item parser care about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Any single punctuation character.
    Punct(char),
    /// A string literal (plain or raw), carrying its content.
    Str(String),
}

/// A token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// A comment with the 1-based line it starts on.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Raw comment text including the delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: usize,
}

/// Lexes `source` into tokens plus the comment list.
///
/// Numeric literals are consumed including their type suffix, so `0u32`
/// never trips `truncating-cast`; char, byte and byte-string literals are
/// consumed without producing tokens.
pub fn tokenize(source: &str) -> (Vec<Spanned>, Vec<Comment>) {
    let bytes: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let n = bytes.len();

    let count_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count();

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                let start = i;
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
                comments.push(Comment {
                    text: bytes[start..i].iter().collect(),
                    line,
                });
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                comments.push(Comment {
                    text: bytes[start..i.min(n)].iter().collect(),
                    line: start_line,
                });
            }
            '"' => {
                let start_line = line;
                let (end, content) = read_string(&bytes, i, &mut line);
                toks.push(Spanned {
                    tok: Tok::Str(content),
                    line: start_line,
                });
                i = end;
            }
            'r' | 'b' if starts_literal(&bytes, i) => {
                let start_line = line;
                let (end, content) = skip_prefixed_literal(&bytes, i);
                line += count_lines(&bytes[i..end]);
                if let Some(content) = content {
                    toks.push(Spanned {
                        tok: Tok::Str(content),
                        line: start_line,
                    });
                }
                i = end;
            }
            '\'' => {
                // Lifetime or loop label (`'a`, `'outer`) vs char literal
                // (`'a'`, `'\n'`).
                if i + 1 < n && (bytes[i + 1].is_alphabetic() || bytes[i + 1] == '_') {
                    let mut j = i + 2;
                    while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                        j += 1;
                    }
                    if j < n && bytes[j] == '\'' && j == i + 2 {
                        i = j + 1; // single-char literal like 'a'
                    } else {
                        i = j; // lifetime or label: skip, no closing quote
                    }
                } else {
                    // Escaped or punctuation char literal: '\n', '\'', '('.
                    let mut j = i + 1;
                    while j < n && bytes[j] != '\'' {
                        if bytes[j] == '\\' {
                            j += 1;
                        }
                        j += 1;
                    }
                    i = j + 1;
                }
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                toks.push(Spanned {
                    tok: Tok::Ident(bytes[start..i].iter().collect()),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                // Numeric literal incl. type suffix (`0u32`, `1_000`, `0x5EED`,
                // `1.5e-3`): consume so the suffix never becomes an ident.
                while i < n
                    && (bytes[i].is_alphanumeric()
                        || bytes[i] == '_'
                        || bytes[i] == '.' && i + 1 < n && bytes[i + 1].is_ascii_digit())
                {
                    i += 1;
                }
            }
            _ => {
                if !c.is_whitespace() {
                    toks.push(Spanned {
                        tok: Tok::Punct(c),
                        line,
                    });
                }
                i += 1;
            }
        }
    }
    (toks, comments)
}

/// True if position `i` (at `r` or `b`) starts a raw/byte literal rather
/// than an identifier.
fn starts_literal(bytes: &[char], i: usize) -> bool {
    // Not a literal if preceded by an ident char (e.g. the `r` in `var`).
    if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
        return false;
    }
    let n = bytes.len();
    match bytes[i] {
        'r' => i + 1 < n && (bytes[i + 1] == '"' || bytes[i + 1] == '#'),
        'b' => {
            i + 1 < n
                && (bytes[i + 1] == '"'
                    || bytes[i + 1] == '\''
                    || (bytes[i + 1] == 'r'
                        && i + 2 < n
                        && (bytes[i + 2] == '"' || bytes[i + 2] == '#')))
        }
        _ => false,
    }
}

/// Reads a plain `"..."` string starting at `i`, tracking newlines.
/// Returns the index just past the closing quote and the content.
fn read_string(bytes: &[char], mut i: usize, line: &mut usize) -> (usize, String) {
    let n = bytes.len();
    let start = i + 1;
    i += 1;
    while i < n {
        match bytes[i] {
            '\\' => i += 2,
            '"' => return (i + 1, bytes[start..i].iter().collect()),
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (n, bytes[start..n.min(bytes.len())].iter().collect())
}

/// Skips a literal starting with `r`/`b`: raw strings (`r"…"`, `r#"…"#`),
/// byte strings (`b"…"`, `br#"…"#`), raw idents (`r#name`) and byte chars
/// (`b'x'`). Returns the index just past the literal, plus the content for
/// raw (non-byte) strings, which become [`Tok::Str`] tokens.
fn skip_prefixed_literal(bytes: &[char], mut i: usize) -> (usize, Option<String>) {
    let n = bytes.len();
    // Consume the prefix letters.
    let is_byte = bytes[i] == 'b';
    if is_byte {
        i += 1;
    }
    if i < n && bytes[i] == 'r' {
        i += 1;
    }
    if i < n && bytes[i] == '\'' {
        // Byte char b'x' / b'\n'.
        i += 1;
        while i < n && bytes[i] != '\'' {
            if bytes[i] == '\\' {
                i += 1;
            }
            i += 1;
        }
        return ((i + 1).min(n), None);
    }
    // Count `#`s of a raw string; `r#ident` has no quote after the hashes.
    let mut hashes = 0;
    while i < n && bytes[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || bytes[i] != '"' {
        // Raw identifier like r#type: lex as an ident (skipped — raw idents
        // are never rule words).
        while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
            i += 1;
        }
        return (i, None);
    }
    i += 1; // opening quote
    let content_start = i;
    while i < n {
        if bytes[i] == '"' {
            let mut k = 0;
            while k < hashes && i + 1 + k < n && bytes[i + 1 + k] == '#' {
                k += 1;
            }
            if k == hashes {
                let content: String = bytes[content_start..i].iter().collect();
                return (i + 1 + hashes, (!is_byte).then_some(content));
            }
        }
        i += 1;
    }
    (n, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .0
            .into_iter()
            .filter_map(|s| match s.tok {
                Tok::Ident(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_become_str_tokens_not_idents() {
        let (toks, _) = tokenize(r#"let s = "HashMap unwrap()";"#);
        assert!(toks
            .iter()
            .any(|t| t.tok == Tok::Str("HashMap unwrap()".into())));
        assert!(!idents(r#"let s = "HashMap";"#).contains(&"HashMap".to_string()));
    }

    #[test]
    fn raw_strings_yield_content() {
        let (toks, _) = tokenize(r##"const R: &str = r#"Instant " panic!"#;"##);
        assert!(toks
            .iter()
            .any(|t| matches!(&t.tok, Tok::Str(s) if s.contains("Instant"))));
        assert!(!idents(r##"r#"Instant"#"##).contains(&"Instant".to_string()));
    }

    #[test]
    fn byte_literals_are_silent() {
        let (toks, _) = tokenize(r#"const A: &[u8] = b"HashMap"; const B: u8 = b'H';"#);
        assert!(!toks.iter().any(|t| matches!(&t.tok, Tok::Str(_))));
    }

    #[test]
    fn nested_block_comments_are_one_comment() {
        let (toks, comments) = tokenize("/* outer /* inner */ still outer */ fn f() {}");
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.contains("inner"));
        assert_eq!(idents("/* /* x */ */ fn f() {}"), ["fn", "f"]);
        let _ = toks;
    }

    #[test]
    fn lifetimes_and_labels_are_skipped_but_code_is_not() {
        // 'a is a lifetime, 'outer: a loop label; both skipped without
        // swallowing the tokens after them.
        let ids = idents("fn f<'a>(x: &'a u32) { 'outer: loop { break 'outer; } }");
        assert!(ids.contains(&"loop".to_string()));
        assert!(ids.contains(&"break".to_string()));
        assert!(!ids.contains(&"outer".to_string()));
        assert!(!ids.contains(&"a".to_string()));
    }

    #[test]
    fn char_literals_do_not_eat_code() {
        let ids = idents("let c = '\\''; let d = '('; unwrap()");
        assert!(ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn numeric_suffixes_are_not_idents() {
        assert_eq!(idents("const X: u32 = 0u32;"), ["const", "X", "u32"]);
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let (toks, _) = tokenize("let s = \"a\nb\";\nfn f() {}");
        let f = toks
            .iter()
            .find(|t| t.tok == Tok::Ident("fn".into()))
            .unwrap();
        assert_eq!(f.line, 3);
    }

    #[test]
    fn line_numbers_survive_block_comments() {
        let (toks, _) = tokenize("/* a\nb\nc */ fn f() {}");
        assert_eq!(toks[0].line, 3);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'x", "b'", "r#"] {
            let _ = tokenize(src);
        }
    }
}
