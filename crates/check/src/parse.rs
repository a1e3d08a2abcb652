//! Lightweight item parser over the token stream: function and impl
//! boundaries, `#[cfg(test)]` regions, and allowlist directives.
//!
//! This is not a Rust grammar — it recognizes exactly the structure the
//! rules need: where functions begin and end (brace matching), which
//! `impl` type a function belongs to (for qualified call resolution),
//! which lines are test-gated, and what each `// nfv-lint: allow(...)`
//! comment says. Everything else in the token stream passes through
//! untouched for the rules to inspect.

use crate::lexer::{self, Kind, Tok};

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug)]
pub struct FnDef {
    /// Function name (raw-ident prefix stripped).
    pub name: String,
    /// Enclosing `impl` type, when inside an impl block. For
    /// `impl Trait for Type` this is `Type` — the type the method is
    /// callable on.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token indices of the body's `{` and its matching `}`; `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// One `// nfv-lint: allow(rule-a, rule-b) -- reason` comment.
#[derive(Debug)]
pub struct Directive {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// Rule names as written (trimmed, not validated).
    pub rules: Vec<String>,
    /// A non-empty `-- <reason>` trailer follows the closing paren.
    pub has_reason: bool,
}

/// A parsed source file: tokens plus the structural facts rules consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Path label, `/`-normalized, as reported in findings.
    pub path: String,
    pub text: String,
    pub toks: Vec<Tok>,
    /// For each `{`/`}` token, the index of its partner.
    pub brace_match: Vec<Option<usize>>,
    pub fns: Vec<FnDef>,
    pub directives: Vec<Directive>,
    /// `test_lines[line - 1]` — the line is inside a `#[cfg(test)]` item
    /// (including the attribute line itself).
    pub test_lines: Vec<bool>,
    /// Byte offset of each line start, for snippet extraction.
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Token text.
    pub fn tok_text(&self, i: usize) -> &str {
        let t = &self.toks[i];
        &self.text[t.lo as usize..t.hi as usize]
    }

    /// True when the token is punctuation with exactly this text.
    pub fn is_punct(&self, i: usize, p: &str) -> bool {
        self.toks[i].kind == Kind::Punct && self.tok_text(i) == p
    }

    /// True when the token is an identifier with exactly this text.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.toks[i].kind == Kind::Ident && self.tok_text(i) == name
    }

    /// The raw text of a 1-based line, trimmed (finding snippets).
    pub fn line_snippet(&self, line: u32) -> &str {
        let i = (line as usize - 1).min(self.line_starts.len().saturating_sub(1));
        let lo = self.line_starts[i];
        let hi = self
            .line_starts
            .get(i + 1)
            .map_or(self.text.len(), |&n| n - 1);
        self.text[lo..hi.max(lo)].trim_matches(['\r', ' ', '\t'])
    }

    /// Is this 1-based line inside a `#[cfg(test)]` region?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }

    /// Parse `text`. Never fails: this runs on source `rustc` accepts, and
    /// anything unrecognized is simply not structural.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let lexed = lexer::lex(text);
        let toks = lexed.toks;
        let n_lines = text.lines().count().max(1);

        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }

        // Brace partners.
        let mut brace_match = vec![None; toks.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != Kind::Punct {
                continue;
            }
            match &text[t.lo as usize..t.hi as usize] {
                "{" => stack.push(i),
                "}" => {
                    if let Some(open) = stack.pop() {
                        brace_match[open] = Some(i);
                        brace_match[i] = Some(open);
                    }
                }
                _ => {}
            }
        }

        let mut sf = SourceFile {
            path: path.replace('\\', "/"),
            text: text.to_string(),
            toks,
            brace_match,
            fns: Vec::new(),
            directives: Vec::new(),
            test_lines: vec![false; n_lines],
            line_starts,
        };

        sf.mark_test_regions();
        let impls = sf.find_impls();
        sf.find_fns(&impls);

        for c in &lexed.comments {
            if let Some(d) = parse_directive(&sf.text[c.lo as usize..c.hi as usize], c.line) {
                sf.directives.push(d);
            }
        }
        sf
    }

    /// Mark every line covered by a `#[cfg(test)]`-gated item, from the
    /// attribute line through the item's closing `}` (or its `;` when the
    /// item has no body), structurally: the attribute is the token run
    /// `# [ cfg ( test ) ]`.
    fn mark_test_regions(&mut self) {
        let n = self.toks.len();
        let mut i = 0;
        while i < n {
            if !(self.is_punct(i, "#")
                && i + 6 < n
                && self.is_punct(i + 1, "[")
                && self.is_ident(i + 2, "cfg")
                && self.is_punct(i + 3, "(")
                && self.is_ident(i + 4, "test")
                && self.is_punct(i + 5, ")")
                && self.is_punct(i + 6, "]"))
            {
                i += 1;
                continue;
            }
            let start_line = self.toks[i].line;
            let mut end_line = start_line;
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i + 7;
            while j < n {
                let t = self.toks[j];
                end_line = t.line;
                if t.kind == Kind::Punct {
                    match self.tok_text(j) {
                        "{" => {
                            depth += 1;
                            opened = true;
                        }
                        "}" => {
                            depth -= 1;
                            if opened && depth == 0 {
                                break;
                            }
                        }
                        ";" if !opened && depth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            for l in start_line..=end_line {
                if let Some(slot) = self.test_lines.get_mut(l as usize - 1) {
                    *slot = true;
                }
            }
            i = j + 1;
        }
    }

    /// Locate `impl` blocks and the type name their methods hang off:
    /// the last path ident before the body at angle-bracket depth 0,
    /// taken after `for` when present (`impl Trait for Type`), stopping
    /// at a `where` clause.
    fn find_impls(&self) -> Vec<(usize, usize, String)> {
        let mut out = Vec::new();
        for i in 0..self.toks.len() {
            if !self.is_ident(i, "impl") {
                continue;
            }
            let mut angle: i64 = 0;
            let mut name: Option<String> = None;
            let mut j = i + 1;
            while j < self.toks.len() {
                let t = self.toks[j];
                let s = self.tok_text(j);
                if t.kind == Kind::Punct {
                    match s {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "<<" => angle += 2,
                        ">>" => angle -= 2,
                        "{" if angle <= 0 => break,
                        ";" => break, // `impl Foo;`-like degenerate; bail
                        _ => {}
                    }
                } else if t.kind == Kind::Ident && angle <= 0 {
                    match s {
                        "for" => name = None,
                        "where" => {
                            // the type is settled; skip to the body
                            while j < self.toks.len() && !self.is_punct(j, "{") {
                                j += 1;
                            }
                            break;
                        }
                        "dyn" | "mut" | "const" | "unsafe" => {}
                        _ => name = Some(s.to_string()),
                    }
                }
                j += 1;
            }
            let (Some(name), true) = (name, j < self.toks.len()) else {
                continue;
            };
            if let Some(close) = self.brace_match[j] {
                out.push((j, close, name));
            }
        }
        out
    }

    fn find_fns(&mut self, impls: &[(usize, usize, String)]) {
        let n = self.toks.len();
        let mut fns = Vec::new();
        for i in 0..n {
            if !self.is_ident(i, "fn") || i + 1 >= n || self.toks[i + 1].kind != Kind::Ident {
                continue;
            }
            let name = self
                .tok_text(i + 1)
                .strip_prefix("r#")
                .unwrap_or(self.tok_text(i + 1))
                .to_string();
            // Find the body `{` (or a terminating `;`) at paren/bracket
            // depth 0 — `;` inside `[u8; 2]` or a default expression must
            // not end the signature.
            let mut depth: i64 = 0;
            let mut body = None;
            let mut j = i + 2;
            while j < n {
                if self.toks[j].kind == Kind::Punct {
                    match self.tok_text(j) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            if let Some(close) = self.brace_match[j] {
                                body = Some((j, close));
                            }
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            // Innermost enclosing impl block.
            let qual = impls
                .iter()
                .filter(|&&(open, close, _)| open < i && i < close)
                .min_by_key(|&&(open, close, _)| close - open)
                .map(|(_, _, name)| name.clone());
            let line = self.toks[i].line;
            fns.push(FnDef {
                name,
                qual,
                line,
                fn_tok: i,
                body,
                is_test: self.is_test_line(line),
            });
        }
        self.fns = fns;
    }
}

/// Parse one line comment into a directive, if it carries one. The
/// accepted form is `nfv-lint: allow(a, b)` with a ` -- reason` trailer
/// (optional here; `stale-allow` flags a directive without one).
fn parse_directive(comment: &str, line: u32) -> Option<Directive> {
    let pos = comment.find("nfv-lint:")?;
    let rest = comment[pos + "nfv-lint:".len()..].trim_start();
    let args = rest
        .strip_prefix("allow(")
        .and_then(|r| r.split_once(')'))?;
    let (inner, trailer) = args;
    let rules: Vec<String> = inner
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let t = trailer.trim_start();
    let has_reason = t.strip_prefix("--").is_some_and(|r| !r.trim().is_empty());
    Some(Directive {
        line,
        rules,
        has_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs", src)
    }

    #[test]
    fn finds_fns_with_quals() {
        let sf = parse(
            "fn free() {}\n\
             impl Foo {\n    fn method(&self) { nested(); }\n}\n\
             impl fmt::Display for Bar {\n    fn fmt(&self) {}\n}\n\
             impl<T: Clone> Gen<T> {\n    fn g(&self) {}\n}\n",
        );
        let got: Vec<(String, Option<String>)> = sf
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.qual.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("free".into(), None),
                ("method".into(), Some("Foo".into())),
                ("fmt".into(), Some("Bar".into())),
                ("g".into(), Some("Gen".into())),
            ]
        );
    }

    #[test]
    fn fn_body_spans_and_bodyless() {
        let sf = parse("trait T {\n    fn sig(&self) -> [u8; 2];\n    fn with(&self) {}\n}\n");
        assert_eq!(sf.fns.len(), 2);
        assert!(sf.fns[0].body.is_none());
        let (open, close) = sf.fns[1].body.unwrap();
        assert!(sf.is_punct(open, "{") && sf.is_punct(close, "}"));
    }

    #[test]
    fn cfg_test_region_masks_lines() {
        let sf =
            parse("fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n");
        assert!(!sf.is_test_line(1));
        assert!(sf.is_test_line(2));
        assert!(sf.is_test_line(3));
        assert!(sf.is_test_line(4));
        assert!(sf.is_test_line(5));
        assert!(!sf.is_test_line(6));
        assert!(sf.fns.iter().any(|f| f.name == "t" && f.is_test));
        assert!(sf.fns.iter().any(|f| f.name == "real" && !f.is_test));
    }

    #[test]
    fn cfg_test_bodyless_item() {
        let sf = parse("#[cfg(test)]\nuse foo::Bar;\nuse baz::Qux;\n");
        assert!(sf.is_test_line(1) && sf.is_test_line(2));
        assert!(!sf.is_test_line(3));
    }

    #[test]
    fn cfg_any_is_not_cfg_test() {
        let sf = parse("#[cfg(any(test, feature = \"x\"))]\nfn f() {}\n");
        assert!(!sf.is_test_line(1) && !sf.is_test_line(2));
    }

    #[test]
    fn directives_parse_with_reasons() {
        let sf = parse(
            "let a = 1; // nfv-lint: allow(hash-map) -- fixture\n\
             // nfv-lint: allow(wall-clock, thread-spawn)\n\
             // plain comment\n",
        );
        assert_eq!(sf.directives.len(), 2);
        assert_eq!(sf.directives[0].rules, vec!["hash-map"]);
        assert!(sf.directives[0].has_reason);
        assert_eq!(sf.directives[1].rules, vec!["wall-clock", "thread-spawn"]);
        assert!(!sf.directives[1].has_reason);
    }

    #[test]
    fn snippets_are_trimmed() {
        let sf = parse("fn a() {\n    let x = 1;\n}\n");
        assert_eq!(sf.line_snippet(2), "let x = 1;");
    }

    #[test]
    fn where_clause_does_not_pollute_impl_name() {
        let sf = parse("impl<T> Holder<T> where T: Clone {\n    fn h(&self) {}\n}\n");
        assert_eq!(sf.fns[0].qual.as_deref(), Some("Holder"));
    }
}
