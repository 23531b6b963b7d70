//! Lightweight source model over the token stream.
//!
//! Rules do not get an AST — they get a [`SourceFile`]: the full token
//! stream, a *significant* (comment-free) view of it, bracket matching,
//! a per-token test-code mask (`#[cfg(test)]` / `#[test]` regions), and an
//! item-context map that says which tokens sit at item-declaration level and
//! under what kind of scope (module, inherent impl, trait impl, …). That is
//! enough to express every BX rule precisely without type information.

use crate::lexer::{lex, Token, TokenKind};

/// What kind of scope an item-level token sits in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// File top level or a `mod` body.
    Module,
    /// An `impl Type { … }` block (no trait).
    InherentImpl,
    /// An `impl Trait for Type { … }` block.
    TraitImpl,
    /// A `trait { … }` body.
    Trait,
    /// A `struct`/`enum`/`union` body (field declarations).
    DataBody,
}

/// A lexed source file plus the derived structure the rules consume.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The raw source text.
    pub text: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-comment) tokens.
    pub sig: Vec<usize>,
    /// Per significant token: does it sit inside test-only code?
    pub in_test: Vec<bool>,
    /// Per significant token: matching closer for `(`/`[`/`{`.
    pub close_of: Vec<Option<usize>>,
    /// Per significant token: matching opener for `)`/`]`/`}`.
    pub open_of: Vec<Option<usize>>,
    /// Per significant token: `Some(scope)` when at item-declaration level.
    pub item_ctx: Vec<Option<Scope>>,
    /// Byte offset of each line start (line `n` is `line_starts[n-1]`).
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Lex and analyze one source file.
    pub fn parse(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        let path = path.into();
        let text = text.into();
        let tokens = lex(&text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut file = SourceFile {
            path,
            text,
            tokens,
            in_test: vec![false; sig.len()],
            close_of: vec![None; sig.len()],
            open_of: vec![None; sig.len()],
            item_ctx: vec![None; sig.len()],
            line_starts: Vec::new(),
            sig,
        };
        file.line_starts = std::iter::once(0)
            .chain(
                file.text
                    .bytes()
                    .enumerate()
                    .filter(|(_, b)| *b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        file.match_brackets();
        file.mark_test_regions();
        file.map_item_contexts();
        file
    }

    /// The significant token at sig-index `si`.
    pub fn stok(&self, si: usize) -> Option<&Token> {
        self.sig.get(si).and_then(|&raw| self.tokens.get(raw))
    }

    /// Text of the significant token at sig-index `si` (empty when out of
    /// range).
    pub fn stext(&self, si: usize) -> &str {
        self.stok(si).map(|t| t.text(&self.text)).unwrap_or("")
    }

    /// Number of significant tokens.
    pub fn slen(&self) -> usize {
        self.sig.len()
    }

    /// The trimmed source line containing significant token `si`.
    pub fn line_snippet(&self, si: usize) -> &str {
        let Some(tok) = self.stok(si) else { return "" };
        let start = self
            .line_starts
            .get(tok.line.saturating_sub(1))
            .copied()
            .unwrap_or(0);
        let end = self
            .line_starts
            .get(tok.line)
            .copied()
            .unwrap_or(self.text.len());
        self.text.get(start..end).unwrap_or("").trim()
    }

    fn match_brackets(&mut self) {
        let mut stack: Vec<(u8, usize)> = Vec::new();
        for si in 0..self.sig.len() {
            let t = self.stext(si);
            let Some(&b) = t.as_bytes().first() else {
                continue;
            };
            if t.len() != 1 {
                continue;
            }
            match b {
                b'(' | b'[' | b'{' => stack.push((b, si)),
                b')' | b']' | b'}' => {
                    let expect = match b {
                        b')' => b'(',
                        b']' => b'[',
                        _ => b'{',
                    };
                    // Pop through mismatches so one stray bracket does not
                    // desynchronize the rest of the file.
                    while let Some((open_b, open_si)) = stack.pop() {
                        if open_b == expect {
                            self.close_of[open_si] = Some(si);
                            self.open_of[si] = Some(open_si);
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// An attribute group starting at sig-index `si` (which must be `#`):
    /// returns `(close_index, idents_inside)` of the `[...]` group.
    fn attr_group(&self, si: usize) -> Option<(usize, Vec<String>)> {
        if self.stext(si) != "#" {
            return None;
        }
        let mut open = si + 1;
        if self.stext(open) == "!" {
            open += 1;
        }
        if self.stext(open) != "[" {
            return None;
        }
        let close = self.close_of.get(open).copied().flatten()?;
        let mut idents = Vec::new();
        for k in open + 1..close {
            if let Some(t) = self.stok(k) {
                if t.kind == TokenKind::Ident {
                    idents.push(t.text(&self.text).to_string());
                }
            }
        }
        Some((close, idents))
    }

    /// Mark `#[test]`, `#[cfg(test)]`-style attributed items (and everything
    /// inside them) as test code. Files under a `tests/` directory are test
    /// code in their entirety.
    fn mark_test_regions(&mut self) {
        if self.path.starts_with("tests/") || self.path.contains("/tests/") {
            self.in_test.iter_mut().for_each(|x| *x = true);
            return;
        }
        let mut si = 0;
        while si < self.slen() {
            let Some((close, idents)) = self.attr_group(si) else {
                si += 1;
                continue;
            };
            let testish = idents
                .iter()
                .any(|t| t == "test" || t == "should_panic" || t == "bench")
                && !idents.iter().any(|t| t == "not");
            if !testish {
                si = close + 1;
                continue;
            }
            // Skip any further attributes between this one and the item.
            let mut j = close + 1;
            while let Some((c, _)) = self.attr_group(j) {
                j = c + 1;
            }
            // The item extends to its body's closing brace, or to the next
            // `;` for braceless items. Bracket groups in the header (fn
            // params, generics as `[]`? no — only () and []) are skipped.
            let mut k = j;
            let mut item_end = self.slen().saturating_sub(1);
            while k < self.slen() {
                match self.stext(k) {
                    "{" => {
                        item_end = self.close_of.get(k).copied().flatten().unwrap_or(k);
                        break;
                    }
                    ";" => {
                        item_end = k;
                        break;
                    }
                    "(" | "[" => {
                        k = self.close_of.get(k).copied().flatten().unwrap_or(k) + 1;
                    }
                    _ => k += 1,
                }
            }
            for m in si..=item_end.min(self.slen().saturating_sub(1)) {
                self.in_test[m] = true;
            }
            si = item_end + 1;
        }
    }

    /// Classify the scope a `{` opens, from the header tokens since the last
    /// statement boundary.
    fn classify_header(&self, header: &[usize]) -> Option<Scope> {
        let texts: Vec<&str> = header.iter().map(|&si| self.stext(si)).collect();
        if texts.contains(&"fn") {
            return None; // function body: opaque to item rules
        }
        if texts.contains(&"impl") {
            // `for` at angle-bracket depth 0 distinguishes a trait impl;
            // `->` must not count its `>` against the depth.
            let mut depth = 0i32;
            for w in 0..texts.len() {
                match texts[w] {
                    "<" => depth += 1,
                    ">" if w == 0 || texts[w - 1] != "-" => depth -= 1,
                    "for" if depth <= 0 => return Some(Scope::TraitImpl),
                    _ => {}
                }
            }
            return Some(Scope::InherentImpl);
        }
        if texts.contains(&"mod") {
            return Some(Scope::Module);
        }
        if texts.contains(&"trait") {
            return Some(Scope::Trait);
        }
        if texts
            .iter()
            .any(|t| *t == "struct" || *t == "enum" || *t == "union")
        {
            return Some(Scope::DataBody);
        }
        None // match arms, plain blocks, initializers, macro bodies, …
    }

    /// Walk the file, recording for every token whether it sits at
    /// item-declaration level and under which scope. Function bodies and
    /// unclassifiable braces are opaque.
    fn map_item_contexts(&mut self) {
        let mut ctx = vec![None; self.slen()];
        let mut work: Vec<(usize, usize, Scope)> = vec![(0, self.slen(), Scope::Module)];
        while let Some((mut i, end, scope)) = work.pop() {
            let mut header: Vec<usize> = Vec::new();
            while i < end {
                match self.stext(i) {
                    "{" => {
                        let close = self
                            .close_of
                            .get(i)
                            .copied()
                            .flatten()
                            .unwrap_or(end.saturating_sub(1));
                        if let Some(inner) = self.classify_header(&header) {
                            work.push((i + 1, close.min(end), inner));
                        }
                        i = close + 1;
                        header.clear();
                    }
                    ";" | "}" => {
                        i += 1;
                        header.clear();
                    }
                    "(" | "[" => {
                        // Bracket groups in headers (fn params, attr args,
                        // array types) carry no item declarations.
                        header.push(i);
                        i = self.close_of.get(i).copied().flatten().unwrap_or(i) + 1;
                    }
                    _ => {
                        if let Some(slot) = ctx.get_mut(i) {
                            *slot = Some(scope);
                        }
                        header.push(i);
                        i += 1;
                    }
                }
            }
        }
        self.item_ctx = ctx;
    }

    /// The lints named by the non-test `#[expect(…)]` and `#![expect(…)]`
    /// attributes in this file, one entry per named lint, in source order:
    /// `#[expect(clippy::panic, reason = "…")]` yields `clippy::panic`, and
    /// `#[expect(a, b, reason = "…")]` yields `a` and `b`.
    pub fn expected_lints(&self) -> Vec<String> {
        let mut lints = Vec::new();
        for si in 0..self.slen() {
            // `#[expect(` or the inner form `#![expect(`.
            let bracket = if self.stext(si + 1) == "!" {
                si + 2
            } else {
                si + 1
            };
            if self.in_test[si]
                || self.stext(si) != "#"
                || self.stext(bracket) != "["
                || self.stext(bracket + 1) != "expect"
                || self.stext(bracket + 2) != "("
            {
                continue;
            }
            let Some(close) = self.close_of[bracket + 2] else {
                continue;
            };
            // Top-level comma-separated entries, minus the `reason = …` one.
            let mut entry: Vec<&str> = Vec::new();
            let mut k = bracket + 3;
            while k <= close {
                if k == close || self.stext(k) == "," {
                    if !entry.is_empty() && entry[0] != "reason" {
                        lints.push(entry.concat());
                    }
                    entry.clear();
                } else if matches!(self.stext(k), "(" | "[" | "{") {
                    k = self.close_of[k].unwrap_or(k);
                } else {
                    entry.push(self.stext(k));
                }
                k += 1;
            }
        }
        lints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() { x.unwrap(); }\n}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let unwrap_si = (0..f.slen()).find(|&i| f.stext(i) == "unwrap");
        let live_si = (0..f.slen()).find(|&i| f.stext(i) == "live");
        assert!(f.in_test[unwrap_si.expect("unwrap token present")]);
        assert!(!f.in_test[live_si.expect("live token present")]);
    }

    #[test]
    fn trait_impl_vs_inherent() {
        let src = "impl Foo { fn a() {} }\nimpl Bar for Foo { fn b() {} }";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let mut scopes = Vec::new();
        for i in 0..f.slen() {
            if f.stext(i) == "fn" {
                scopes.push(f.item_ctx[i]);
            }
        }
        assert_eq!(
            scopes,
            vec![Some(Scope::InherentImpl), Some(Scope::TraitImpl)]
        );
    }

    #[test]
    fn fn_bodies_are_opaque() {
        let src = "fn outer() { pub fn not_an_item() {} }";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        for i in 0..f.slen() {
            if f.stext(i) == "pub" {
                assert_eq!(f.item_ctx[i], None);
            }
        }
    }

    #[test]
    fn expected_lints_are_named_outside_tests() {
        let src = "#[expect(clippy::panic, reason = \"contract\")]\nfn a() {}\n\
                   fn b() {\n  #[expect(clippy::as_conversions, unused_must_use, reason = \"x\")]\n  f();\n}\n\
                   #[allow(clippy::panic)]\nfn c() {}\n\
                   #[cfg(test)]\nmod tests {\n  #[expect(clippy::unwrap_used, reason = \"t\")]\n  fn d() {}\n}\n";
        assert_eq!(
            SourceFile::parse("crates/x/src/lib.rs", src).expected_lints(),
            ["clippy::panic", "clippy::as_conversions", "unused_must_use"]
        );
    }
}
