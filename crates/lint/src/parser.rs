//! Item-level parser over the token stream.
//!
//! The BX010–BX014 rules need more than tokens: they need to know *which
//! function* a token belongs to, what type an `impl` block is for, what
//! type each struct field has, and what a function's signature looks like.
//! This module extracts exactly that — a flat list of [`FnItem`]s per file
//! plus the alias and field tables — without attempting to be a full Rust
//! parser. Macro-generated items are invisible; the soundness caveats are
//! documented in DESIGN.md under "call-graph soundness".

use crate::lexer::TokenKind;
use crate::model::SourceFile;

/// One parsed function (free function, inherent/trait method, or trait
/// default method) with its signature and body extent.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// `Some(TypeName)` when declared inside `impl TypeName` (inherent or
    /// trait impl) or inside `trait TypeName` (default methods).
    pub self_ty: Option<String>,
    /// The trait name for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// Crate the function lives in (`boxes-pager`-style name derived from
    /// the `crates/<dir>/src` path, or `xtask`).
    pub crate_name: String,
    /// Index of the containing [`SourceFile`] in the analysis file list.
    pub file_idx: usize,
    /// Workspace-relative path (denormalized from the file for reporting).
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Number of non-`self` parameters.
    pub arity: usize,
    /// Base type ident of each non-`self` parameter, when recoverable
    /// (`&mut FileStore` → `FileStore`, `Vec<u8>` → `Vec`).
    pub param_names: Vec<String>,
    /// Parameter base types, parallel to `param_names` (empty string when
    /// the type could not be reduced to a base ident).
    pub param_types: Vec<String>,
    /// Token texts of the return type (empty for `()`).
    pub ret_tokens: Vec<String>,
    /// Significant-token range `(open_brace, close_brace)` of the body;
    /// `None` for bodiless trait/extern declarations.
    pub body: Option<(usize, usize)>,
    /// Sig-index of the `fn` keyword.
    pub fn_si: usize,
    /// Declared inside test-only code.
    pub in_test: bool,
}

impl FnItem {
    /// Qualified display name: `crate::Type::name` or `crate::name`.
    pub fn qual(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{}::{}::{}", self.crate_name, t, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// Everything the item parser extracts from one file.
#[derive(Default)]
pub struct ParsedFile {
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// `type Alias = …;` items mapping the alias name to the base idents of
    /// its right-hand side (e.g. `SharedPager` → `[Rc, Pager]`), used by the
    /// call graph to see through newtype-ish aliases.
    pub aliases: Vec<(String, Vec<String>)>,
    /// `(container, field, base_type)` for every named struct field — lets
    /// the call graph type `self.field.method()` receivers.
    pub fields: Vec<(String, String, String)>,
}

/// Derive the crate name from a workspace-relative path:
/// `crates/pager/src/lib.rs` → `boxes-pager`, `xtask/src/…` → `xtask`,
/// anything else → the first path segment.
pub fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => match parts.next() {
            Some(dir) => format!("boxes-{dir}"),
            None => "crates".to_string(),
        },
        Some(first) => first.to_string(),
        None => String::new(),
    }
}

/// Parse one file into functions, type aliases, and struct fields.
pub fn parse_file(file: &SourceFile, file_idx: usize) -> ParsedFile {
    let mut out = ParsedFile::default();
    let crate_name = crate_of(&file.path);
    // Work stack of (range, self_ty, trait_name) item-level regions.
    let mut work: Vec<(usize, usize, Option<String>, Option<String>)> =
        vec![(0, file.slen(), None, None)];
    while let Some((start, end, self_ty, trait_name)) = work.pop() {
        let mut i = start;
        let mut header: Vec<usize> = Vec::new();
        while i < end {
            match file.stext(i) {
                "#" => {
                    // Outer/inner attribute: skip the whole group.
                    let open = if file.stext(i + 1) == "!" {
                        i + 2
                    } else {
                        i + 1
                    };
                    if file.stext(open) == "[" {
                        i = file.close_of.get(open).copied().flatten().unwrap_or(open) + 1;
                    } else {
                        i += 1;
                    }
                }
                "{" => {
                    let close = file
                        .close_of
                        .get(i)
                        .copied()
                        .flatten()
                        .unwrap_or(end.saturating_sub(1));
                    handle_braced_item(
                        file,
                        file_idx,
                        &crate_name,
                        &header,
                        i,
                        close,
                        &self_ty,
                        &trait_name,
                        &mut out,
                        &mut work,
                    );
                    i = close + 1;
                    header.clear();
                }
                ";" => {
                    handle_terminated_item(file, &header, &self_ty, &mut out);
                    i += 1;
                    header.clear();
                }
                "(" | "[" => {
                    header.push(i);
                    i = file.close_of.get(i).copied().flatten().unwrap_or(i) + 1;
                }
                "=" => {
                    // `type X = …;`, `static X: T = …;`, associated consts:
                    // keep collecting so the RHS reaches the handlers, but
                    // brace-initialized statics (`= Foo { … };`) must not be
                    // misread as an item body.
                    header.push(i);
                    i += 1;
                    while i < end && file.stext(i) != ";" {
                        if matches!(file.stext(i), "{" | "(" | "[") {
                            header.push(i);
                            i = file.close_of.get(i).copied().flatten().unwrap_or(i) + 1;
                        } else {
                            header.push(i);
                            i += 1;
                        }
                    }
                }
                "}" => {
                    i += 1;
                    header.clear();
                }
                _ => {
                    header.push(i);
                    i += 1;
                }
            }
        }
    }
    out.fns.sort_by_key(|f| f.fn_si);
    out
}

/// Texts of a header's token indices.
fn texts<'f>(file: &'f SourceFile, header: &[usize]) -> Vec<&'f str> {
    header.iter().map(|&si| file.stext(si)).collect()
}

#[allow(clippy::too_many_arguments)]
fn handle_braced_item(
    file: &SourceFile,
    file_idx: usize,
    crate_name: &str,
    header: &[usize],
    open: usize,
    close: usize,
    self_ty: &Option<String>,
    trait_name: &Option<String>,
    out: &mut ParsedFile,
    work: &mut Vec<(usize, usize, Option<String>, Option<String>)>,
) {
    let t = texts(file, header);
    if let Some(fn_pos) = t.iter().position(|x| *x == "fn") {
        if let Some(item) = parse_fn(
            file,
            file_idx,
            crate_name,
            header,
            fn_pos,
            Some((open, close)),
            self_ty,
            trait_name,
        ) {
            out.fns.push(item);
        }
        return; // function bodies are walked by the call-graph pass
    }
    if t.contains(&"impl") {
        let (imp_trait, imp_ty) = impl_names(&t);
        work.push((open + 1, close, imp_ty, imp_trait));
        return;
    }
    if t.contains(&"trait") {
        let name = ident_after(&t, "trait");
        work.push((open + 1, close, name.map(str::to_string), None));
        return;
    }
    if t.contains(&"mod") {
        work.push((open + 1, close, None, None));
        return;
    }
    if t.iter().any(|x| matches!(*x, "struct" | "enum" | "union")) {
        let container = t
            .iter()
            .position(|x| matches!(*x, "struct" | "enum" | "union"))
            .and_then(|p| t.get(p + 1))
            .copied()
            .unwrap_or("?");
        collect_fields(file, container, open, close, out);
    }
}

/// Bodiless item ending in `;`: the call graph only needs type aliases.
fn handle_terminated_item(
    file: &SourceFile,
    header: &[usize],
    self_ty: &Option<String>,
    out: &mut ParsedFile,
) {
    let t = texts(file, header);
    if t.contains(&"fn") || t.contains(&"static") || !t.contains(&"type") || self_ty.is_some() {
        return;
    }
    // `type Alias = RHS;` — record the alias's base idents.
    let Some(name) = ident_after(&t, "type") else {
        return;
    };
    let rhs: Vec<String> = match t.iter().position(|x| *x == "=") {
        Some(p) => t[p + 1..]
            .iter()
            .filter(|x| {
                x.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
            })
            .map(|x| x.to_string())
            .collect(),
        None => Vec::new(),
    };
    out.aliases.push((name.to_string(), rhs));
}

/// First ident token text following `kw` in a header text list.
fn ident_after<'t>(t: &[&'t str], kw: &str) -> Option<&'t str> {
    let p = t.iter().position(|x| *x == kw)?;
    t[p + 1..]
        .iter()
        .find(|x| {
            x.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
        .copied()
}

/// Extract `(trait_name, self_type)` from an `impl` header.
///
/// Handles `impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo`, and
/// `impl fmt::Display for Foo` (path segments reduce to their last ident).
fn impl_names(t: &[&str]) -> (Option<String>, Option<String>) {
    let Some(impl_pos) = t.iter().position(|x| *x == "impl") else {
        return (None, None);
    };
    let mut rest = &t[impl_pos + 1..];
    // Skip the generic parameter list if present.
    if rest.first() == Some(&"<") {
        let mut depth = 0i32;
        let mut k = 0;
        while k < rest.len() {
            match rest[k] {
                "<" => depth += 1,
                ">" if k == 0 || rest[k - 1] != "-" => {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        rest = &rest[k..];
    }
    let for_pos = angle_depth_position(rest, "for");
    match for_pos {
        Some(p) => (
            last_path_ident(&rest[..p]).map(str::to_string),
            last_path_ident(&rest[p + 1..]).map(str::to_string),
        ),
        None => (None, last_path_ident(rest).map(str::to_string)),
    }
}

/// Position of `needle` at angle-bracket depth 0.
fn angle_depth_position(t: &[&str], needle: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, x) in t.iter().enumerate() {
        match *x {
            "<" => depth += 1,
            ">" if k == 0 || t[k - 1] != "-" => depth -= 1,
            w if w == needle && depth <= 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// Last ident of a (possibly path-qualified) type, before generic args:
/// `fmt::Display` → `Display`, `Foo<T>` → `Foo`.
fn last_path_ident<'t>(t: &[&'t str]) -> Option<&'t str> {
    let mut best: Option<&str> = None;
    for x in t {
        match *x {
            "<" => break,
            w if w
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
                && !matches!(w, "for" | "where" | "dyn" | "impl") =>
            {
                best = Some(w);
            }
            _ => {}
        }
    }
    best
}

/// Scan a struct/enum body and record each named field's base type.
fn collect_fields(
    file: &SourceFile,
    container: &str,
    open: usize,
    close: usize,
    out: &mut ParsedFile,
) {
    // Split the body into fields at top-level commas (angle-bracket depth 0,
    // so `BTreeMap<K, V>` stays one field).
    let mut field_start = open + 1;
    let mut k = open + 1;
    let mut angle = 0i32;
    while k <= close {
        if matches!(file.stext(k), "(" | "[" | "{") && k < close {
            k = file.close_of.get(k).copied().flatten().unwrap_or(k) + 1;
            continue;
        }
        match file.stext(k) {
            "<" => angle += 1,
            ">" if file.stext(k.wrapping_sub(1)) != "-" => angle -= 1,
            _ => {}
        }
        let end_of_field = k == close || (file.stext(k) == "," && angle <= 0);
        if end_of_field {
            scan_one_field(file, container, field_start, k, out);
            field_start = k + 1;
        }
        k += 1;
    }
}

fn scan_one_field(
    file: &SourceFile,
    container: &str,
    start: usize,
    end: usize,
    out: &mut ParsedFile,
) {
    // Field name: last ident before a `:` (tuple fields have none).
    let mut name = String::new();
    let mut colon = None;
    for k in start..end {
        let t = file.stext(k);
        if t == ":" {
            colon = Some(k);
            break;
        }
        if file.stok(k).is_some_and(|tk| tk.kind == TokenKind::Ident) && t != "pub" {
            name = t.to_string();
        }
    }
    if let (Some(c), false) = (colon, name.is_empty()) {
        let ty = base_type_ident(file, c + 1, end);
        if !ty.is_empty() {
            out.fields.push((container.to_string(), name, ty));
        }
    }
}

/// Parse a function signature from its header tokens.
#[allow(clippy::too_many_arguments)]
fn parse_fn(
    file: &SourceFile,
    file_idx: usize,
    crate_name: &str,
    header: &[usize],
    fn_pos: usize,
    body: Option<(usize, usize)>,
    self_ty: &Option<String>,
    trait_name: &Option<String>,
) -> Option<FnItem> {
    let t = texts(file, header);
    let name = t.get(fn_pos + 1)?.to_string();
    if !name
        .chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        return None;
    }
    let fn_si = header[fn_pos];
    // The parameter list is the first paren group after the name; the walker
    // stored its opener in the header (groups are skipped wholesale).
    let paren = header
        .iter()
        .position(|&si| si > header[fn_pos + 1] && file.stext(si) == "(")?;
    let open = header[paren];
    let close = file.close_of.get(open).copied().flatten()?;
    let (has_self, param_names, param_types, arity) = parse_params(file, open, close);
    // Return tokens: header entries after the param group opener (the walker
    // skipped the group's interior, so these are exactly the `-> …` tokens).
    let mut ret_tokens = Vec::new();
    for &si in &header[paren + 1..] {
        let x = file.stext(si);
        if x == "where" {
            break;
        }
        // The leading `->` arrow tokens are kept; consumers look for type
        // idents and ignore punctuation.
        ret_tokens.push(x.to_string());
    }
    Some(FnItem {
        name,
        self_ty: self_ty.clone(),
        trait_name: trait_name.clone(),
        crate_name: crate_name.to_string(),
        file_idx,
        path: file.path.clone(),
        line: file.stok(fn_si).map(|tk| tk.line).unwrap_or(0),
        has_self,
        arity,
        param_names,
        param_types,
        ret_tokens,
        body,
        fn_si,
        in_test: file.in_test.get(fn_si).copied().unwrap_or(false),
    })
}

/// Parse a parameter list `(…)`: `(has_self, names, base_types, arity)`.
fn parse_params(
    file: &SourceFile,
    open: usize,
    close: usize,
) -> (bool, Vec<String>, Vec<String>, usize) {
    let mut has_self = false;
    let mut names = Vec::new();
    let mut types = Vec::new();
    let mut start = open + 1;
    let mut k = open + 1;
    while k <= close {
        if matches!(file.stext(k), "(" | "[" | "{") && k < close {
            k = file.close_of.get(k).copied().flatten().unwrap_or(k) + 1;
            continue;
        }
        let boundary = k == close || is_top_level_comma(file, k, open);
        if boundary {
            if k > start {
                let colon = (start..k).find(|&j| file.stext(j) == ":");
                let is_self_param = (start..colon.unwrap_or(k)).any(|j| file.stext(j) == "self");
                if is_self_param {
                    has_self = true;
                } else {
                    let name = (start..colon.unwrap_or(k))
                        .rev()
                        .map(|j| file.stext(j))
                        .find(|x| {
                            x.chars()
                                .next()
                                .is_some_and(|c| c.is_alphabetic() || c == '_')
                        })
                        .unwrap_or("_")
                        .to_string();
                    let ty = colon
                        .map(|c| base_type_ident(file, c + 1, k))
                        .unwrap_or_default();
                    names.push(name);
                    types.push(ty);
                }
            }
            start = k + 1;
        }
        k += 1;
    }
    let arity = names.len();
    (has_self, names, types, arity)
}

/// Is the token at `k` a comma at angle-bracket depth 0 relative to the
/// parameter group opened at `open`? (`Fn(u8, u8)` interiors were skipped by
/// the caller; this guards `Result<T, E>` commas.)
fn is_top_level_comma(file: &SourceFile, k: usize, open: usize) -> bool {
    if file.stext(k) != "," {
        return false;
    }
    let mut depth = 0i32;
    for j in open + 1..k {
        match file.stext(j) {
            "<" => depth += 1,
            ">" if file.stext(j.wrapping_sub(1)) != "-" => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

/// Reduce a type token range to its base ident: the last path-segment ident
/// before the first `<` (skipping `&`, `mut`, lifetimes, `dyn`, `impl`).
fn base_type_ident(file: &SourceFile, start: usize, end: usize) -> String {
    let mut best = String::new();
    for k in start..end {
        let t = file.stext(k);
        if t == "<" {
            break;
        }
        let tok_kind = file.stok(k).map(|tk| tk.kind);
        if tok_kind == Some(TokenKind::Ident)
            && !matches!(t, "mut" | "dyn" | "impl" | "const" | "ref")
        {
            best = t.to_string();
        }
        if tok_kind == Some(TokenKind::Lifetime) {
            continue;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        parse_file(&f, 0)
    }

    #[test]
    fn free_fns_and_methods() {
        let src = "pub fn free(a: u32, b: &mut FileStore) -> u64 { 0 }\n\
                   impl Pager { fn read(&self, id: BlockId) -> Vec<u8> { v } }\n\
                   impl Journal for Wal { fn begin(&mut self) {} }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].name, "free");
        assert_eq!(p.fns[0].arity, 2);
        assert_eq!(p.fns[0].param_types, vec!["u32", "FileStore"]);
        assert_eq!(p.fns[1].self_ty.as_deref(), Some("Pager"));
        assert!(p.fns[1].has_self);
        assert_eq!(p.fns[1].arity, 1);
        assert_eq!(p.fns[2].self_ty.as_deref(), Some("Wal"));
        assert_eq!(p.fns[2].trait_name.as_deref(), Some("Journal"));
    }

    #[test]
    fn generic_impls_and_paths() {
        let src = "impl<'a, T: Ord> Tree<'a, T> { fn get(&self) {} }\n\
                   impl fmt::Display for Label { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) } }";
        let p = parse(src);
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Tree"));
        assert_eq!(p.fns[1].self_ty.as_deref(), Some("Label"));
        assert_eq!(p.fns[1].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn fields_and_aliases() {
        let src = "pub struct Pager { pool: Mutex<Pool>, store: FileStore }\n\
                   static COUNTER: AtomicU64 = AtomicU64::new(0);\n\
                   pub type SharedPager = Arc<Pager>;";
        let p = parse(src);
        assert!(p.fields.contains(&(
            "Pager".to_string(),
            "store".to_string(),
            "FileStore".to_string()
        )));
        assert!(p
            .aliases
            .iter()
            .any(|(n, rhs)| n == "SharedPager" && rhs.contains(&"Pager".to_string())));
        assert_eq!(p.aliases.len(), 1, "a static is not an alias");
    }

    #[test]
    fn trait_default_methods_get_trait_self_ty() {
        let src = "pub trait Scheme { fn len(&self) -> u64; fn is_empty(&self) -> bool { self.len() == 0 } }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1); // only the default method has a body
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Scheme"));
    }

    #[test]
    fn test_code_is_marked() {
        let src = "#[cfg(test)]\nmod tests { fn helper() {} }\nfn live() {}";
        let p = parse(src);
        let h = p.fns.iter().find(|f| f.name == "helper").expect("helper");
        let l = p.fns.iter().find(|f| f.name == "live").expect("live");
        assert!(h.in_test);
        assert!(!l.in_test);
    }
}
