//! `sordf_lint` — repo-specific static analysis for the sordf workspace.
//!
//! A dependency-free source analyzer (hand-rolled lexer + lightweight
//! item/expression scanner, no `syn`) enforcing the concurrency and
//! robustness invariants the engine's correctness rests on. Rules have
//! stable IDs, every diagnostic carries `file:line`, and any finding can be
//! waived inline with
//!
//! ```text
//! // sordf-lint: allow(L3) — reason the violation is intentional
//! ```
//!
//! on the offending line or the line directly above (a reason is
//! mandatory; a bare allow is itself reported as `L0`).
//!
//! # Rule catalog
//!
//! | id | check |
//! |----|-------|
//! | L0 | malformed allow / lock-order directives |
//! | L1 | pin discipline: no `.dict()` in a function that used `query_pinned`; no `DictPin` binding held across a write call |
//! | L2 | lock order: every function acquiring a ranked lock declares it via `// lock-order: acquires(...)`; declared levels must be non-decreasing along the call graph (`db_state → dict → pool_shard → disk_write`) |
//! | L3 | panic paths: no `unwrap`/`expect`/`panic!`/`unimplemented!`/`todo!` in non-test engine/storage/columnar/core code |
//! | L4 | std-sync ban: `std::sync::{Mutex, RwLock, Condvar, ...}` are forbidden — use the vendored `parking_lot` shim |
//! | L5 | guard hygiene: structs named `*Guard`/`*Pin`/`*Handle` (and the known handle types) must be `#[must_use]` |
//! | L6 | atomic-ordering audit: every `Ordering::Relaxed`/`Acquire`/… needs an `// ordering:` justification comment in its function |
//! | L7 | durable-write discipline: in the WAL/manifest/page-file write paths an I/O `Result` must not be silently discarded (`let _ = …` or a trailing `.ok();`) |
//! | L8 | page-layout confinement: raw page-word access (`.data[..]` indexing, `for_get`/`for_decode_range`/`for_partition_point`/`compress::choose` calls) is an error outside `compress.rs`/`column.rs` — everything else reads through `Chunk` and the column accessors |
//! | L9 | no blocking I/O under the state lock: a function that declares or performs a `db_state` acquisition must not call the blocking socket primitives (`read_request`/`write_response`/`accept`/`TcpStream::connect`) — one slow peer would stall every writer |

pub mod lexer;

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

use lexer::{lex, Comment, Lexed, Tok, Token};

/// The ranked lock hierarchy, outermost first. An acquisition at level *n*
/// while holding level *m ≥ n* (per the static call-graph approximation)
/// is a violation; the runtime detector in the `parking_lot` shim enforces
/// the same order per lock instance.
pub const LOCK_LEVELS: [&str; 4] = ["db_state", "dict", "pool_shard", "disk_write"];

/// One finding. Ordered by file, then line, then rule for stable output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}:{}: {}", self.rule, self.file, self.line, self.msg)
    }
}

/// Which rules apply to a file (derived from its path, or forced for
/// fixture runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    pub l1: bool,
    pub l2: bool,
    pub l3: bool,
    pub l4: bool,
    pub l5: bool,
    pub l6: bool,
    pub l7: bool,
    pub l8: bool,
    pub l9: bool,
}

impl Scope {
    pub fn all() -> Scope {
        Scope {
            l1: true,
            l2: true,
            l3: true,
            l4: true,
            l5: true,
            l6: true,
            l7: true,
            l8: true,
            l9: true,
        }
    }
}

/// Classify a workspace-relative path. `None` means the file is out of
/// scope entirely (vendored shims, lint fixtures).
pub fn classify(rel: &str) -> Option<Scope> {
    let rel = rel.replace('\\', "/");
    if rel.starts_with("vendor/") || rel.contains("/fixtures/") {
        return None;
    }
    let mut s = Scope {
        // Pin discipline and the std-sync ban hold everywhere, including
        // integration tests and benches — tests are the main *users* of
        // `query_pinned`. Page-layout confinement likewise applies anywhere
        // a pinned page buffer could leak.
        l1: true,
        l4: true,
        l8: true,
        ..Scope::default()
    };
    let in_crate_src = rel.starts_with("crates/") && rel.contains("/src/");
    if in_crate_src || rel == "src/lib.rs" {
        s.l5 = true;
        s.l6 = true;
    }
    for c in ["core", "storage", "columnar", "engine", "server"] {
        if rel.starts_with(&format!("crates/{c}/src/")) {
            s.l2 = true;
            s.l3 = true;
            s.l9 = true;
        }
    }
    // The durable write paths additionally get the discarded-io::Result
    // rule: an error swallowed there silently forfeits the crash guarantee.
    if matches!(
        rel.as_str(),
        "crates/storage/src/wal.rs"
            | "crates/storage/src/manifest.rs"
            | "crates/columnar/src/disk.rs"
    ) {
        s.l7 = true;
    }
    // The FOR page format may be known only to the codec, the chunk/accessor
    // layer built directly on it, and the codec's own property test; every
    // other file must stay behind the column accessors (L8).
    if matches!(
        rel.as_str(),
        "crates/columnar/src/compress.rs"
            | "crates/columnar/src/column.rs"
            | "crates/columnar/tests/compress_prop.rs"
    ) {
        s.l8 = false;
    }
    Some(s)
}

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
const BANNED_STD_SYNC: [&str; 7] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];
/// `Database` write entry points a held `DictPin` must not straddle: even
/// though copy-on-write interning keeps them deadlock-free, a pin held
/// across them forces a full dictionary clone per batch.
const WRITE_METHODS: [&str; 8] = [
    "insert_terms",
    "insert_ntriples",
    "load_terms",
    "load_ntriples",
    "delete_triples",
    "delete_matching",
    "self_organize",
    "reorganize_now",
];
/// Guard-suffix rule plus known handle types that don't follow the naming
/// scheme.
const MUST_USE_SUFFIXES: [&str; 3] = ["Guard", "Pin", "Handle"];
const MUST_USE_EXTRA: [&str; 2] = ["BackgroundReorg", "Snapshot"];
/// Method names too generic to resolve by bare name in the call graph
/// (qualified `Type::name` calls still resolve).
const GENERIC_METHODS: [&str; 23] = [
    "read", "write", "open", "lock", "get", "new", "len", "insert", "remove", "push", "next",
    "iter", "clone", "drop", "fmt", "eq", "cmp", "hash", "default", "from", "into", "as_ref",
    "index",
];
const KEYWORDS: [&str; 28] = [
    "if", "while", "match", "for", "loop", "return", "move", "in", "as", "let", "else", "ref",
    "mut", "box", "unsafe", "dyn", "where", "fn", "impl", "use", "pub", "mod", "const", "static",
    "type", "struct", "enum", "trait",
];

#[derive(Debug)]
struct Allow {
    rules: Vec<String>,
    line: u32,
}

#[derive(Debug)]
struct FnInfo {
    file: usize,
    name: String,
    qual: Option<String>,
    sig_line: u32,
    body: Range<usize>,
    is_test: bool,
    calls: Vec<String>,
    /// (level index, line) of each ranked acquisition in the body.
    acquired: Vec<(usize, u32)>,
    declared: Option<Vec<usize>>,
}

struct FileData {
    path: String,
    scope: Scope,
    lexed: Lexed,
    allows: Vec<Allow>,
    test_regions: Vec<Range<usize>>,
}

/// Analyze a set of `(workspace-relative path, source)` pairs and return
/// every diagnostic, sorted. `force_scope` overrides path classification
/// (used by the fixture tests).
pub fn lint_sources(files: &[(String, String)], force_scope: Option<Scope>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut data = Vec::new();
    for (path, src) in files {
        let scope = match force_scope.or_else(|| classify(path)) {
            Some(s) => s,
            None => continue,
        };
        let lexed = lex(src);
        let allows = parse_allows(&lexed.comments, path, &mut diags);
        let test_regions = test_regions(&lexed.tokens);
        data.push(FileData {
            path: path.clone(),
            scope,
            lexed,
            allows,
            test_regions,
        });
    }

    let mut fns: Vec<FnInfo> = Vec::new();
    for (fi, fd) in data.iter().enumerate() {
        let mut file_fns = scan_fns(fi, &fd.lexed.tokens, &fd.test_regions);
        for f in &mut file_fns {
            attach_lock_order_annotation(f, fd, &mut diags);
        }
        fns.extend(file_fns);
    }

    for (fi, fd) in data.iter().enumerate() {
        check_l3(fd, &mut diags);
        check_l4(fd, &mut diags);
        check_l5(fd, &mut diags);
        check_l6(fi, fd, &fns, &mut diags);
        check_l7(fd, &mut diags);
        check_l8(fd, &mut diags);
    }
    check_l1(&data, &fns, &mut diags);
    check_l2(&data, &fns, &mut diags);
    check_l9(&data, &fns, &mut diags);

    // Apply allows last so every rule shares the same suppression logic.
    diags.retain(|d| {
        let Some(fd) = data.iter().find(|fd| fd.path == d.file) else {
            return true;
        };
        if d.rule == "L0" {
            return true;
        }
        !fd.allows.iter().any(|a| {
            a.rules.iter().any(|r| r == d.rule) && (d.line == a.line || d.line == a.line + 1)
        })
    });
    diags.sort();
    diags.dedup();
    diags
}

// ---------------------------------------------------------------------------
// directives
// ---------------------------------------------------------------------------

fn parse_allows(comments: &[Comment], path: &str, diags: &mut Vec<Diagnostic>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (ci, c) in comments.iter().enumerate() {
        let Some(pos) = c.text.find("sordf-lint:") else {
            continue;
        };
        let rest = c.text[pos + "sordf-lint:".len()..].trim_start();
        let malformed = |diags: &mut Vec<Diagnostic>, why: &str| {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: c.line,
                rule: "L0",
                msg: format!("malformed sordf-lint directive: {why}"),
            });
        };
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            malformed(diags, "expected `allow(<rules>) — <reason>`");
            continue;
        };
        let (rule_list, after) = inner;
        let rules: Vec<String> = rule_list
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let valid = !rules.is_empty()
            && rules.iter().all(|r| {
                matches!(
                    r.as_str(),
                    "L1" | "L2" | "L3" | "L4" | "L5" | "L6" | "L7" | "L8" | "L9"
                )
            });
        if !valid {
            malformed(diags, "unknown rule id (expected L1..L9)");
            continue;
        }
        let reason = after
            .trim_start()
            .trim_start_matches(['—', '-', ':'])
            .trim();
        if reason.is_empty() {
            malformed(diags, "an allow requires a reason after the rule list");
            continue;
        }
        // A directive anywhere in a contiguous run of `//` comment lines
        // covers the code the whole block annotates: anchor the allow to the
        // block's last line, so multi-line reasons still reach the code
        // directly below.
        let mut last = c.line;
        for next in &comments[ci + 1..] {
            if next.line == last + 1 {
                last = next.line;
            } else {
                break;
            }
        }
        allows.push(Allow { rules, line: last });
    }
    allows
}

fn attach_lock_order_annotation(f: &mut FnInfo, fd: &FileData, diags: &mut Vec<Diagnostic>) {
    // The annotation lives in a comment directly above the function (doc
    // comments and attributes may sit between, but not another item: a `}`
    // or `;` between comment and signature means the comment annotates the
    // *previous* item, not this one).
    let lo = f.sig_line.saturating_sub(12);
    for c in &fd.lexed.comments {
        if c.line < lo || c.line > f.sig_line {
            continue;
        }
        let crosses_item = fd.lexed.tokens.iter().any(|t| {
            t.line > c.line
                && t.line < f.sig_line
                && matches!(t.tok, Tok::Punct('}') | Tok::Punct(';'))
        });
        if crosses_item {
            continue;
        }
        let Some(pos) = c.text.find("lock-order:") else {
            continue;
        };
        let rest = c.text[pos + "lock-order:".len()..].trim_start();
        let Some((list, _)) = rest
            .strip_prefix("acquires(")
            .and_then(|r| r.split_once(')'))
        else {
            diags.push(Diagnostic {
                file: fd.path.clone(),
                line: c.line,
                rule: "L0",
                msg: "malformed lock-order directive: expected `lock-order: acquires(<levels>)`"
                    .to_string(),
            });
            continue;
        };
        let mut levels = Vec::new();
        let mut ok = true;
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match LOCK_LEVELS.iter().position(|l| *l == name) {
                Some(i) => levels.push(i),
                None => {
                    ok = false;
                    diags.push(Diagnostic {
                        file: fd.path.clone(),
                        line: c.line,
                        rule: "L0",
                        msg: format!(
                            "unknown lock level `{name}` (expected one of {})",
                            LOCK_LEVELS.join(", ")
                        ),
                    });
                }
            }
        }
        if ok {
            f.declared = Some(levels);
        }
    }
}

// ---------------------------------------------------------------------------
// structural scanning
// ---------------------------------------------------------------------------

/// Token-index ranges covered by `#[test]` functions or `#[cfg(test)]`
/// items (the whole `mod tests { ... }` body).
fn test_regions(toks: &[Token]) -> Vec<Range<usize>> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    let mut pending_test = false;
    while i < toks.len() {
        if toks[i].tok == Tok::Punct('#') {
            let mut j = i + 1;
            if j < toks.len() && toks[j].tok == Tok::Punct('!') {
                j += 1;
            }
            if j < toks.len() && toks[j].tok == Tok::Punct('[') {
                let close = match matching(toks, j, '[', ']') {
                    Some(c) => c,
                    None => break,
                };
                let mut has_test = false;
                let mut has_not = false;
                for t in &toks[j + 1..close] {
                    if let Tok::Ident(id) = &t.tok {
                        if id == "test" {
                            has_test = true;
                        }
                        if id == "not" {
                            has_not = true;
                        }
                    }
                }
                if has_test && !has_not {
                    pending_test = true;
                }
                i = close + 1;
                continue;
            }
        }
        if pending_test {
            // The attributed item: skip to its body (or its `;`).
            let mut k = i;
            while k < toks.len() {
                match toks[k].tok {
                    Tok::Punct('{') => {
                        let close = matching(toks, k, '{', '}').unwrap_or(toks.len() - 1);
                        regions.push(k..close + 1);
                        i = close + 1;
                        break;
                    }
                    Tok::Punct(';') => {
                        i = k + 1;
                        break;
                    }
                    Tok::Punct('#') => {
                        // Another attribute: restart the outer loop to
                        // parse it (it may itself contain `test`).
                        break;
                    }
                    _ => k += 1,
                }
            }
            if k < toks.len() && toks[k].tok == Tok::Punct('#') {
                i = k;
            } else if k >= toks.len() {
                break;
            }
            pending_test = false;
            continue;
        }
        i += 1;
    }
    regions
}

fn matching(toks: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.tok == Tok::Punct(open) {
            depth += 1;
        } else if t.tok == Tok::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

fn ident(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).map(|t| &t.tok) == Some(&Tok::Punct(c))
}

fn in_regions(regions: &[Range<usize>], idx: usize) -> bool {
    regions.iter().any(|r| r.contains(&idx))
}

fn scan_fns(file: usize, toks: &[Token], test_regions: &[Range<usize>]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    // (type name, impl-body close index)
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        while impl_stack.last().is_some_and(|&(_, close)| i > close) {
            impl_stack.pop();
        }
        match &toks[i].tok {
            Tok::Ident(kw) if kw == "impl" && impl_item_position(toks, i) => {
                if let Some((ty, body_open)) = parse_impl_header(toks, i) {
                    if let Some(close) = matching(toks, body_open, '{', '}') {
                        impl_stack.push((ty, close));
                    }
                    i = body_open + 1;
                    continue;
                }
            }
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(name) = ident(toks, i + 1) {
                    let name = name.to_string();
                    // Find the body `{` (or `;` for body-less trait items).
                    let mut k = i + 2;
                    let mut body = None;
                    while k < toks.len() {
                        match toks[k].tok {
                            Tok::Punct('{') => {
                                body = matching(toks, k, '{', '}').map(|c| (k, c));
                                break;
                            }
                            Tok::Punct(';') => break,
                            _ => k += 1,
                        }
                    }
                    if let Some((open, close)) = body {
                        let qual = impl_stack.last().map(|(ty, _)| format!("{ty}::{name}"));
                        let is_test = in_regions(test_regions, i) || in_regions(test_regions, open);
                        let mut f = FnInfo {
                            file,
                            name,
                            qual,
                            sig_line: toks[i].line,
                            body: open + 1..close,
                            is_test,
                            calls: Vec::new(),
                            acquired: Vec::new(),
                            declared: None,
                        };
                        extract_calls_and_locks(toks, &mut f);
                        fns.push(f);
                        // Continue *inside* the body: nested fns are rare
                        // but legal, and items after this fn follow the
                        // close brace anyway.
                        i += 2;
                        continue;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    fns
}

fn impl_item_position(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    match &toks[i - 1].tok {
        Tok::Punct(';') | Tok::Punct('}') | Tok::Punct(']') | Tok::Punct('{') => true,
        Tok::Ident(k) => matches!(k.as_str(), "unsafe" | "default"),
        _ => false,
    }
}

/// From an item-position `impl`, extract the implemented type's last path
/// segment and the index of the body `{`.
fn parse_impl_header(toks: &[Token], impl_idx: usize) -> Option<(String, usize)> {
    let mut k = impl_idx + 1;
    let mut angle = 0i32;
    let mut segs: Vec<&str> = Vec::new();
    let mut after_for: Option<Vec<&str>> = None;
    while k < toks.len() {
        match &toks[k].tok {
            Tok::Punct('{') if angle == 0 => {
                let segs = after_for.as_ref().unwrap_or(&segs);
                let ty = segs.last()?.to_string();
                return Some((ty, k));
            }
            Tok::Punct('-') if is_punct(toks, k + 1, '>') => {
                k += 2;
                continue;
            }
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(id) if angle == 0 => {
                if id == "for" {
                    after_for = Some(Vec::new());
                } else if id == "where" {
                    // A `where` clause ends the type path; the loop keeps
                    // scanning only to find the body `{`.
                } else {
                    match &mut after_for {
                        Some(v) => v.push(id),
                        None => segs.push(id),
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

fn extract_calls_and_locks(toks: &[Token], f: &mut FnInfo) {
    let r = f.body.clone();
    for i in r.clone() {
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        if !is_punct(toks, i + 1, '(') {
            continue;
        }
        // Ranked acquisition patterns: `recv.method(` where the receiver
        // field names the lock.
        if i >= 2 && is_punct(toks, i - 1, '.') {
            if let Some(recv) = ident(toks, i - 2) {
                let level = match (recv, name.as_str()) {
                    ("state", "lock" | "try_lock") => Some(0),
                    ("dict", "read" | "write" | "try_read" | "try_write") => Some(1),
                    ("inner", "lock" | "try_lock") => Some(2),
                    ("write_lock", "lock") => Some(3),
                    _ => None,
                };
                if let Some(l) = level {
                    f.acquired.push((l, toks[i].line));
                }
            }
        }
        if KEYWORDS.contains(&name.as_str())
            || matches!(name.as_str(), "Some" | "None" | "Ok" | "Err")
        {
            continue;
        }
        if i >= 3 && is_punct(toks, i - 1, ':') && is_punct(toks, i - 2, ':') {
            if let Some(ty) = ident(toks, i - 3) {
                f.calls.push(format!("{ty}::{name}"));
            }
        }
        if !GENERIC_METHODS.contains(&name.as_str()) {
            f.calls.push(name.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// rules
// ---------------------------------------------------------------------------

fn check_l1(data: &[FileData], fns: &[FnInfo], diags: &mut Vec<Diagnostic>) {
    for f in fns {
        let fd = &data[f.file];
        if !fd.scope.l1 {
            continue;
        }
        let toks = &fd.lexed.tokens;
        let uses_query_pinned = f.calls.iter().any(|c| c == "query_pinned");
        // (a) the result of `query_pinned` must be decoded under the pin it
        // returned; grabbing the live dictionary alongside it is exactly
        // the race the pin exists to prevent.
        if uses_query_pinned {
            for i in f.body.clone() {
                if is_punct(toks, i, '.')
                    && ident(toks, i + 1) == Some("dict")
                    && is_punct(toks, i + 2, '(')
                {
                    diags.push(Diagnostic {
                        file: fd.path.clone(),
                        line: toks[i + 1].line,
                        rule: "L1",
                        msg: "function uses `query_pinned` but also takes the live dictionary \
                              via `.dict()`; decode results under the pin returned by \
                              `query_pinned`"
                            .to_string(),
                    });
                }
            }
        }
        // (b) a named DictPin binding must not straddle a write call.
        let mut i = f.body.start;
        while i < f.body.end {
            if ident(toks, i) != Some("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if ident(toks, j) == Some("mut") {
                j += 1;
            }
            let Some(bind) = ident(toks, j).map(str::to_string) else {
                i += 1;
                continue;
            };
            if !is_punct(toks, j + 1, '=') {
                i += 1;
                continue;
            }
            // Find the end of the statement.
            let mut depth = 0i32;
            let mut end = j + 2;
            while end < f.body.end {
                match toks[end].tok {
                    Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    Tok::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            // A pin binding: the RHS *ends* in `.dict()` / `.pin_dict()`.
            let is_pin = end >= 4
                && is_punct(toks, end - 1, ')')
                && is_punct(toks, end - 2, '(')
                && matches!(ident(toks, end - 3), Some("dict") | Some("pin_dict"))
                && is_punct(toks, end - 4, '.');
            if is_pin {
                let mut k = end;
                while k < f.body.end {
                    // `drop(<bind>)` ends the hazard window.
                    if ident(toks, k) == Some("drop")
                        && is_punct(toks, k + 1, '(')
                        && ident(toks, k + 2) == Some(bind.as_str())
                        && is_punct(toks, k + 3, ')')
                    {
                        break;
                    }
                    if let Some(callee) = ident(toks, k) {
                        if is_punct(toks, k + 1, '(') && WRITE_METHODS.contains(&callee) {
                            diags.push(Diagnostic {
                                file: fd.path.clone(),
                                line: toks[k].line,
                                rule: "L1",
                                msg: format!(
                                    "dictionary pin `{bind}` is still held across write call \
                                     `{callee}`; drop the pin first (a held pin forces \
                                     copy-on-write interning)"
                                ),
                            });
                        }
                    }
                    k += 1;
                }
            }
            i = end + 1;
        }
    }
}

fn check_l2(data: &[FileData], fns: &[FnInfo], diags: &mut Vec<Diagnostic>) {
    // (a) coverage: a non-test function that acquires a ranked lock must
    // declare it.
    for f in fns {
        let fd = &data[f.file];
        if !fd.scope.l2 || f.is_test {
            continue;
        }
        match &f.declared {
            None => {
                if let Some(&(lvl, line)) = f.acquired.first() {
                    diags.push(Diagnostic {
                        file: fd.path.clone(),
                        line,
                        rule: "L2",
                        msg: format!(
                            "`{}` acquires the {} lock but carries no \
                             `// lock-order: acquires(...)` annotation",
                            f.display_name(),
                            LOCK_LEVELS[lvl]
                        ),
                    });
                }
            }
            Some(declared) => {
                for &(lvl, line) in &f.acquired {
                    if !declared.contains(&lvl) {
                        diags.push(Diagnostic {
                            file: fd.path.clone(),
                            line,
                            rule: "L2",
                            msg: format!(
                                "`{}` acquires the {} lock, which its lock-order annotation \
                                 does not declare",
                                f.display_name(),
                                LOCK_LEVELS[lvl]
                            ),
                        });
                    }
                }
            }
        }
    }

    // (b) monotonicity along the call graph: from a function holding up to
    // level m, every reachable acquisition must be at level >= m.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
        if let Some(q) = &f.qual {
            by_name.entry(q.as_str()).or_default().push(i);
        }
    }
    for f in fns {
        let fd = &data[f.file];
        if !fd.scope.l2 || f.is_test {
            continue;
        }
        let Some(declared) = &f.declared else {
            continue;
        };
        let Some(&max_held) = declared.iter().max() else {
            continue;
        };
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        let mut stack: Vec<usize> = resolve_calls(f.file, &f.calls, &by_name, fns);
        while let Some(gi) = stack.pop() {
            if !visited.insert(gi) {
                continue;
            }
            let g = &fns[gi];
            if std::ptr::eq(g, f) {
                continue;
            }
            let g_levels: Vec<usize> = g
                .declared
                .clone()
                .unwrap_or_else(|| g.acquired.iter().map(|&(l, _)| l).collect());
            if let Some(&g_min) = g_levels.iter().min() {
                if g_min < max_held {
                    diags.push(Diagnostic {
                        file: fd.path.clone(),
                        line: f.sig_line,
                        rule: "L2",
                        msg: format!(
                            "`{}` (declares up to the {} lock) may reach `{}`, which \
                             acquires the lower-ranked {} lock — hierarchy is {}",
                            f.display_name(),
                            LOCK_LEVELS[max_held],
                            g.display_name(),
                            LOCK_LEVELS[g_min],
                            LOCK_LEVELS.join(" → ")
                        ),
                    });
                    continue;
                }
            }
            stack.extend(resolve_calls(g.file, &g.calls, &by_name, fns));
        }
    }
}

/// Resolve call names to candidate functions. Qualified `Type::name` calls
/// resolve globally; bare names prefer same-file definitions and treat a
/// multi-file ambiguity as unresolvable (without type information, linking
/// `store.n_triples()` to every `n_triples` in the workspace would
/// manufacture call-graph edges that do not exist).
fn resolve_calls(
    caller_file: usize,
    calls: &[String],
    by_name: &HashMap<&str, Vec<usize>>,
    fns: &[FnInfo],
) -> Vec<usize> {
    let mut out = Vec::new();
    for c in calls {
        let Some(v) = by_name.get(c.as_str()) else {
            continue;
        };
        if c.contains("::") {
            out.extend_from_slice(v);
            continue;
        }
        let same_file: Vec<usize> = v
            .iter()
            .copied()
            .filter(|&i| fns[i].file == caller_file)
            .collect();
        if !same_file.is_empty() {
            out.extend_from_slice(&same_file);
        } else if v.len() == 1 {
            out.extend_from_slice(v);
        }
    }
    out
}

impl FnInfo {
    fn display_name(&self) -> &str {
        self.qual.as_deref().unwrap_or(&self.name)
    }
}

fn check_l3(fd: &FileData, diags: &mut Vec<Diagnostic>) {
    if !fd.scope.l3 {
        return;
    }
    let toks = &fd.lexed.tokens;
    for i in 0..toks.len() {
        if in_regions(&fd.test_regions, i) {
            continue;
        }
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        let hit = match name.as_str() {
            "unwrap" | "expect" => {
                i >= 1 && is_punct(toks, i - 1, '.') && is_punct(toks, i + 1, '(')
            }
            "panic" | "unimplemented" | "todo" => is_punct(toks, i + 1, '!'),
            _ => false,
        };
        if hit {
            diags.push(Diagnostic {
                file: fd.path.clone(),
                line: toks[i].line,
                rule: "L3",
                msg: format!(
                    "`{name}` in non-test code — return a ModelError/Error instead, or add \
                     `// sordf-lint: allow(L3) — <reason>`"
                ),
            });
        }
    }
}

fn check_l4(fd: &FileData, diags: &mut Vec<Diagnostic>) {
    if !fd.scope.l4 {
        return;
    }
    let toks = &fd.lexed.tokens;
    let mut i = 0usize;
    while i + 5 < toks.len() {
        let is_std_sync = ident(toks, i) == Some("std")
            && is_punct(toks, i + 1, ':')
            && is_punct(toks, i + 2, ':')
            && ident(toks, i + 3) == Some("sync")
            && is_punct(toks, i + 4, ':')
            && is_punct(toks, i + 5, ':');
        if !is_std_sync {
            i += 1;
            continue;
        }
        let flag = |name: &str, line: u32, diags: &mut Vec<Diagnostic>| {
            if BANNED_STD_SYNC.contains(&name) {
                diags.push(Diagnostic {
                    file: fd.path.clone(),
                    line,
                    rule: "L4",
                    msg: format!(
                        "`std::sync::{name}` is banned — use the vendored `parking_lot` shim \
                         (poison-free, lock-order instrumented)"
                    ),
                });
            }
        };
        if is_punct(toks, i + 6, '{') {
            if let Some(close) = matching(toks, i + 6, '{', '}') {
                for t in &toks[i + 7..close] {
                    if let Tok::Ident(name) = &t.tok {
                        flag(name, t.line, diags);
                    }
                }
                i = close + 1;
                continue;
            }
        } else if let Some(name) = ident(toks, i + 6) {
            flag(name, toks[i + 6].line, diags);
        }
        i += 6;
    }
}

fn check_l5(fd: &FileData, diags: &mut Vec<Diagnostic>) {
    if !fd.scope.l5 {
        return;
    }
    let toks = &fd.lexed.tokens;
    for i in 0..toks.len() {
        if ident(toks, i) != Some("struct") || in_regions(&fd.test_regions, i) {
            continue;
        }
        let Some(name) = ident(toks, i + 1) else {
            continue;
        };
        let needs =
            MUST_USE_SUFFIXES.iter().any(|s| name.ends_with(s)) || MUST_USE_EXTRA.contains(&name);
        if !needs {
            continue;
        }
        if !preceding_attrs_contain(toks, i, "must_use") {
            diags.push(Diagnostic {
                file: fd.path.clone(),
                line: toks[i].line,
                rule: "L5",
                msg: format!(
                    "guard/pin/handle type `{name}` must be `#[must_use]` so a dropped \
                     guard is a compile-time warning"
                ),
            });
        }
    }
}

/// Walk backward over `pub`/`pub(crate)` and attribute groups preceding the
/// item keyword at `idx`, looking for an attribute containing `needle`.
fn preceding_attrs_contain(toks: &[Token], idx: usize, needle: &str) -> bool {
    let mut j = idx;
    // Skip visibility tokens.
    loop {
        let skip = j >= 1
            && (matches!(
                ident(toks, j - 1),
                Some("pub") | Some("crate") | Some("super")
            ) || is_punct(toks, j - 1, ')')
                || is_punct(toks, j - 1, '('));
        if skip {
            j -= 1;
        } else {
            break;
        }
    }
    // Walk attribute groups: `# [ ... ]` sequences directly above.
    while j >= 1 && is_punct(toks, j - 1, ']') {
        // Find the matching '[' scanning backward.
        let mut depth = 0i32;
        let mut k = j - 1;
        loop {
            match toks[k].tok {
                Tok::Punct(']') => depth += 1,
                Tok::Punct('[') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return false;
            }
            k -= 1;
        }
        if k == 0 || !is_punct(toks, k - 1, '#') {
            return false;
        }
        for t in &toks[k..j] {
            if let Tok::Ident(id) = &t.tok {
                if id == needle {
                    return true;
                }
            }
        }
        j = k - 1;
    }
    false
}

fn check_l6(fi: usize, fd: &FileData, fns: &[FnInfo], diags: &mut Vec<Diagnostic>) {
    if !fd.scope.l6 {
        return;
    }
    let toks = &fd.lexed.tokens;
    for i in 0..toks.len() {
        if in_regions(&fd.test_regions, i) {
            continue;
        }
        if ident(toks, i) != Some("Ordering")
            || !is_punct(toks, i + 1, ':')
            || !is_punct(toks, i + 2, ':')
        {
            continue;
        }
        let Some(ord) = ident(toks, i + 3) else {
            continue;
        };
        if !ATOMIC_ORDERINGS.contains(&ord) {
            continue;
        }
        let line = toks[i].line;
        // A justification comment (`// ordering: ...`) anywhere between the
        // enclosing function's head and the use, or within 5 lines above a
        // non-function use (statics, consts). A multi-line comment block
        // counts by its *last* line, so a justification that opens a block
        // sitting directly above the function head still applies.
        let lo = fns
            .iter()
            .find(|f| f.file == fi && f.body.contains(&i))
            .map(|f| f.sig_line.saturating_sub(3))
            .unwrap_or_else(|| line.saturating_sub(5));
        let comments = &fd.lexed.comments;
        let justified = comments.iter().enumerate().any(|(ci, c)| {
            if !c.text.contains("ordering:") || c.line > line {
                return false;
            }
            let mut last = c.line;
            for next in &comments[ci + 1..] {
                if next.line == last + 1 {
                    last = next.line;
                } else {
                    break;
                }
            }
            last >= lo
        });
        if !justified {
            diags.push(Diagnostic {
                file: fd.path.clone(),
                line,
                rule: "L6",
                msg: format!(
                    "atomic `Ordering::{ord}` without an `// ordering:` justification comment \
                     in the enclosing function"
                ),
            });
        }
    }
}

/// Fallible write-path I/O operations whose `io::Result` L7 requires to be
/// handled (by name, followed by a call's `(`).
const IO_WRITE_CALLS: [&str; 13] = [
    "write",
    "write_all",
    "sync_all",
    "sync_data",
    "flush",
    "rename",
    "remove_file",
    "remove_dir_all",
    "set_len",
    "create",
    "create_new",
    "create_dir_all",
    "truncate",
];

fn is_io_call(toks: &[Token], i: usize) -> bool {
    matches!(&toks[i].tok, Tok::Ident(name)
        if IO_WRITE_CALLS.contains(&name.as_str()) && is_punct(toks, i + 1, '('))
}

fn check_l7(fd: &FileData, diags: &mut Vec<Diagnostic>) {
    if !fd.scope.l7 {
        return;
    }
    let toks = &fd.lexed.tokens;
    let flag = |name: &str, line: u32, diags: &mut Vec<Diagnostic>| {
        diags.push(Diagnostic {
            file: fd.path.clone(),
            line,
            rule: "L7",
            msg: format!(
                "`{name}` result discarded on the durable write path — a swallowed I/O \
                 error silently forfeits the crash guarantee; propagate it, or add \
                 `// sordf-lint: allow(L7) — <reason>`"
            ),
        });
    };
    for i in 0..toks.len() {
        if in_regions(&fd.test_regions, i) {
            continue;
        }
        // `let _ = <expr containing a write call>;`
        if ident(toks, i) == Some("let")
            && ident(toks, i + 1) == Some("_")
            && is_punct(toks, i + 2, '=')
        {
            let mut depth = 0usize;
            let mut j = i + 3;
            while j < toks.len() {
                match toks[j].tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                        depth = depth.saturating_sub(1)
                    }
                    Tok::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                if is_io_call(toks, j) {
                    flag(ident(toks, j).unwrap_or("?"), toks[i].line, diags);
                    break;
                }
                j += 1;
            }
        }
        // `<expr with a write call>.ok();` — result dropped on the floor.
        if ident(toks, i) == Some("ok")
            && i >= 1
            && is_punct(toks, i - 1, '.')
            && is_punct(toks, i + 1, '(')
            && is_punct(toks, i + 2, ')')
            && is_punct(toks, i + 3, ';')
        {
            // Walk the receiver chain back to the statement start, looking
            // for a write call at the chain's own nesting level.
            let mut depth = 0usize;
            let mut j = i - 1;
            loop {
                match toks[j].tok {
                    Tok::Punct(')') | Tok::Punct(']') => depth += 1,
                    Tok::Punct('(') | Tok::Punct('[') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') if depth == 0 => break,
                    _ => {}
                }
                if depth == 0 && is_io_call(toks, j) {
                    flag(ident(toks, j).unwrap_or("?"), toks[i].line, diags);
                    break;
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
        }
    }
}

/// The FOR/bit-packing word-layout primitives. A call site outside the
/// sanctioned modules means raw page words escaped the decode layer, and the
/// caller has hard-coded the page format.
const PAGE_LAYOUT_FNS: [&str; 3] = ["for_get", "for_decode_range", "for_partition_point"];

fn check_l8(fd: &FileData, diags: &mut Vec<Diagnostic>) {
    if !fd.scope.l8 {
        return;
    }
    let toks = &fd.lexed.tokens;
    for i in 0..toks.len() {
        // Raw page-buffer field indexing: `<expr>.data[...]`.
        if is_punct(toks, i, '.')
            && ident(toks, i + 1) == Some("data")
            && is_punct(toks, i + 2, '[')
        {
            diags.push(Diagnostic {
                file: fd.path.clone(),
                line: toks[i + 1].line,
                rule: "L8",
                msg: "raw `.data[..]` page-buffer indexing — page layout belongs to \
                      `compress.rs`/`column.rs`; read through `Chunk` or the column \
                      accessors, or add `// sordf-lint: allow(L8) — <reason>`"
                    .to_string(),
            });
        }
        // A page-layout primitive call, bare or `compress::`-qualified.
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        let qualified_choose = name == "choose"
            && i >= 3
            && is_punct(toks, i - 1, ':')
            && is_punct(toks, i - 2, ':')
            && ident(toks, i - 3) == Some("compress");
        if (PAGE_LAYOUT_FNS.contains(&name.as_str()) || qualified_choose)
            && is_punct(toks, i + 1, '(')
        {
            diags.push(Diagnostic {
                file: fd.path.clone(),
                line: toks[i].line,
                rule: "L8",
                msg: format!(
                    "`{name}` decodes raw page words outside the sanctioned layout modules \
                     — only `compress.rs`/`column.rs` may know the FOR page format; read \
                     through `Chunk`/column accessors, or add \
                     `// sordf-lint: allow(L8) — <reason>`"
                ),
            });
        }
    }
}

/// Blocking socket primitives: the HTTP layer's request/response entry
/// points plus the listener/connect calls. None of these names collide with
/// the file-I/O vocabulary L7 watches, so a hit is unambiguously wire I/O.
const L9_BLOCKING_CALLS: [&str; 3] = ["read_request", "write_response", "accept"];

fn check_l9(data: &[FileData], fns: &[FnInfo], diags: &mut Vec<Diagnostic>) {
    for f in fns {
        let fd = &data[f.file];
        if !fd.scope.l9 || f.is_test {
            continue;
        }
        // Holding (or documented as holding) the outermost lock is the
        // hazard; lower-ranked locks are leaves held for bounded work.
        let holds_state = f.declared.as_ref().is_some_and(|d| d.contains(&0))
            || f.acquired.iter().any(|&(l, _)| l == 0);
        if !holds_state {
            continue;
        }
        let toks = &fd.lexed.tokens;
        for i in f.body.clone() {
            let Tok::Ident(name) = &toks[i].tok else {
                continue;
            };
            if !is_punct(toks, i + 1, '(') {
                continue;
            }
            let qualified_connect = name == "connect"
                && i >= 3
                && is_punct(toks, i - 1, ':')
                && is_punct(toks, i - 2, ':')
                && ident(toks, i - 3) == Some("TcpStream");
            if L9_BLOCKING_CALLS.contains(&name.as_str()) || qualified_connect {
                diags.push(Diagnostic {
                    file: fd.path.clone(),
                    line: toks[i].line,
                    rule: "L9",
                    msg: format!(
                        "blocking socket call `{name}` inside `{}`, which holds the db_state \
                         lock — one slow peer would stall every writer; move the wire I/O \
                         outside the lock, or add `// sordf-lint: allow(L9) — <reason>`",
                        f.display_name()
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// filesystem front end
// ---------------------------------------------------------------------------

/// Workspace root as seen from the lint crate (compile-time anchored).
pub fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let mut p = PathBuf::from(manifest);
    p.pop();
    p.pop();
    p
}

/// Lint every in-scope `.rs` file under `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let sources: Vec<(String, String)> = files
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            std::fs::read_to_string(&p).map(|src| (rel, src))
        })
        .collect::<std::io::Result<_>>()?;
    Ok(lint_sources(&sources, None))
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            if path == root.join("vendor") {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        lint_sources(
            &[("crates/core/src/lib.rs".to_string(), src.to_string())],
            Some(Scope::all()),
        )
    }

    #[test]
    fn l3_flags_unwrap_and_allows_suppress() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 {\n\
                       // sordf-lint: allow(L3) — structurally guaranteed\n\
                       x.unwrap()\n\
                   }\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "L3");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn l3_skips_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_l0() {
        let src = "// sordf-lint: allow(L3)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = run(src);
        assert!(d.iter().any(|d| d.rule == "L0"));
        assert!(
            d.iter().any(|d| d.rule == "L3"),
            "unreasoned allow must not suppress"
        );
    }

    #[test]
    fn l2_coverage_and_monotonicity() {
        let src = "\
impl Pool {
    fn bare(&self) { let _g = self.inner.lock(); }
}
// lock-order: acquires(pool_shard)
fn shard_then_state(p: &Pool) { helper(p); }
// lock-order: acquires(db_state)
fn helper(_p: &Pool) { }
";
        let d = run(src);
        assert!(
            d.iter().any(|d| d.rule == "L2" && d.line == 2),
            "undeclared acquisition: {d:?}"
        );
        assert!(
            d.iter()
                .any(|d| d.rule == "L2" && d.msg.contains("lower-ranked")),
            "inversion along call graph: {d:?}"
        );
    }

    #[test]
    fn l6_requires_justification() {
        let src = "\
fn f(c: &std::sync::atomic::AtomicU64) -> u64 { c.load(Ordering::Relaxed) }
// ordering: Relaxed — monotone counter, no publication.
fn g(c: &std::sync::atomic::AtomicU64) -> u64 { c.load(Ordering::Relaxed) }
fn h(a: u32, b: u32) -> std::cmp::Ordering { a.cmp(&b) }
";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].rule, d[0].line), ("L6", 1));
    }

    #[test]
    fn l5_guard_needs_must_use() {
        let src = "pub struct FooGuard;\n#[must_use]\npub struct BarPin;\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].rule, d[0].line), ("L5", 1));
    }

    #[test]
    fn l4_bans_std_sync_locks_but_not_atomics() {
        let src = "use std::sync::{Arc, Mutex};\nuse std::sync::atomic::AtomicU64;\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "L4");
        assert!(d[0].msg.contains("Mutex"));
    }

    #[test]
    fn l8_flags_page_layout_access_and_classify_carves_out_codec() {
        let src = "\
fn peek(p: &PageGuard) -> u64 { p.data[0] }
fn one(w: &[u64]) -> u64 { for_get(w, 0, 8, 0) }
fn enc(v: &[u64]) { let _ = compress::choose(v); }
fn fine(c: &Column) -> u64 { c.value(0) }
";
        let d = run(src);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "L8"), "{d:?}");
        assert_eq!(
            d.iter().map(|d| d.line).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "{d:?}"
        );
        // The codec and its accessor layer are the sanctioned exceptions.
        assert!(!classify("crates/columnar/src/compress.rs").unwrap().l8);
        assert!(!classify("crates/columnar/src/column.rs").unwrap().l8);
        assert!(classify("crates/engine/src/exec.rs").unwrap().l8);
    }

    #[test]
    fn l9_no_blocking_socket_io_under_state_lock() {
        let src = "\
// lock-order: acquires(db_state)
fn bad(srv: &Server) {
    let _st = srv.state.lock();
    let (mut s, _) = srv.listener.accept().map_err(drop);
    write_response(&mut s, &resp).map_err(drop);
}
fn fine(srv: &Server) {
    let (_s, _) = srv.listener.accept().map_err(drop);
}
";
        let d = run(src);
        let l9: Vec<u32> = d
            .iter()
            .filter(|d| d.rule == "L9")
            .map(|d| d.line)
            .collect();
        assert_eq!(l9, vec![4, 5], "{d:?}");
    }

    #[test]
    fn l1_pin_across_write_and_decode_outside_pin() {
        let src = "\
fn bad_decode(db: &Db) {
    let (rs, _pin) = db.query_pinned(q);
    let live = db.dict();
    rs.canonical(&live);
}
fn bad_hold(db: &Db) {
    let pin = db.dict();
    db.insert_terms(&[]);
    drop(pin);
}
fn fine(db: &Db) {
    let pin = db.dict();
    drop(pin);
    db.insert_terms(&[]);
}
";
        let d = run(src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.line == 3));
        assert!(d.iter().any(|d| d.line == 8));
    }
}
