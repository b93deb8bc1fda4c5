//! `efind-lint`: a source-level determinism & virtual-time static
//! analyzer for the workspace.
//!
//! Every guarantee the repo makes — bit-identical double runs, quiet
//! injection plans that change nothing, virtual-time-only charging — is a
//! *convention* until something enforces it. This crate is the enforcer:
//! a zero-dependency line/token scanner (in the spirit of the hand-rolled
//! `efind_common::crc`) over the workspace `.rs` files, with seven rules:
//!
//! | Code | Waiver key | Meaning |
//! |------|-----------|---------|
//! | L001 | `wall-clock` | `Instant`/`SystemTime` outside `crates/bench` |
//! | L002 | `unordered-iter` | iteration over a hash map/set in an observable-output crate |
//! | L003 | `raw-draw` | raw seeding/hash draws in injection code outside `efind_common::det` |
//! | L004 | `counter-name` | counter-name literal not registered in `efind_common::intern::registry` |
//! | L005 | `panic` | `unwrap`/`expect`/`panic!` in runner/ql error paths |
//! | L006 | `float-accum` | float accumulation over an unordered collection |
//! | L007 | `unguarded-injection` | injection-plan call in a hot-path loop with no Quiet/Armed guard |
//!
//! A finding is suppressed by a *justified* waiver comment on the same
//! line or the comment line(s) directly above it:
//!
//! ```text
//! // efind-lint: allow(unordered-iter, merge sums commute; order never observed)
//! for (&k, &v) in &other.values { ... }
//! ```
//!
//! A waiver without a reason does not count. Diagnostics follow the
//! `efind-analyze::diag` format (human report + JSON); the binary exits
//! nonzero on any un-waived finding, which is what `scripts/lint.sh` and
//! `scripts/ci.sh` gate on.
//!
//! The scanner is deliberately heuristic — it reads lines and tokens, not
//! types. It can miss an iteration over a hash map whose type is fully
//! inferred, and it can flag a `Vec` that shadows a hash-map name. Both
//! are acceptable for a tripwire: the first stays covered by the runtime
//! double-run tests, the second costs one waiver comment.

#![warn(missing_docs)]

use std::fmt;
use std::path::Path;

use efind_common::intern::registry;

/// Stable lint codes (`L001`..). Append-only, like `EFxxx`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintCode {
    /// Wall-clock time source outside `crates/bench`.
    L001,
    /// Iteration over an unordered hash collection in an
    /// observable-output crate.
    L002,
    /// Raw seeding/hash draw in injection code outside
    /// `efind_common::det`.
    L003,
    /// Counter-name string literal not registered in the
    /// `efind_common::intern::registry` symbol table.
    L004,
    /// `unwrap()`/`expect()`/`panic!` in runner/ql error paths.
    L005,
    /// Float accumulation over an unordered collection.
    L006,
    /// Injection-plan draw/verify call inside a per-record or per-lookup
    /// loop in a hot-path crate, with no Quiet/Armed classification in
    /// the enclosing function.
    L007,
}

impl LintCode {
    /// The stable textual form, e.g. `"L002"`.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::L001 => "L001",
            LintCode::L002 => "L002",
            LintCode::L003 => "L003",
            LintCode::L004 => "L004",
            LintCode::L005 => "L005",
            LintCode::L006 => "L006",
            LintCode::L007 => "L007",
        }
    }

    /// The waiver key accepted in `efind-lint: allow(<key>, <reason>)`.
    pub fn waiver_key(self) -> &'static str {
        match self {
            LintCode::L001 => "wall-clock",
            LintCode::L002 => "unordered-iter",
            LintCode::L003 => "raw-draw",
            LintCode::L004 => "counter-name",
            LintCode::L005 => "panic",
            LintCode::L006 => "float-accum",
            LintCode::L007 => "unguarded-injection",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding. Every finding is error-severity: it either gets
/// fixed or carries a justified waiver.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Stable code.
    pub code: LintCode,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Actionable suggestion.
    pub hint: String,
    /// The justification, when a waiver comment suppressed the finding.
    pub waived: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = if self.waived.is_some() {
            "waived"
        } else {
            "error"
        };
        write!(
            f,
            "{}[{}] at {}:{}: {}",
            sev, self.code, self.file, self.line, self.message
        )?;
        if let Some(reason) = &self.waived {
            write!(f, " (waived: {reason})")?;
        } else if !self.hint.is_empty() {
            write!(f, " (hint: {})", self.hint)?;
        }
        Ok(())
    }
}

/// The full result of a lint pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintReport {
    /// All findings, waived and active, in file/line order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Active (un-waived) findings — the ones that fail the gate.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived.is_none())
    }

    /// True when no un-waived finding is present.
    pub fn is_passing(&self) -> bool {
        self.active().next().is_none()
    }

    /// True when a specific code was produced (waived or not).
    pub fn has_code(&self, code: LintCode) -> bool {
        self.findings.iter().any(|f| f.code == code)
    }

    /// Renders the report as one line per finding plus a summary, in the
    /// `efind-analyze` human format.
    pub fn to_text(&self) -> String {
        let active = self.active().count();
        let waived = self.findings.len() - active;
        if self.findings.is_empty() {
            return format!(
                "efind-lint: clean ({} files, no findings)",
                self.files_scanned
            );
        }
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "efind-lint: {active} un-waived finding(s), {waived} waived, {} files scanned\n",
            self.files_scanned
        ));
        out
    }

    /// Renders the report as a JSON object (hand-rolled — the workspace
    /// carries no serde): `{"findings": [...], "active": N, ...}`.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"code\": \"{}\", \"severity\": \"error\", \"file\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\", \"hint\": \"{}\", \"waived\": {}",
                f.code,
                esc(&f.file),
                f.line,
                esc(&f.message),
                esc(&f.hint),
                match &f.waived {
                    Some(r) => format!("\"{}\"", esc(r)),
                    None => "null".to_string(),
                }
            ));
            out.push('}');
        }
        out.push_str(&format!(
            "\n  ],\n  \"active\": {},\n  \"waived\": {},\n  \"files_scanned\": {}\n}}\n",
            self.active().count(),
            self.findings.len() - self.active().count(),
            self.files_scanned
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Source preprocessing: comments, strings, test regions, brace depth.
// ---------------------------------------------------------------------------

/// One preprocessed source line.
#[derive(Clone, Debug, Default)]
struct LineInfo {
    /// The line with string/char-literal contents and comments blanked
    /// out (delimiters and everything else preserved byte-for-byte).
    code: String,
    /// Concatenated comment text on the line.
    comment: String,
    /// String-literal contents that *start* on this line.
    strings: Vec<String>,
    /// Brace depth at the start of the line.
    depth_start: i32,
    /// True when the line falls inside a `#[cfg(test)]` block.
    in_test: bool,
}

fn preprocess(source: &str) -> Vec<LineInfo> {
    #[derive(PartialEq)]
    enum State {
        Code,
        Block(u32),    // nested block-comment depth
        Str,           // "..."
        RawStr(usize), // r##"..."## with N hashes
    }
    let mut lines: Vec<LineInfo> = Vec::new();
    let mut state = State::Code;
    let mut depth: i32 = 0;
    // #[cfg(test)] tracking: pending until the next '{' at/below the
    // recorded depth opens the test block.
    let mut test_pending = false;
    let mut test_base: Option<i32> = None;

    for raw in source.lines() {
        let mut info = LineInfo {
            depth_start: depth,
            in_test: test_base.is_some(),
            ..LineInfo::default()
        };
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0usize;
        let mut cur_string = String::new();
        while i < bytes.len() {
            let c = bytes[i];
            match state {
                State::Block(ref mut n) => {
                    if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        *n += 1;
                        info.comment.push_str("/*");
                        i += 2;
                    } else if c == '*' && bytes.get(i + 1) == Some(&'/') {
                        *n -= 1;
                        info.comment.push_str("*/");
                        let done = *n == 0;
                        i += 2;
                        if done {
                            state = State::Code;
                        }
                    } else {
                        info.comment.push(c);
                        info.code.push(' ');
                        i += 1;
                    }
                    continue;
                }
                State::Str => {
                    if c == '\\' {
                        cur_string.push(c);
                        if let Some(&n) = bytes.get(i + 1) {
                            cur_string.push(n);
                        }
                        info.code.push(' ');
                        info.code.push(' ');
                        i += 2;
                    } else if c == '"' {
                        info.strings.push(std::mem::take(&mut cur_string));
                        info.code.push('"');
                        state = State::Code;
                        i += 1;
                    } else {
                        cur_string.push(c);
                        info.code.push(' ');
                        i += 1;
                    }
                    continue;
                }
                State::RawStr(hashes) => {
                    if c == '"' {
                        let tail: String = bytes[i + 1..].iter().take(hashes).collect();
                        if tail.chars().filter(|&h| h == '#').count() == hashes
                            && tail.len() == hashes
                        {
                            info.strings.push(std::mem::take(&mut cur_string));
                            info.code.push('"');
                            for _ in 0..hashes {
                                info.code.push('#');
                            }
                            state = State::Code;
                            i += 1 + hashes;
                            continue;
                        }
                    }
                    cur_string.push(c);
                    info.code.push(' ');
                    i += 1;
                    continue;
                }
                State::Code => {}
            }
            // State::Code
            if c == '/' && bytes.get(i + 1) == Some(&'/') {
                info.comment
                    .push_str(&bytes[i..].iter().collect::<String>());
                break; // rest of line is a comment
            }
            if c == '/' && bytes.get(i + 1) == Some(&'*') {
                state = State::Block(1);
                info.comment.push_str("/*");
                i += 2;
                continue;
            }
            if c == '"' {
                state = State::Str;
                info.code.push('"');
                i += 1;
                continue;
            }
            if c == 'r' && matches!(bytes.get(i + 1), Some('"') | Some('#')) {
                // Possible raw string: r"..." or r#"..."# (any hash count).
                // Avoid matching identifiers ending in r (check prev char).
                let prev_ident = i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_');
                if !prev_ident {
                    let mut j = i + 1;
                    let mut hashes = 0usize;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        info.code.push('r');
                        for _ in 0..hashes {
                            info.code.push('#');
                        }
                        info.code.push('"');
                        i = j + 1;
                        continue;
                    }
                }
            }
            if c == '\'' {
                // Char literal vs lifetime. 'x' or '\n' is a literal;
                // 'a (no closing quote nearby) is a lifetime.
                if bytes.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: skip to closing quote.
                    info.code.push('\'');
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != '\'' {
                        info.code.push(' ');
                        j += 1;
                    }
                    info.code.push('\'');
                    i = (j + 1).min(bytes.len());
                    continue;
                }
                if bytes.get(i + 2) == Some(&'\'') {
                    info.code.push_str("' '");
                    i += 3;
                    continue;
                }
                // Lifetime: keep the quote, move on.
                info.code.push('\'');
                i += 1;
                continue;
            }
            if c == '{' {
                depth += 1;
                if test_pending {
                    test_base = Some(depth - 1);
                    test_pending = false;
                    info.in_test = true;
                }
            } else if c == '}' {
                depth -= 1;
                if let Some(base) = test_base {
                    if depth <= base {
                        test_base = None;
                    }
                }
            }
            info.code.push(c);
            i += 1;
        }
        if !cur_string.is_empty() && matches!(state, State::Str | State::RawStr(_)) {
            // Multi-line string: attribute the chunk to the opening line.
            cur_string.push('\n');
        }
        if info.code.contains("#[cfg(test)]") {
            test_pending = true;
        }
        lines.push(info);
    }
    lines
}

// ---------------------------------------------------------------------------
// Tokenizer (per preprocessed code line).
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Punct(char),
}

fn tokens(code: &str) -> Vec<Tok<'_>> {
    let mut out = Vec::new();
    let b = code.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        if c.is_ascii_alphanumeric() || c == '_' {
            let start = i;
            while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push(Tok::Ident(&code[start..i]));
        } else if c.is_whitespace() {
            i += 1;
        } else {
            out.push(Tok::Punct(c));
            i += 1;
        }
    }
    out
}

fn ident_at<'a>(toks: &'a [Tok<'a>], i: usize) -> Option<&'a str> {
    match toks.get(i) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct_at(toks: &[Tok<'_>], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(Tok::Punct(p)) if *p == c)
}

// ---------------------------------------------------------------------------
// Waivers.
// ---------------------------------------------------------------------------

/// Parses `efind-lint: allow(key, reason)` occurrences out of comment
/// text. Returns `(key, reason)` pairs; a missing/empty reason yields an
/// empty string (which never justifies a waiver).
fn parse_waivers(comment: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("efind-lint:") {
        rest = &rest[pos + "efind-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            break;
        };
        let body = &rest[open + "allow(".len()..];
        let Some(close) = body.find(')') else { break };
        let inner = &body[..close];
        let (key, reason) = match inner.split_once(',') {
            Some((k, r)) => (k.trim().to_string(), r.trim().to_string()),
            None => (inner.trim().to_string(), String::new()),
        };
        out.push((key, reason));
        rest = &body[close..];
    }
    out
}

// ---------------------------------------------------------------------------
// Rule scoping.
// ---------------------------------------------------------------------------

/// Crates whose outputs (records, counters, virtual times, fingerprints)
/// are observable — where unordered iteration can leak into results.
const OBSERVABLE_CRATES: &[&str] = &["core", "mapreduce", "cluster", "dfs", "index", "workloads"];

/// Injection modules: all randomness must route through
/// `efind_common::det`.
const INJECTION_FILES: &[&str] = &["fault.rs", "chaos.rs", "corrupt.rs", "netsplit.rs"];

/// Hot-path crates where per-record/per-lookup loops must not reach an
/// injection plan without a Quiet/Armed classification (L007). These are
/// the crates the quiet-path monomorphization pinned: a draw or CRC
/// verify inside their loops is exactly the per-iteration dispatch a
/// plan's `is_quiet()` check is supposed to hoist.
const HOT_PATH_CRATES: &[&str] = &["core", "mapreduce", "cluster", "dfs"];

/// Injection-plan draw/verify calls that are priced per lookup, record,
/// or task when armed — the calls L007 requires a guard for.
const INJECTION_CALL_TOKENS: &[&str] = &[
    "should_fail",
    "outcome",
    "draw_unit",
    "draw_unit_u64",
    "crc32",
    "crash_time",
    "is_dead_at",
    "is_isolated_at",
    "slowdown_at",
    "isolation_window",
    "isolated_forever_from",
    "suspect_delay",
    "chunk_replica_corrupt",
    "shuffle_corrupt",
    "cache_corrupt",
    "response_corrupt",
    "chunk_integrity",
];

/// Tokens whose presence in the enclosing function shows the layer was
/// classified before (or while) reaching the loop.
const GUARD_TOKENS: &[&str] = &["is_quiet", "verification_enabled", "FaultState"];

/// True for identifiers that count as a Quiet/Armed guard: a plan's
/// `is_quiet()` plus the `verifies_*`/`corrupts_*` plan classifiers.
fn is_guard_ident(s: &str) -> bool {
    GUARD_TOKENS.contains(&s) || s.starts_with("verifies_") || s.starts_with("corrupts_")
}

/// Extracts the crate name from a path like `crates/<name>/src/...`.
fn crate_of(path: &str) -> Option<&str> {
    let norm = path.strip_prefix("./").unwrap_or(path);
    let rest = norm.split("crates/").nth(1)?;
    rest.split('/').next()
}

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

// ---------------------------------------------------------------------------
// The scanner.
// ---------------------------------------------------------------------------

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];
const RAW_DRAW_TOKENS: &[&str] = &[
    "fx_hash_bytes",
    "fx_hash_datum",
    "mix64",
    "SmallRng",
    "StdRng",
    "thread_rng",
    "seed_from_u64",
    "from_entropy",
];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Scans one file's source. `path` decides rule scoping (crate name,
/// injection-module status) and appears in findings; `source` is the file
/// text. Test modules (`#[cfg(test)]`) are exempt from every rule.
pub fn scan_file(path: &str, source: &str) -> Vec<Finding> {
    let lines = preprocess(source);
    let krate = crate_of(path).unwrap_or("");
    let fname = file_name(path);
    let observable = OBSERVABLE_CRATES.contains(&krate);
    let injection = INJECTION_FILES.contains(&fname) && path.contains("crates/");
    let is_det_module = path.ends_with("common/src/det.rs");
    let is_registry_module = path.ends_with("common/src/intern.rs");
    let panic_scoped =
        krate == "ql" || path.ends_with("mapreduce/src/runner.rs") || fname == "l005.rs";
    // L007 scope: hot-path crate sources. The injection modules
    // themselves are exempt (they *implement* the draws), as are
    // integration tests (never on the measured path).
    let hot_path = HOT_PATH_CRATES.contains(&krate) && path.contains("/src/") && !injection;

    // Pass A: collect hash-collection identifiers declared in this file.
    let mut hash_names: Vec<String> = Vec::new();
    for info in &lines {
        if info.in_test {
            continue;
        }
        let toks = tokens(&info.code);
        for i in 0..toks.len() {
            let Some(t) = ident_at(&toks, i) else {
                continue;
            };
            if !HASH_TYPES.contains(&t) {
                continue;
            }
            // `name : [&] [mut] [path ::]* T <` — walk back over the type
            // path and reference sigils to the `ident :` that declared it
            // (a field, a `let` with annotation, or an fn parameter).
            let mut j = i;
            loop {
                if j >= 3
                    && punct_at(&toks, j - 1, ':')
                    && punct_at(&toks, j - 2, ':')
                    && ident_at(&toks, j - 3).is_some()
                {
                    j -= 3; // path segment `seg ::`
                } else if j >= 1
                    && (punct_at(&toks, j - 1, '&')
                        || punct_at(&toks, j - 1, '\'')
                        || matches!(ident_at(&toks, j - 1), Some("mut") | Some("dyn")))
                {
                    j -= 1;
                } else {
                    break;
                }
            }
            if j >= 2 && punct_at(&toks, j - 1, ':') && !punct_at(&toks, j - 2, ':') {
                if let Some(name) = ident_at(&toks, j - 2) {
                    if name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_')
                    {
                        hash_names.push(name.to_string());
                    }
                }
            }
            // `let [mut] name = ... T::new/default/with_capacity(...)`.
            if let Some(p) = toks[..i].iter().position(|t| *t == Tok::Ident("let")) {
                let mut k = p + 1;
                if ident_at(&toks, k) == Some("mut") {
                    k += 1;
                }
                if let Some(name) = ident_at(&toks, k) {
                    if toks[k + 1..i].iter().any(|t| matches!(t, Tok::Punct('='))) {
                        hash_names.push(name.to_string());
                    }
                }
            }
        }
    }
    hash_names.sort();
    hash_names.dedup();

    // Pass A': float-typed bindings (`let mut total = 0.0;`,
    // `acc: f64`), so L006 can spot `total += v` even when the
    // accumulation line itself carries no float marker.
    let mut float_names: Vec<String> = Vec::new();
    for info in &lines {
        if info.in_test {
            continue;
        }
        let floaty =
            info.code.contains("f64") || info.code.contains("f32") || has_float_literal(&info.code);
        if !floaty {
            continue;
        }
        let toks = tokens(&info.code);
        if let Some(p) = toks.iter().position(|t| *t == Tok::Ident("let")) {
            let mut k = p + 1;
            if ident_at(&toks, k) == Some("mut") {
                k += 1;
            }
            if let Some(name) = ident_at(&toks, k) {
                if punct_at(&toks, k + 1, '=') || punct_at(&toks, k + 1, ':') {
                    float_names.push(name.to_string());
                }
            }
        }
        for i in 0..toks.len() {
            if matches!(ident_at(&toks, i), Some("f64") | Some("f32"))
                && i >= 2
                && punct_at(&toks, i - 1, ':')
            {
                if let Some(name) = ident_at(&toks, i - 2) {
                    float_names.push(name.to_string());
                }
            }
        }
    }
    float_names.sort();
    float_names.dedup();

    // Effective waivers per line: same-line comment plus the directly
    // preceding run of comment-only lines.
    let line_waivers: Vec<Vec<(String, String)>> =
        lines.iter().map(|l| parse_waivers(&l.comment)).collect();
    let comment_only: Vec<bool> = lines
        .iter()
        .map(|l| l.code.trim().is_empty() && !l.comment.is_empty())
        .collect();
    let waiver_for = |line_idx: usize, key: &str| -> Option<String> {
        let check = |idx: usize| -> Option<String> {
            line_waivers[idx]
                .iter()
                .find(|(k, r)| k == key && !r.is_empty())
                .map(|(_, r)| r.clone())
        };
        if let Some(r) = check(line_idx) {
            return Some(r);
        }
        let mut i = line_idx;
        while i > 0 && comment_only[i - 1] {
            i -= 1;
            if let Some(r) = check(i) {
                return Some(r);
            }
        }
        None
    };

    let mut findings = Vec::new();
    let mut push = |code: LintCode, line: usize, message: String, hint: &str| {
        let waived = waiver_for(line, code.waiver_key());
        findings.push(Finding {
            code,
            file: path.to_string(),
            line: line + 1,
            message,
            hint: hint.to_string(),
            waived,
        });
    };

    // Lines already flagged by L007, so nested loops report each call once.
    let mut l007_lines: Vec<usize> = Vec::new();

    for (idx, info) in lines.iter().enumerate() {
        if info.in_test {
            continue;
        }
        let toks = tokens(&info.code);

        // L001: wall-clock sources outside crates/bench.
        if krate != "bench" {
            for t in &toks {
                if let Tok::Ident(s) = t {
                    if *s == "Instant" || *s == "SystemTime" {
                        push(
                            LintCode::L001,
                            idx,
                            format!("wall-clock time source `{s}` outside crates/bench"),
                            "charge virtual time (SimTime/SimDuration); real clocks break \
                             bit-identical double runs",
                        );
                        break;
                    }
                }
            }
        }

        // L003: raw draws in injection modules.
        if injection && !is_det_module {
            for t in &toks {
                if let Tok::Ident(s) = t {
                    if RAW_DRAW_TOKENS.contains(s) {
                        push(
                            LintCode::L003,
                            idx,
                            format!("raw seeded/hash draw `{s}` in injection code"),
                            "route every injection decision through efind_common::det \
                             (draw_unit/draw_unit_u64), the one audited implementation",
                        );
                        break;
                    }
                }
            }
        }

        // L005: panics in runner/ql error paths.
        if panic_scoped {
            for i in 0..toks.len() {
                let hit = match ident_at(&toks, i) {
                    Some("unwrap") | Some("expect") => {
                        i > 0 && punct_at(&toks, i - 1, '.') && punct_at(&toks, i + 1, '(')
                    }
                    Some(m) if PANIC_MACROS.contains(&m) => punct_at(&toks, i + 1, '!'),
                    _ => false,
                };
                if hit {
                    let what = ident_at(&toks, i).unwrap_or("panic");
                    push(
                        LintCode::L005,
                        idx,
                        format!("`{what}` on a runner/ql error path"),
                        "return a structured efind_common::Error (the PR-1 panic-free \
                         contract); panics abort the whole simulated cluster",
                    );
                    break;
                }
            }
        }

        // L007: injection-plan calls in per-record/per-lookup loops must
        // be reached through a Quiet/Armed classification. A loop header
        // (`for`/`while`/`loop`) opens the scan; the loop body — plus the
        // header itself, where `while plan.x(..)` puts the call — is
        // searched for draw/verify calls; the enclosing function, from
        // its `fn` line down to the loop's end, must mention a guard.
        if hot_path {
            let has_kw = |k: &str| toks.contains(&Tok::Ident(k));
            let looped = (has_kw("for") && !has_kw("impl")) || has_kw("while") || has_kw("loop");
            if looped {
                // `(line, call)` injection hits on the header + body.
                let mut hits: Vec<(usize, String)> = Vec::new();
                let mut collect = |j: usize, ltoks: &[Tok<'_>]| {
                    for i in 0..ltoks.len() {
                        if let Some(t) = ident_at(ltoks, i) {
                            if INJECTION_CALL_TOKENS.contains(&t) && punct_at(ltoks, i + 1, '(') {
                                hits.push((j, t.to_string()));
                            }
                        }
                    }
                };
                let has_fn = |j: usize| tokens(&lines[j].code).contains(&Tok::Ident("fn"));
                collect(idx, &toks);
                let mut body_end = idx;
                if info.code.trim_end().ends_with('{') {
                    let base = info.depth_start;
                    for (j, body) in lines.iter().enumerate().skip(idx + 1) {
                        if body.depth_start <= base {
                            break;
                        }
                        collect(j, &tokens(&body.code));
                        body_end = j;
                    }
                }
                if !hits.is_empty() {
                    // The enclosing `fn` item: the nearest preceding line
                    // declaring one at a shallower brace depth.
                    let fn_start = (0..idx)
                        .rev()
                        .find(|&j| lines[j].depth_start < info.depth_start && has_fn(j))
                        .unwrap_or(0);
                    let guarded = (fn_start..=body_end).any(|j| {
                        tokens(&lines[j].code)
                            .iter()
                            .any(|t| matches!(t, Tok::Ident(s) if is_guard_ident(s)))
                    });
                    if !guarded {
                        for (j, call) in hits {
                            if l007_lines.contains(&j) {
                                continue;
                            }
                            l007_lines.push(j);
                            push(
                                LintCode::L007,
                                j,
                                format!(
                                    "injection call `{call}` in a hot-path loop with no \
                                     Quiet/Armed guard"
                                ),
                                "ask the plan once outside the loop (is_quiet / verifies_*) \
                                 and branch on it, so quiet runs never reach the \
                                 per-iteration draw",
                            );
                        }
                    }
                }
            }
        }

        // L004: counter-name literals.
        if !is_registry_module {
            let names_helper =
                info.code.contains("names::op(") || info.code.contains("names::idx(");
            for (si, lit) in info.strings.iter().enumerate() {
                let counter_like = lit.starts_with("efind.") || lit.starts_with("mr.");
                if counter_like {
                    if lit.ends_with('.') || lit.contains('*') {
                        continue; // prefix constant / registry pattern
                    }
                    let ok = if lit.contains('{') {
                        match lit.rsplit_once('}') {
                            Some((_, tail)) => {
                                let leaf = tail.trim_start_matches('.');
                                leaf.is_empty() || registry::counter_leaf_registered(leaf)
                            }
                            None => true,
                        }
                    } else {
                        registry::counter_name_registered(lit)
                    };
                    if !ok {
                        push(
                            LintCode::L004,
                            idx,
                            format!("counter name `{lit}` is not registered"),
                            "register the counter family in \
                             efind_common::intern::registry (or fix the typo)",
                        );
                    }
                } else if names_helper && si + 1 == info.strings.len() {
                    // The trailing literal of a names::op/names::idx call
                    // is the `<what>` leaf.
                    if !registry::counter_leaf_registered(lit) {
                        push(
                            LintCode::L004,
                            idx,
                            format!("counter leaf `{lit}` is not registered"),
                            "register the leaf in efind_common::intern::registry \
                             COUNTER_LEAVES (or fix the typo)",
                        );
                    }
                }
            }
        }

        if !observable || hash_names.is_empty() {
            continue;
        }

        // L002: iteration over a hash collection.
        let mut l002_hit: Option<String> = None;
        for i in 0..toks.len() {
            if let Some(n) = ident_at(&toks, i) {
                if hash_names.iter().any(|h| h == n)
                    && punct_at(&toks, i + 1, '.')
                    && ident_at(&toks, i + 2).is_some_and(|m| ITER_METHODS.contains(&m))
                    && punct_at(&toks, i + 3, '(')
                {
                    l002_hit = Some(n.to_string());
                    break;
                }
            }
        }
        if l002_hit.is_none() {
            if let Some(in_pos) = toks.iter().position(|t| *t == Tok::Ident("in")) {
                if toks[..in_pos].contains(&Tok::Ident("for")) {
                    for i in in_pos + 1..toks.len() {
                        if let Some(n) = ident_at(&toks, i) {
                            if hash_names.iter().any(|h| h == n)
                                && (i + 1 == toks.len() || punct_at(&toks, i + 1, '{'))
                            {
                                l002_hit = Some(n.to_string());
                                break;
                            }
                        }
                    }
                }
            }
        }
        if let Some(n) = l002_hit {
            push(
                LintCode::L002,
                idx,
                format!("iteration over unordered hash collection `{n}`"),
                "hash-map order must never reach observable output: iterate a BTreeMap, \
                 sort the items first, or waive with the reason the order cannot leak",
            );

            // L006: float accumulation fed by that iteration.
            let same_line_sum = toks.contains(&Tok::Ident("sum"))
                && toks
                    .iter()
                    .any(|t| matches!(t, Tok::Ident("f64") | Tok::Ident("f32")));
            let mut l006_line = same_line_sum.then_some(idx);
            if l006_line.is_none() && info.code.trim_end().ends_with('{') {
                // Scan the loop body for float `+=` accumulation.
                let base = info.depth_start;
                for (j, body) in lines.iter().enumerate().skip(idx + 1) {
                    if body.depth_start <= base {
                        break;
                    }
                    let btoks = tokens(&body.code);
                    let plus_eq = btoks
                        .windows(2)
                        .position(|w| matches!(w, [Tok::Punct('+'), Tok::Punct('=')]));
                    let Some(pe) = plus_eq else { continue };
                    let lhs_float = (0..pe)
                        .rev()
                        .find_map(|k| ident_at(&btoks, k))
                        .is_some_and(|lhs| float_names.iter().any(|f| f == lhs));
                    let floaty = body.code.contains("f64")
                        || body.code.contains("f32")
                        || has_float_literal(&body.code)
                        || lhs_float;
                    if floaty {
                        l006_line = Some(j);
                        break;
                    }
                }
            }
            if let Some(j) = l006_line {
                push(
                    LintCode::L006,
                    j,
                    format!("float accumulation over unordered collection `{n}`"),
                    "float addition is not associative: iterate in sorted order (or \
                     accumulate integers) so the sum is order-independent",
                );
            }
        }
    }
    findings
}

fn has_float_literal(code: &str) -> bool {
    let b = code.as_bytes();
    (1..b.len().saturating_sub(1))
        .any(|i| b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit())
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

/// Directories never scanned (generated, vendored, or fixture corpora).
fn skip_dir(path: &Path) -> bool {
    let s = path.to_string_lossy();
    s.contains("/target") || s.contains("/vendor") || s.contains("tests/fixtures")
}

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if !skip_dir(&path) {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans a workspace root: `crates/*/src`, `crates/*/tests`, `src`,
/// `tests`, and `examples` below `root`, excluding `vendor/`, `target/`,
/// and fixture corpora. Files are visited in sorted order, so the report
/// is deterministic.
pub fn scan_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    for sub in ["crates", "src", "tests", "examples"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    scan_paths(root, &files)
}

/// Scans an explicit file list; `root` is stripped from displayed paths.
pub fn scan_paths(root: &Path, files: &[std::path::PathBuf]) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    for path in files {
        let source = std::fs::read_to_string(path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        report.findings.extend(scan_file(&label, &source));
        report.files_scanned += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(findings: &[Finding]) -> Vec<LintCode> {
        findings
            .iter()
            .filter(|f| f.waived.is_none())
            .map(|f| f.code)
            .collect()
    }

    #[test]
    fn l001_wall_clock_outside_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let f = scan_file("crates/core/src/runtime.rs", src);
        assert_eq!(codes(&f), vec![LintCode::L001]);
        // The same line inside crates/bench is fine.
        assert!(scan_file("crates/bench/src/bin/figures.rs", src).is_empty());
    }

    #[test]
    fn l001_waiver_needs_a_reason() {
        let src = "// efind-lint: allow(wall-clock)\nlet t = Instant::now();\n";
        let f = scan_file("crates/core/src/x.rs", src);
        assert_eq!(codes(&f), vec![LintCode::L001], "reasonless waiver ignored");

        let src =
            "// efind-lint: allow(wall-clock, progress display only)\nlet t = Instant::now();\n";
        let f = scan_file("crates/core/src/x.rs", src);
        assert!(codes(&f).is_empty());
        assert_eq!(f.len(), 1, "waived finding still reported");
        assert_eq!(f[0].waived.as_deref(), Some("progress display only"));
    }

    #[test]
    fn l002_iteration_over_hash_map() {
        let src = "struct S { m: FxHashMap<u32, u32> }\n\
                   fn f(s: &S) { for (k, v) in &s.m { let _ = (k, v); } }\n";
        let f = scan_file("crates/mapreduce/src/x.rs", src);
        assert_eq!(codes(&f), vec![LintCode::L002]);
        // Non-observable crates are out of scope.
        assert!(scan_file("crates/analyze/src/x.rs", src).is_empty());
    }

    #[test]
    fn l002_method_iteration_and_waiver() {
        let src = "fn f() { let mut m = FxHashMap::default();\n\
                   m.insert(1, 2);\n\
                   // efind-lint: allow(unordered-iter, values summed; addition commutes)\n\
                   let s: u64 = m.values().sum();\n}\n";
        let f = scan_file("crates/dfs/src/x.rs", src);
        assert!(codes(&f).is_empty());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, LintCode::L002);
        assert!(f[0].waived.is_some());
    }

    #[test]
    fn l003_raw_draw_in_injection_module() {
        let src = "fn roll(seed: u64) -> u64 { mix64(seed) }\n";
        let f = scan_file("crates/cluster/src/chaos.rs", src);
        assert_eq!(codes(&f), vec![LintCode::L003]);
        // Outside injection modules the same code is fine.
        assert!(scan_file("crates/cluster/src/sched.rs", src).is_empty());
        // det.rs is the audited implementation.
        assert!(scan_file("crates/common/src/det.rs", src).is_empty());
    }

    #[test]
    fn l004_unregistered_counter_name() {
        let src = "fn f(c: &mut Counters) { c.add(\"efind.op.0.lokups\", 1); }\n";
        let f = scan_file("crates/core/src/x.rs", src);
        assert_eq!(codes(&f), vec![LintCode::L004]);
        let src = "fn f(c: &mut Counters) { c.add(\"efind.op.0.lookups\", 1); }\n";
        assert!(scan_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn l004_template_trailing_leaf() {
        let ok = "let h = CounterHandle::new(&format!(\"efind.{op}.{j}.fault.degraded\"));\n";
        assert!(scan_file("crates/core/src/x.rs", ok).is_empty());
        let bad = "let h = CounterHandle::new(&format!(\"efind.{op}.{j}.fault.sadness\"));\n";
        assert_eq!(
            codes(&scan_file("crates/core/src/x.rs", bad)),
            vec![LintCode::L004]
        );
        // Fully dynamic templates and prefixes have nothing to check.
        let dynamic = "let n = format!(\"efind.{op}.{what}\"); let p = \"efind.\";\n";
        assert!(scan_file("crates/core/src/x.rs", dynamic).is_empty());
    }

    #[test]
    fn l004_tenancy_counter_names() {
        // The multi-tenant ledger templates its tenant segment; the leaf
        // after the placeholder must still be a registered leaf.
        for ok in [
            "c.add(&format!(\"efind.tenant.{name}.granted\"), 1);\n",
            "c.add(&format!(\"efind.tenant.{name}.quota.rejected\"), 1);\n",
            "c.add(&format!(\"efind.tenant.{name}.shed.lookups\"), n);\n",
            "let h = CounterHandle::new(&format!(\"efind.tenant.{t}.cache.evictions\"));\n",
            "c.add(\"efind.admission.submitted\", 1);\n",
            "c.add(\"efind.admission.quota.rejected\", 1);\n",
        ] {
            let src = format!("fn f(c: &mut Counters) {{ {ok} }}\n");
            assert!(
                scan_file("crates/mapreduce/src/tenancy.rs", &src).is_empty(),
                "expected clean: {ok}"
            );
        }
        for bad in [
            "c.add(&format!(\"efind.tenant.{name}.grants\"), 1);\n",
            "c.add(\"efind.admission.throttled\", 1);\n",
        ] {
            let src = format!("fn f(c: &mut Counters) {{ {bad} }}\n");
            assert_eq!(
                codes(&scan_file("crates/mapreduce/src/tenancy.rs", &src)),
                vec![LintCode::L004],
                "expected L004: {bad}"
            );
        }
    }

    #[test]
    fn l005_panic_in_runner_scope() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let f = scan_file("crates/mapreduce/src/runner.rs", src);
        assert_eq!(codes(&f), vec![LintCode::L005]);
        assert!(scan_file("crates/ql/src/compile.rs", src)
            .iter()
            .any(|f| f.code == LintCode::L005));
        // Other modules are out of scope for L005.
        assert!(scan_file("crates/mapreduce/src/job.rs", src).is_empty());
        // unwrap_or is not unwrap.
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(scan_file("crates/mapreduce/src/runner.rs", src).is_empty());
    }

    #[test]
    fn l006_float_accumulation() {
        let src = "fn f(m: &FxHashMap<u32, f64>) -> f64 {\n\
                   let mut total = 0.0;\n\
                   for v in m.values() {\n\
                   total += *v as f64;\n\
                   }\n\
                   total\n}\n";
        let f = scan_file("crates/core/src/x.rs", src);
        let codes_all: Vec<LintCode> = codes(&f);
        assert!(codes_all.contains(&LintCode::L002));
        assert!(codes_all.contains(&LintCode::L006));
        // Integer accumulation is order-independent: L002 only.
        let src = "fn f(m: &FxHashMap<u32, u64>) -> u64 {\n\
                   let mut total = 0;\n\
                   for v in m.values() {\n\
                   total += *v;\n\
                   }\n\
                   total\n}\n";
        assert_eq!(
            codes(&scan_file("crates/core/src/x.rs", src)),
            vec![LintCode::L002]
        );
    }

    #[test]
    fn l007_unguarded_injection_in_loop() {
        let src = "fn f(plan: &FaultPlan, keys: &[Datum]) -> u64 {\n\
                   let mut n = 0;\n\
                   for key in keys {\n\
                   if plan.outcome(\"s.\", key, 0) == FaultKind::Fail { n += 1; }\n\
                   }\n\
                   n\n}\n";
        let f = scan_file("crates/core/src/x.rs", src);
        assert_eq!(codes(&f), vec![LintCode::L007]);
        // Non-hot-path crates are out of scope.
        assert!(scan_file("crates/analyze/src/x.rs", src).is_empty());
        // The injection modules implement the draws — exempt.
        assert!(scan_file("crates/core/src/fault.rs", src).is_empty());
        // So are integration tests (never on the measured path).
        assert!(scan_file("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn l007_guard_in_enclosing_fn_suppresses() {
        // An early-return classification before the loop is the hoisted
        // dispatch the rule wants.
        let src = "fn f(plan: &FaultPlan, keys: &[Datum]) -> u64 {\n\
                   if plan.is_quiet() { return 0; }\n\
                   let mut n = 0;\n\
                   for key in keys {\n\
                   if plan.outcome(\"s.\", key, 0) == FaultKind::Fail { n += 1; }\n\
                   }\n\
                   n\n}\n";
        assert!(scan_file("crates/core/src/x.rs", src).is_empty());
        // A `FaultState` parameter counts: accessors only hold one when
        // the layer classified Armed.
        let src = "fn f(fault: &FaultState, keys: &[Datum]) -> u64 {\n\
                   let mut n = 0;\n\
                   for key in keys {\n\
                   if fault.plan.outcome(\"s.\", key, 0) == FaultKind::Fail { n += 1; }\n\
                   }\n\
                   n\n}\n";
        assert!(scan_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn l007_partition_queries_in_loops_need_a_guard() {
        // A per-record partition query without a Quiet/Armed guard is the
        // per-iteration dispatch `is_quiet()` exists to hoist.
        let src = "fn f(plan: &PartitionPlan, keys: &[Datum], t: SimTime) -> u64 {\n\
                   let mut n = 0;\n\
                   for _key in keys {\n\
                   if plan.is_isolated_at(NodeId(0), t) { n += 1; }\n\
                   }\n\
                   n\n}\n";
        let f = scan_file("crates/mapreduce/src/x.rs", src);
        assert_eq!(codes(&f), vec![LintCode::L007]);
        // The netsplit module implements the plan — exempt.
        assert!(scan_file("crates/cluster/src/netsplit.rs", src).is_empty());

        // Classified before the loop: the hoisted dispatch the rule wants.
        let src = "fn f(plan: &PartitionPlan, keys: &[Datum], t: SimTime) -> u64 {\n\
                   if plan.is_quiet() { return 0; }\n\
                   let mut n = 0;\n\
                   for _key in keys {\n\
                   if plan.slowdown_at(NodeId(0), t) > 1.0 { n += 1; }\n\
                   }\n\
                   n\n}\n";
        assert!(scan_file("crates/mapreduce/src/x.rs", src).is_empty());
    }

    #[test]
    fn l007_while_header_call_and_waiver() {
        // The call sits in the `while` condition itself, not the body.
        let src = "fn f(plan: &CorruptionPlan, kb: &[u8]) {\n\
                   let mut attempt = 0;\n\
                   while plan.response_corrupt(\"s.\", kb, attempt) {\n\
                   attempt += 1;\n\
                   }\n}\n";
        let f = scan_file("crates/core/src/x.rs", src);
        assert_eq!(codes(&f), vec![LintCode::L007]);

        let src = "fn f(plan: &CorruptionPlan, kb: &[u8]) {\n\
                   let mut attempt = 0;\n\
                   // efind-lint: allow(unguarded-injection, caller classifies the layer)\n\
                   while plan.response_corrupt(\"s.\", kb, attempt) {\n\
                   attempt += 1;\n\
                   }\n}\n";
        let f = scan_file("crates/core/src/x.rs", src);
        assert!(codes(&f).is_empty());
        assert_eq!(f.len(), 1, "waived finding still reported");
        assert!(f[0].waived.is_some());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n";
        assert!(scan_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "fn f() { let s = \"Instant::now()\"; } // Instant::now in a comment\n";
        assert!(scan_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn report_rendering() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let report = LintReport {
            findings: scan_file("crates/core/src/x.rs", src),
            files_scanned: 1,
        };
        assert!(!report.is_passing());
        assert!(report.to_text().contains("error[L001]"));
        let json = report.to_json();
        assert!(json.contains("\"code\": \"L001\""));
        assert!(json.contains("\"active\": 1"));
    }
}
