//! The BEAS rule catalog: project invariants enforced over token streams.
//!
//! Each rule guards an invariant that was once a shipped bug class (see
//! `crates/lint/README.md` for the full catalog and the history behind each
//! rule).  Rules are heuristic by design — they match token patterns, not
//! types — so every rule supports an explicit, *justified* suppression:
//!
//! ```text
//! // beas-lint: allow(L004) -- building the reduced database is the point
//! ```
//!
//! A suppression comment applies to findings on its own line and on the
//! next *code* line below it — intervening comment lines are skipped, so a
//! justification may continue over several comment lines before the code it
//! excuses.  A malformed suppression (bad rule id, missing `-- reason`) is
//! itself a finding (`L000`), so suppressions cannot rot silently.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Evaluation entry points whose `Result` must propagate (rule L001).
const EVAL_FNS: &[&str] = &["evaluate", "evaluate_predicate"];

/// Combinators that silently swallow an `Err` (rule L001).
const SWALLOWERS: &[&str] = &["unwrap_or", "unwrap_or_else", "unwrap_or_default", "ok"];

/// Hash/tree containers whose key type rule L002 inspects.
const KEYED_CONTAINERS: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet"];

/// The canonicalization entry points of `beas_common::key` (rule L002).
const KEY_FNS: &[&str] = &[
    "index_key",
    "join_key",
    "canonical_key_value",
    "is_canonical_key_value",
];

/// Blocking-operator files rule L003 applies to.
const BLOCKING_FILES: &[&str] = &["src/executor.rs"];

/// Tokens that prove a blocking loop cooperates with the session quota
/// (rule L003): a direct checkpoint, or delegation to one of the
/// checkpointing drains.
const QUOTA_TOKENS: &[&str] = &[
    "checkpoint",
    "charge_tuples",
    "check_rows",
    "drain_checked",
    "aggregate_with_quota",
    "aggregate_partial_with_quota",
];

/// Storage mutators that must stay behind the maintenance facade (L004).
const MUTATORS: &[&str] = &[
    "table_mut",
    "create_table",
    "drop_table",
    "delete_where",
    "add_row",
    "remove_rows",
    "insert_row",
];

/// Files allowed to call [`MUTATORS`] directly: the storage crate itself
/// (prefix match) plus the maintenance facade and index-maintenance
/// modules.
const MUTATION_FACADES: &[&str] = &[
    "crates/storage/",
    "crates/core/src/system.rs",
    "crates/core/src/maintenance.rs",
    "crates/access/src/indexes.rs",
];

/// Files holding code that runs concurrently (rule L005): shared-state
/// primitives there must come from the approved set (`Arc`, `Mutex`,
/// `RwLock`, atomics, `Condvar`, scoped threads).
const CONCURRENT_FILES: &[&str] = &[
    "crates/service/src/",
    "crates/common/src/quota.rs",
    "crates/engine/src/executor.rs",
];

/// Single-threaded interior-mutability / escape-hatch primitives banned in
/// [`CONCURRENT_FILES`] (rule L005).  `static mut` is banned everywhere.
const NON_APPROVED_SYNC: &[&str] = &["RefCell", "UnsafeCell", "transmute", "thread_local"];

/// Columnar-kernel files rule L008 applies to (suffix match): the modules
/// holding the vectorized filter / projection / hash kernels.
const KERNEL_FILES: &[&str] = &["src/vectorized.rs", "src/columnar.rs"];

/// The batched canonical-hash entry points of `beas_common::key` (rule
/// L008), accepted alongside [`KEY_FNS`].
const CANONICAL_HASH_FNS: &[&str] = &["canonical_hash", "canonical_key_hash"];

/// Tokens that prove a kernel file computes hashes or keys containers
/// (rule L008): a hand-rolled hasher, or a keyed container.
const HASHING_TOKENS: &[&str] = &["Hasher", "DefaultHasher", "Hash"];

/// Clock types whose raw `::now()` is banned outside the sanctioned clock
/// module (rule L009): all timing must route through `beas_obs::clock` so
/// the trace layer owns every timestamp source.
const RAW_CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

/// Files allowed to read the raw clock (prefix match, rule L009): the
/// observability crate itself (it *is* the sanctioned clock) and the bench
/// harness (criterion-style timing loops are measurement, not product
/// timing).  Tests/benches/examples are already exempt via test-code
/// scoping.
const RAW_CLOCK_FILES: &[&str] = &["crates/obs/", "crates/bench/"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`L001` .. `L009`, or `L000` for a malformed suppression).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Per-file facts the path alone determines.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Whole file is test/bench/example code (path-based).
    pub is_test_code: bool,
    /// The file is a crate root (`src/lib.rs`, `src/main.rs`,
    /// `src/bin/*.rs`) of a non-shim crate.
    pub is_crate_root: bool,
}

impl FileContext {
    /// Derive the context from a workspace-relative path.
    pub fn from_path(path: &str) -> FileContext {
        let norm = path.replace('\\', "/");
        let components: Vec<&str> = norm.split('/').collect();
        let is_test_code = components
            .iter()
            .any(|c| matches!(*c, "tests" | "benches" | "examples"));
        let is_shim = components.contains(&"shims");
        let is_crate_root = !is_shim
            && (norm.ends_with("src/lib.rs")
                || norm.ends_with("src/main.rs")
                || (norm.contains("/src/bin/") && norm.ends_with(".rs")));
        FileContext {
            path: norm,
            is_test_code,
            is_crate_root,
        }
    }
}

/// Lint one file's source text.  Returned findings are already filtered
/// through suppressions and test-code scoping, sorted by line.
pub fn lint_source(src: &str, ctx: &FileContext) -> Vec<Finding> {
    let all = lex(src);
    let sig: Vec<&Token> = all
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let test_spans = test_line_spans(&sig);
    let in_test =
        |line: u32| ctx.is_test_code || test_spans.iter().any(|r| r.contains(&(line as usize)));

    let (suppressions, mut findings) = parse_suppressions(&all, ctx);

    check_l001(&sig, ctx, &mut findings);
    check_l002(&sig, ctx, &in_test, &mut findings);
    check_l003(&sig, ctx, &mut findings);
    check_l004(&sig, ctx, &mut findings);
    check_l005(&sig, ctx, &mut findings);
    check_l006(&all, ctx, &mut findings);
    check_l007(&sig, &all, ctx, &mut findings);
    check_l008(&sig, &all, ctx, &mut findings);
    check_l009(&sig, ctx, &mut findings);

    findings.retain(|f| {
        // L006/L007 apply everywhere; the structural rules skip test code
        let scoped_out = !matches!(f.rule, "L000" | "L006" | "L007") && in_test(f.line);
        let suppressed = suppressions
            .get(f.rule)
            .map(|lines| lines.contains(&f.line))
            .unwrap_or(false);
        !scoped_out && !suppressed
    });
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Line ranges covered by `#[cfg(test)] mod ... { ... }` items.
fn test_line_spans(sig: &[&Token]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < sig.len() {
        let is_cfg_test = sig[i].is_punct('#')
            && sig[i + 1].is_punct('[')
            && sig[i + 2].is_ident("cfg")
            && sig[i + 3].is_punct('(')
            && sig[i + 4].is_ident("test")
            && sig[i + 5].is_punct(')')
            && sig[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // find the `mod name {` that follows (possibly after more attrs)
        let mut j = i + 7;
        while j < sig.len() && !sig[j].is_ident("mod") {
            // another item kind under cfg(test) (fn, use) — span just it?
            // keep it simple: only mod blocks are recognized
            if sig[j].is_punct('{') || sig[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        if j < sig.len() && sig[j].is_ident("mod") {
            if let Some(open) = (j..sig.len()).find(|&k| sig[k].is_punct('{')) {
                if let Some(close) = matching_brace(sig, open) {
                    spans.push(sig[open].line as usize..sig[close].line as usize + 1);
                    i = close;
                    continue;
                }
            }
        }
        i += 1;
    }
    spans
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(sig: &[&Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in sig.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(sig: &[&Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in sig.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Parse `beas-lint: allow(Lnnn) -- reason` suppressions out of comments.
/// Returns rule → suppressed lines, plus `L000` findings for malformed
/// suppressions.
fn parse_suppressions(
    all: &[Token],
    ctx: &FileContext,
) -> (HashMap<String, Vec<u32>>, Vec<Finding>) {
    let mut map: HashMap<String, Vec<u32>> = HashMap::new();
    let mut findings = Vec::new();
    for (i, t) in all.iter().enumerate() {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        // doc comments (`///`, `//!`, `/**`, `/*!`) describe the syntax;
        // only plain comments can *be* suppressions
        if t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = t.text.find("beas-lint:") else {
            continue;
        };
        let rest = t.text[pos + "beas-lint:".len()..].trim();
        match parse_allow(rest) {
            Some((rules, _reason)) => {
                // cover the marker's own line plus the next code line below
                // it; the justification may continue over further comment
                // lines in between
                let next_code_line = all[i + 1..]
                    .iter()
                    .find(|n| !matches!(n.kind, TokenKind::LineComment | TokenKind::BlockComment))
                    .map(|n| n.line);
                for r in rules {
                    let lines = map.entry(r).or_default();
                    lines.push(t.line);
                    lines.push(t.line + 1);
                    if let Some(l) = next_code_line {
                        lines.push(l);
                    }
                }
            }
            None => findings.push(Finding {
                rule: "L000",
                file: ctx.path.clone(),
                line: t.line,
                message: "malformed suppression: expected \
                    `beas-lint: allow(Lnnn) -- reason`"
                    .to_string(),
            }),
        }
    }
    (map, findings)
}

/// Parse `allow(L004)` or `allow(L002, L004) -- reason`, requiring a
/// non-empty reason after `--`.
fn parse_allow(rest: &str) -> Option<(Vec<String>, String)> {
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .collect();
    if rules.is_empty()
        || !rules.iter().all(|r| {
            r.len() == 4 && r.starts_with('L') && r[1..].chars().all(|c| c.is_ascii_digit())
        })
    {
        return None;
    }
    let tail = rest[close + 1..].trim_start();
    let reason = tail.strip_prefix("--")?.trim();
    if reason.is_empty() {
        return None;
    }
    Some((rules, reason.to_string()))
}

/// L001 — a `Result` from the shared expression evaluator must propagate:
/// `evaluate(..)`/`evaluate_predicate(..)` chained into
/// `unwrap_or`/`unwrap_or_else`/`unwrap_or_default`/`ok` silently converts
/// a type error into a wrong answer (the PR 2 baseline/bounded divergence
/// bug class).
fn check_l001(sig: &[&Token], ctx: &FileContext, findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < sig.len() {
        if sig[i].kind == TokenKind::Ident
            && EVAL_FNS.contains(&sig[i].text.as_str())
            && sig.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false)
        {
            if let Some(close) = matching_paren(sig, i + 1) {
                // follow the method chain off the call
                let mut k = close + 1;
                while k + 1 < sig.len() && sig[k].is_punct('.') {
                    let m = sig[k + 1];
                    let called = sig.get(k + 2).map(|t| t.is_punct('(')).unwrap_or(false);
                    if m.kind == TokenKind::Ident && SWALLOWERS.contains(&m.text.as_str()) && called
                    {
                        findings.push(Finding {
                            rule: "L001",
                            file: ctx.path.clone(),
                            line: m.line,
                            message: format!(
                                "`{}(..).{}(..)` swallows an evaluation error; \
                                 propagate the Result instead (`?`)",
                                sig[i].text, m.text
                            ),
                        });
                        break;
                    }
                    if !called {
                        break;
                    }
                    match matching_paren(sig, k + 2) {
                        Some(c) => k = c + 1,
                        None => break,
                    }
                }
                i = close;
            }
        }
        i += 1;
    }
}

/// L002 — a hash/tree container keyed by raw `Value`s (or `Vec<Value>` /
/// `Row` / `Arc<[Value]>`) in a file that never canonicalizes through
/// `beas_common::key`
/// means join/index keys can disagree on `-0.0`, integral floats and
/// date-typed strings.  One finding per file, at the first such container.
fn check_l002<F: Fn(u32) -> bool>(
    sig: &[&Token],
    ctx: &FileContext,
    in_test: &F,
    findings: &mut Vec<Finding>,
) {
    if ctx.path.ends_with("crates/common/src/key.rs") {
        return;
    }
    let canonicalizes = sig.iter().any(|t| {
        t.kind == TokenKind::Ident && KEY_FNS.contains(&t.text.as_str()) && !in_test(t.line)
    });
    if canonicalizes {
        return;
    }
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !KEYED_CONTAINERS.contains(&t.text.as_str())
            || in_test(t.line)
        {
            continue;
        }
        if !sig.get(i + 1).map(|t| t.is_punct('<')).unwrap_or(false) {
            continue;
        }
        let at = |k: usize, f: &dyn Fn(&Token) -> bool| sig.get(i + k).is_some_and(|t| f(t));
        let key_is_value = match sig.get(i + 2) {
            Some(t2) if t2.is_ident("Value") || t2.is_ident("Row") => true,
            Some(t2) if t2.is_ident("Vec") => {
                at(3, &|t| t.is_punct('<')) && at(4, &|t| t.is_ident("Value"))
            }
            // a shared or boxed key slice: `Arc<[Value]>`, `Box<[Value]>`
            Some(t2) if ["Arc", "Rc", "Box"].iter().any(|w| t2.is_ident(w)) => {
                at(3, &|t| t.is_punct('<'))
                    && at(4, &|t| t.is_punct('['))
                    && at(5, &|t| t.is_ident("Value"))
            }
            _ => false,
        };
        if key_is_value {
            findings.push(Finding {
                rule: "L002",
                file: ctx.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` keyed by raw values in a file that never calls \
                     `beas_common::key` canonicalization ({}); \
                     route keys through `index_key`/`join_key`",
                    t.text,
                    KEY_FNS.join("/")
                ),
            });
            return;
        }
    }
}

/// L003 — blocking operators (sort/aggregate/drain functions in executor
/// code) buffer their whole input between quota charge points; each one
/// must checkpoint the session quota inside its loop (the PR 6 retrofit).
fn check_l003(sig: &[&Token], ctx: &FileContext, findings: &mut Vec<Finding>) {
    if !BLOCKING_FILES.iter().any(|f| ctx.path.ends_with(f)) {
        return;
    }
    for (name, name_line, body) in fn_items(sig) {
        let lname = name.to_ascii_lowercase();
        let blocking = ["sort", "aggregate", "drain"]
            .iter()
            .any(|k| lname.contains(k))
            && !lname.contains("cmp");
        if !blocking {
            continue;
        }
        let toks = &sig[body];
        let has_loop = toks
            .iter()
            .any(|t| t.is_ident("for") || t.is_ident("while") || t.is_ident("loop"));
        let checkpoints = toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && QUOTA_TOKENS.contains(&t.text.as_str()));
        if has_loop && !checkpoints {
            findings.push(Finding {
                rule: "L003",
                file: ctx.path.clone(),
                line: name_line,
                message: format!(
                    "blocking fn `{name}` loops without a quota checkpoint; \
                     call `QuotaTracker::checkpoint`/`check_rows` (or drain \
                     through `drain_checked`) every BLOCKING_CHECK_ROWS rows"
                ),
            });
        }
    }
}

/// L004 — direct storage mutation (`table_mut`, `create_table`,
/// `delete_where`, index `add_row`/`remove_rows`, ...) outside the storage
/// crate and the maintenance facade bypasses generation bumps and index
/// repair — snapshots and the plan cache silently go stale.
fn check_l004(sig: &[&Token], ctx: &FileContext, findings: &mut Vec<Finding>) {
    if MUTATION_FACADES
        .iter()
        .any(|f| ctx.path.starts_with(f) || ctx.path.ends_with(f))
    {
        return;
    }
    for i in 1..sig.len() {
        let t = sig[i];
        if t.kind == TokenKind::Ident
            && MUTATORS.contains(&t.text.as_str())
            && sig[i - 1].is_punct('.')
            && sig.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        {
            findings.push(Finding {
                rule: "L004",
                file: ctx.path.clone(),
                line: t.line,
                message: format!(
                    "direct storage mutation `.{}(..)` outside the storage \
                     crate / maintenance facade; go through \
                     `BeasSystem::{{insert_rows,delete_rows}}`",
                    t.text
                ),
            });
        }
    }
}

/// L005 — concurrency-sensitive code must stick to the approved sync
/// primitives.  `static mut` is flagged everywhere; single-threaded
/// interior mutability (`RefCell`, `UnsafeCell`, `transmute`,
/// `thread_local`) is flagged in the concurrent crates.
fn check_l005(sig: &[&Token], ctx: &FileContext, findings: &mut Vec<Finding>) {
    for i in 0..sig.len() {
        if sig[i].is_ident("static") && sig.get(i + 1).map(|t| t.is_ident("mut")).unwrap_or(false) {
            findings.push(Finding {
                rule: "L005",
                file: ctx.path.clone(),
                line: sig[i].line,
                message: "`static mut` is never acceptable; use an atomic, \
                    a lock, or `OnceLock`"
                    .to_string(),
            });
        }
    }
    let concurrent = CONCURRENT_FILES
        .iter()
        .any(|f| ctx.path.starts_with(f) || ctx.path.ends_with(f));
    if !concurrent {
        return;
    }
    for t in sig {
        if t.kind == TokenKind::Ident && NON_APPROVED_SYNC.contains(&t.text.as_str()) {
            findings.push(Finding {
                rule: "L005",
                file: ctx.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` in concurrency-sensitive code; approved primitives \
                     are Arc/Mutex/RwLock/atomics/Condvar/scoped threads",
                    t.text
                ),
            });
        }
    }
}

/// L006 — every `#[allow(..)]` / `#![allow(..)]` must carry a
/// justification comment on the same line or the line directly above.
fn check_l006(all: &[Token], ctx: &FileContext, findings: &mut Vec<Finding>) {
    let comment_lines: Vec<u32> = all
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|t| t.line)
        .collect();
    let sig: Vec<&Token> = all
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut i = 0;
    while i < sig.len() {
        let hash = sig[i].is_punct('#');
        let open = if hash && sig.get(i + 1).map(|t| t.is_punct('[')).unwrap_or(false) {
            Some(i + 1)
        } else if hash
            && sig.get(i + 1).map(|t| t.is_punct('!')).unwrap_or(false)
            && sig.get(i + 2).map(|t| t.is_punct('[')).unwrap_or(false)
        {
            Some(i + 2)
        } else {
            None
        };
        if let Some(open) = open {
            if sig
                .get(open + 1)
                .map(|t| t.is_ident("allow"))
                .unwrap_or(false)
            {
                let line = sig[i].line;
                let justified = comment_lines.iter().any(|&cl| cl == line || cl + 1 == line);
                if !justified {
                    findings.push(Finding {
                        rule: "L006",
                        file: ctx.path.clone(),
                        line,
                        message: "`#[allow(..)]` without a justification \
                            comment on the same or preceding line"
                            .to_string(),
                    });
                }
            }
        }
        i += 1;
    }
}

/// L007 — every non-shim crate root must carry `#![forbid(unsafe_code)]`
/// (or `#![deny(unsafe_code)]` with a justification comment).
fn check_l007(sig: &[&Token], all: &[Token], ctx: &FileContext, findings: &mut Vec<Finding>) {
    if !ctx.is_crate_root {
        return;
    }
    let mut i = 0;
    while i + 5 < sig.len() {
        if sig[i].is_punct('#')
            && sig[i + 1].is_punct('!')
            && sig[i + 2].is_punct('[')
            && (sig[i + 3].is_ident("forbid") || sig[i + 3].is_ident("deny"))
            && sig[i + 4].is_punct('(')
            && sig[i + 5].is_ident("unsafe_code")
        {
            if sig[i + 3].is_ident("deny") {
                // deny is escapable; demand the documented exception
                let line = sig[i].line;
                let justified = all.iter().any(|t| {
                    matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                        && (t.line == line || t.line + 1 == line)
                });
                if !justified {
                    findings.push(Finding {
                        rule: "L007",
                        file: ctx.path.clone(),
                        line,
                        message: "`#![deny(unsafe_code)]` needs a comment \
                            documenting why `forbid` is not possible"
                            .to_string(),
                    });
                }
            }
            return;
        }
        i += 1;
    }
    findings.push(Finding {
        rule: "L007",
        file: ctx.path.clone(),
        line: 1,
        message: "crate root missing `#![forbid(unsafe_code)]`".to_string(),
    });
}

/// L008 — columnar-kernel files ([`KERNEL_FILES`]) must (a) route every
/// key-hashing path through `beas_common::key` — a file that hashes values
/// or keys a container without referencing a canonical key/hash entry point
/// has forked the definition of key equality — and (b) carry a paired
/// `vectorized == row` differential test reference
/// (`tests/vectorized_semantics.rs`), so a kernel can never exist without
/// the harness that pins it bit-exact to the row engine.
fn check_l008(sig: &[&Token], all: &[Token], ctx: &FileContext, findings: &mut Vec<Finding>) {
    if !KERNEL_FILES.iter().any(|f| ctx.path.ends_with(f)) {
        return;
    }
    let canonicalizes = sig.iter().any(|t| {
        t.kind == TokenKind::Ident
            && (KEY_FNS.contains(&t.text.as_str()) || CANONICAL_HASH_FNS.contains(&t.text.as_str()))
    });
    if !canonicalizes {
        let hashing = sig.iter().find(|t| {
            t.kind == TokenKind::Ident
                && (HASHING_TOKENS.contains(&t.text.as_str())
                    || KEYED_CONTAINERS.contains(&t.text.as_str()))
        });
        if let Some(t) = hashing {
            findings.push(Finding {
                rule: "L008",
                file: ctx.path.clone(),
                line: t.line,
                message: format!(
                    "kernel file hashes via `{}` without routing keys through \
                     `beas_common::key` ({}); use \
                     `canonical_hash`/`canonical_key_hash` so vectorized key \
                     equality cannot drift from the row engine's",
                    t.text,
                    CANONICAL_HASH_FNS.join("/")
                ),
            });
        }
    }
    let referenced = all.iter().any(|t| t.text.contains("vectorized_semantics"));
    if !referenced {
        findings.push(Finding {
            rule: "L008",
            file: ctx.path.clone(),
            line: 1,
            message: "kernel file missing its paired vectorized-equals-row \
                differential test reference (tests/vectorized_semantics.rs)"
                .to_string(),
        });
    }
}

/// L009 — no raw `Instant::now()` / `SystemTime::now()` outside the
/// sanctioned clock ([`RAW_CLOCK_FILES`]).  Every product timestamp must
/// come from `beas_obs::clock::now()`: that is what lets the trace layer
/// keep all timing behind one `TraceLevel` knob, and what keeps the
/// trace-neutrality guarantee auditable — a stray clock read is a timing
/// side channel the observability layer cannot see or switch off.
fn check_l009(sig: &[&Token], ctx: &FileContext, findings: &mut Vec<Finding>) {
    if RAW_CLOCK_FILES.iter().any(|f| ctx.path.starts_with(f)) {
        return;
    }
    let mut i = 0;
    while i + 4 < sig.len() {
        if sig[i].kind == TokenKind::Ident
            && RAW_CLOCK_TYPES.contains(&sig[i].text.as_str())
            && sig[i + 1].is_punct(':')
            && sig[i + 2].is_punct(':')
            && sig[i + 3].is_ident("now")
            && sig[i + 4].is_punct('(')
        {
            findings.push(Finding {
                rule: "L009",
                file: ctx.path.clone(),
                line: sig[i].line,
                message: format!(
                    "raw `{}::now()` outside `beas_obs`; route timing through \
                     `beas_obs::clock::now()` so the trace layer owns every \
                     timestamp source",
                    sig[i].text
                ),
            });
        }
        i += 1;
    }
}

/// Iterate `fn` items: `(name, line of the name, body token range)`.
/// Trait-method declarations (no body) are skipped.
fn fn_items(sig: &[&Token]) -> Vec<(String, u32, Range<usize>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < sig.len() {
        if sig[i].is_ident("fn") && sig[i + 1].kind == TokenKind::Ident {
            let name = sig[i + 1].text.clone();
            let line = sig[i + 1].line;
            // body = first `{` before any `;` at signature level
            let mut j = i + 2;
            let mut body = None;
            while j < sig.len() {
                if sig[j].is_punct(';') {
                    break;
                }
                if sig[j].is_punct('{') {
                    body = matching_brace(sig, j).map(|close| j..close + 1);
                    break;
                }
                j += 1;
            }
            if let Some(range) = body {
                let end = range.end;
                out.push((name, line, range));
                // nested fns are rare; recursing over the same span would
                // double-report, so skip past the body
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}
