//! The rule families and the `allow(...)` escape hatch.
//!
//! Rule scoping is part of the rule definition: determinism and panic
//! hygiene cover the library code of the sampling crates (`swh-core`,
//! `swh-rand`, `swh-warehouse`, `swh-aqp`, `swh-workloads`); the numeric
//! rules cover the probability modules where a silent cast or an exact
//! float compare corrupts a statistical contract (Eq. 1–3 of the paper);
//! the concurrency rules (atomic-ordering, lock-order,
//! blocking-in-hot-path — see [`crate::conc`]) cover every crate's `src/`
//! tree, driven by `protocol(...)`/`hot` annotations.

use crate::lexer::{LineComment, Token, TokenKind};

/// A lint rule identifier. The string form is what `allow(...)` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Non-deterministic constructs in sampling/merge paths: OS entropy,
    /// wall-clock time, default-hasher maps.
    Determinism,
    /// Bare `as` casts involving numeric types in probability code.
    NumericCast,
    /// Exact `==`/`!=` against float literals in probability code.
    FloatCmp,
    /// `unwrap`/`expect`/literal slice index in library code.
    Panic,
    /// Seqlock/monotonic protocol conformance for atomic orderings, plus
    /// unreasoned `SeqCst` anywhere in crate `src/` trees. Driven by
    /// `// swh-analyze: protocol(seqlock|monotonic)` file annotations.
    AtomicOrdering,
    /// Lock-acquisition-order cycles across the workspace, built from
    /// lexical guard scopes (see [`crate::conc`]).
    LockOrder,
    /// Blocking constructs (locks, filesystem access, formatting,
    /// allocation) inside `// swh-analyze: hot` annotated functions.
    BlockingInHotPath,
}

/// All rules, in reporting order.
pub const ALL_RULES: [Rule; 7] = [
    Rule::Determinism,
    Rule::NumericCast,
    Rule::FloatCmp,
    Rule::Panic,
    Rule::AtomicOrdering,
    Rule::LockOrder,
    Rule::BlockingInHotPath,
];

impl Rule {
    /// The name used in diagnostics and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::NumericCast => "numeric-cast",
            Rule::FloatCmp => "float-cmp",
            Rule::Panic => "panic",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::LockOrder => "lock-order",
            Rule::BlockingInHotPath => "blocking-in-hot-path",
        }
    }

    /// Parse an `allow(...)` rule name.
    pub fn from_name(name: &str) -> Option<Self> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Does this rule apply to the workspace-relative `path`?
    ///
    /// Paths use `/` separators and are relative to the workspace root.
    /// Only `src/` trees are covered: integration tests, benches, examples,
    /// and fixtures are exempt by construction.
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            Rule::Determinism => {
                SAMPLING_CRATE_SRC
                    .iter()
                    .any(|prefix| path.starts_with(prefix))
                    || OBS_TRACE_FILES.contains(&path)
                    || PROFILING_FILES.contains(&path)
                    || HEALTH_FILES.contains(&path)
            }
            Rule::Panic => {
                SAMPLING_CRATE_SRC
                    .iter()
                    .any(|prefix| path.starts_with(prefix))
                    || PROFILING_FILES.contains(&path)
                    || HEALTH_FILES.contains(&path)
            }
            Rule::NumericCast | Rule::FloatCmp => PROBABILITY_FILES.contains(&path),
            // The concurrency rules cover every library `src/` tree. The one
            // carve-out is the loom shim itself: the model checker *implements*
            // the memory model, so its exhaustive matches over all orderings
            // and its scheduler mutex are not protocol code.
            Rule::AtomicOrdering | Rule::LockOrder | Rule::BlockingInHotPath => {
                (path.starts_with("crates/") || path.starts_with("src/"))
                    && path.contains("src/")
                    && !path.starts_with("crates/loomshim/src/")
            }
        }
    }
}

/// `src/` trees of the crates whose behavior must be reproducible.
const SAMPLING_CRATE_SRC: &[&str] = &[
    "crates/core/src/",
    "crates/rand/src/",
    "crates/warehouse/src/",
    "crates/aqp/src/",
    "crates/workloads/src/",
];

/// Observability files whose output feeds replayable traces: span ids and
/// journal sequence numbers must stay monotonic-counter based (no wall
/// clock, no OS entropy), or identical runs stop producing identical
/// journals. The rest of `swh-obs` (timers, histograms) measures real time
/// on purpose and stays exempt.
const OBS_TRACE_FILES: &[&str] = &[
    "crates/obs/src/trace.rs",
    "crates/obs/src/journal.rs",
    "crates/obs/src/serve.rs",
];

/// The profiling and cost-model pipeline: profile nodes feed the measured
/// cost model, which feeds planner decisions, and the bench-history gate
/// turns its numbers into CI pass/fail. Node ordering and history run
/// numbering must therefore stay counter-based (no wall clock in *data*,
/// only in measured durations), and none of these files may panic on
/// malformed input — a corrupt history line must surface as an error, not
/// a crash in the gate. Covered by both determinism and panic hygiene.
const PROFILING_FILES: &[&str] = &[
    "crates/obs/src/profile.rs",
    "crates/core/src/costmodel.rs",
    "crates/cli/src/bench_history.rs",
];

/// The closed-loop health pipeline: alert rules gate CI (`swh alerts
/// check`), their evaluation order and journal events must replay
/// identically from identical snapshots, and none of these files may
/// panic on malformed input — a corrupt rules file or metrics snapshot
/// must fail the gate with an error, not a crash. (`audit.rs` is covered
/// already via the `crates/core/src/` prefix.) Covered by both
/// determinism and panic hygiene.
const HEALTH_FILES: &[&str] = &[
    "crates/obs/src/health.rs",
    "crates/cli/src/alerts.rs",
    "crates/cli/src/top.rs",
];

/// Probability code: every file whose arithmetic implements a distribution,
/// a bound, or an estimator from the paper. Bare casts and exact float
/// compares here can corrupt uniformity without failing a test.
const PROBABILITY_FILES: &[&str] = &[
    "crates/core/src/qbound.rs",
    "crates/rand/src/alias.rs",
    "crates/rand/src/binomial.rs",
    "crates/rand/src/checked.rs",
    "crates/rand/src/exponential.rs",
    "crates/rand/src/hypergeometric.rs",
    "crates/rand/src/normal.rs",
    "crates/rand/src/skip.rs",
    "crates/rand/src/stats.rs",
    "crates/rand/src/zipf.rs",
    "crates/aqp/src/estimators.rs",
];

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
    /// True when an `allow` directive covers this finding (reported in the
    /// allow count, not as a violation).
    pub allowed: bool,
}

/// A parsed `swh-analyze: allow(rule, ...) -- reason` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Line the comment sits on.
    pub line: u32,
    pub rules: Vec<Rule>,
}

/// A directive that mentions `swh-analyze:` but does not parse. Always an
/// error: a typo in an allow comment must not silently re-enable a lint.
#[derive(Debug, Clone)]
pub struct InvalidDirective {
    pub line: u32,
    pub reason: String,
}

/// What a concurrency annotation declares about the code it marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationKind {
    /// `protocol(seqlock)` — file-level: sequence-word atomics follow the
    /// invalidate / release-fence / fill / publish discipline.
    ProtocolSeqlock,
    /// `protocol(monotonic)` — file-level: every `Relaxed` site is an
    /// independent counter and must carry a per-site reasoned allow.
    ProtocolMonotonic,
    /// `hot` — marks the next function as a hot path: no blocking.
    Hot,
}

/// A parsed `swh-analyze: protocol(...)` or `swh-analyze: hot` annotation.
#[derive(Debug, Clone, Copy)]
pub struct Annotation {
    pub line: u32,
    pub kind: AnnotationKind,
}

/// Everything directive parsing can yield from one file's comments.
#[derive(Debug, Default)]
pub struct Directives {
    pub allows: Vec<AllowDirective>,
    pub annotations: Vec<Annotation>,
    pub invalid: Vec<InvalidDirective>,
}

/// Extract allow directives and concurrency annotations from line comments.
pub fn parse_directives(comments: &[LineComment]) -> Directives {
    let mut out = Directives::default();
    let allows = &mut out.allows;
    let invalid = &mut out.invalid;
    for c in comments {
        // Doc comments (`///`, `//!`) are prose — only a plain `//` comment
        // whose text *starts with* the marker is a directive. This keeps
        // documentation that merely mentions the syntax inert.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(rest) = c.text.trim().strip_prefix("swh-analyze:") else {
            continue;
        };
        let rest = rest.trim();
        if let Some(proto) = rest.strip_prefix("protocol(") {
            let Some(close) = proto.find(')') else {
                invalid.push(InvalidDirective {
                    line: c.line,
                    reason: "unterminated protocol(...)".to_string(),
                });
                continue;
            };
            let kind = match proto[..close].trim() {
                "seqlock" => AnnotationKind::ProtocolSeqlock,
                "monotonic" => AnnotationKind::ProtocolMonotonic,
                other => {
                    invalid.push(InvalidDirective {
                        line: c.line,
                        reason: format!(
                            "unknown protocol `{other}` (expected seqlock or monotonic)"
                        ),
                    });
                    continue;
                }
            };
            out.annotations.push(Annotation { line: c.line, kind });
            continue;
        }
        if rest == "hot" || rest.starts_with("hot --") {
            out.annotations.push(Annotation {
                line: c.line,
                kind: AnnotationKind::Hot,
            });
            continue;
        }
        let Some(args) = rest.strip_prefix("allow(") else {
            invalid.push(InvalidDirective {
                line: c.line,
                reason: format!(
                    "expected `allow(<rule>) -- <reason>`, `protocol(seqlock|monotonic)`, \
                     or `hot`, got `{rest}`"
                ),
            });
            continue;
        };
        let Some(close) = args.find(')') else {
            invalid.push(InvalidDirective {
                line: c.line,
                reason: "unterminated allow(...)".to_string(),
            });
            continue;
        };
        let (list, tail) = args.split_at(close);
        let tail = tail[1..].trim(); // drop ')'
        let Some(reason) = tail.strip_prefix("--") else {
            invalid.push(InvalidDirective {
                line: c.line,
                reason: "allow(...) must carry `-- <reason>`".to_string(),
            });
            continue;
        };
        if reason.trim().is_empty() {
            invalid.push(InvalidDirective {
                line: c.line,
                reason: "allow(...) reason is empty".to_string(),
            });
            continue;
        }
        let mut rules = Vec::new();
        let mut bad = None;
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Rule::from_name(name) {
                Some(r) => rules.push(r),
                None => bad = Some(name.to_string()),
            }
        }
        if let Some(name) = bad {
            invalid.push(InvalidDirective {
                line: c.line,
                reason: format!(
                    "unknown rule `{name}` (expected one of: determinism, numeric-cast, \
                     float-cmp, panic, atomic-ordering, lock-order, blocking-in-hot-path)"
                ),
            });
            continue;
        }
        if rules.is_empty() {
            invalid.push(InvalidDirective {
                line: c.line,
                reason: "allow() lists no rules".to_string(),
            });
            continue;
        }
        allows.push(AllowDirective {
            line: c.line,
            rules,
        });
    }
    out
}

/// Why a clock read is banned in a sampling path, and where timing goes
/// instead: the one clock read lives in `swh-obs`, outside these files.
const WALL_CLOCK: &str = "wall-clock time in a sampling path; time a region with \
     swh_obs::profile::Scope, a raw duration with swh_obs::Stopwatch";

/// Identifiers that are non-deterministic entropy or clock sources.
const ENTROPY_IDENTS: &[(&str, &str)] = &[
    (
        "thread_rng",
        "OS-seeded RNG breaks reproducibility; thread a seeded swh-rand RNG instead",
    ),
    (
        "OsRng",
        "OS entropy breaks reproducibility; thread a seeded swh-rand RNG instead",
    ),
    (
        "from_entropy",
        "entropy seeding breaks reproducibility; use swh_rand::seeded_rng",
    ),
    (
        "from_os_rng",
        "OS-entropy seeding breaks reproducibility; use swh_rand::seeded_rng",
    ),
    (
        "getrandom",
        "OS entropy breaks reproducibility; use swh_rand::seeded_rng",
    ),
    ("Instant", WALL_CLOCK),
    ("SystemTime", WALL_CLOCK),
    ("UNIX_EPOCH", WALL_CLOCK),
    (
        "RandomState",
        "default SipHash state is randomly keyed; use FxHashMap/BTreeMap",
    ),
];

/// Integer and float type names for the cast rule.
const NUMERIC_TYPES: &[&str] = &[
    "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize",
];

/// Run every applicable rule over one file's tokens.
///
/// `mask[i]` marks test-scope tokens (exempt). Findings come back in token
/// order; the caller resolves `allowed` against the directive lines.
pub fn scan(path: &str, tokens: &[Token], mask: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let det = Rule::Determinism.applies_to(path);
    let cast = Rule::NumericCast.applies_to(path);
    let fcmp = Rule::FloatCmp.applies_to(path);
    let pan = Rule::Panic.applies_to(path);
    if !(det || cast || fcmp || pan) {
        return findings;
    }

    let mut push = |line: u32, rule: Rule, message: String| {
        findings.push(Finding {
            path: path.to_string(),
            line,
            rule,
            message,
            allowed: false,
        });
    };

    for (i, t) in tokens.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| &tokens[j]);
        let next = tokens.get(i + 1);
        let next2 = tokens.get(i + 2);

        if det {
            if let Some(name) = t.ident() {
                if let Some((_, why)) = ENTROPY_IDENTS.iter().find(|(k, _)| *k == name) {
                    push(t.line, Rule::Determinism, format!("`{name}`: {why}"));
                }
                // `std :: time`
                if name == "std"
                    && next.is_some_and(|n| n.is_punct("::"))
                    && next2.and_then(Token::ident) == Some("time")
                {
                    push(
                        t.line,
                        Rule::Determinism,
                        format!("`std::time`: {WALL_CLOCK}"),
                    );
                }
                // Default-hasher constructors: HashMap::new / with_capacity /
                // default, and collect::<HashMap<...>> turbofish.
                if name == "HashMap" || name == "HashSet" {
                    let is_ctor = next.is_some_and(|n| n.is_punct("::"))
                        && matches!(
                            next2.and_then(Token::ident),
                            Some("new") | Some("with_capacity") | Some("default")
                        );
                    let is_turbofish_target = prev.is_some_and(|p| p.is_punct("<"))
                        && i >= 3
                        && tokens[i - 2].is_punct("::")
                        && tokens[i - 3].ident() == Some("collect");
                    if is_ctor || is_turbofish_target {
                        push(
                            t.line,
                            Rule::Determinism,
                            format!(
                                "`{name}` with the default hasher iterates in random order; \
                                 use FxHashMap/FxHashSet (crate::fxhash) or BTreeMap"
                            ),
                        );
                    }
                }
            }
        }

        if cast && t.ident() == Some("as") {
            if let Some(ty) = next.and_then(Token::ident) {
                if NUMERIC_TYPES.contains(&ty) {
                    push(
                        t.line,
                        Rule::NumericCast,
                        format!(
                            "bare `as {ty}` cast in probability code; use the checked helpers \
                             in swh_core::stats / swh_rand::checked (exact_f64, floor_u64, \
                             as_index, ...)"
                        ),
                    );
                }
            }
        }

        if fcmp && (t.is_punct("==") || t.is_punct("!=")) {
            let float_adjacent = prev.is_some_and(|p| p.kind == TokenKind::Float)
                || next.is_some_and(|n| n.kind == TokenKind::Float);
            if float_adjacent {
                push(
                    t.line,
                    Rule::FloatCmp,
                    "exact float comparison in probability code; use approx_eq/rel_close/is_zero \
                     from swh_rand::checked (or compare a range)"
                        .to_string(),
                );
            }
        }

        if pan {
            if t.is_punct(".") {
                if let Some(m) = next.and_then(Token::ident) {
                    if (m == "unwrap" || m == "expect") && next2.is_some_and(|n| n.is_punct("(")) {
                        push(
                            t.line,
                            Rule::Panic,
                            format!(
                                "`.{m}()` in library code; return a Result, restructure so the \
                                 invariant is type-checked, or document with an allow"
                            ),
                        );
                    }
                }
            }
            // Literal slice index `expr[0]`: `[`, Int, `]` where `[` follows
            // an expression tail (ident, `)`, or `]`).
            if t.is_punct("[")
                && prev.is_some_and(|p| {
                    matches!(p.kind, TokenKind::Ident(_)) || p.is_punct(")") || p.is_punct("]")
                })
                && next.is_some_and(|n| n.kind == TokenKind::Int)
                && next2.is_some_and(|n| n.is_punct("]"))
            {
                push(
                    t.line,
                    Rule::Panic,
                    "literal slice index can panic; use .first()/.get(..) or document with an \
                     allow"
                        .to_string(),
                );
            }
        }
    }

    // One finding per (line, rule): dense expressions (e.g. a cast chain)
    // otherwise flood the report without adding information.
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_mask;
    use crate::lexer::lex;

    fn scan_at(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        scan(path, &lexed.tokens, &mask)
    }

    #[test]
    fn determinism_catches_entropy_and_clock() {
        let src = "fn f() { let r = rand::thread_rng(); let t = std::time::Instant::now(); }";
        let f = scan_at("crates/core/src/x.rs", src);
        assert!(f.iter().any(|f| f.message.contains("thread_rng")));
        assert!(f.iter().any(|f| f.message.contains("std::time")));
        assert!(f.iter().any(|f| f.rule == Rule::Determinism));
    }

    #[test]
    fn determinism_catches_default_hasher_ctor() {
        let src = "fn f() { let m = std::collections::HashMap::new(); }";
        let f = scan_at("crates/warehouse/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("default hasher"));
    }

    #[test]
    fn determinism_allows_fxhash_alias_definition() {
        // The fxhash module defines aliases over std HashMap with an
        // explicit hasher; no constructor, no turbofish — clean.
        let src = "pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;";
        let f = scan_at("crates/core/src/fxhash.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn determinism_skips_test_code() {
        let src = "#[cfg(test)] mod tests { fn t() { let m = std::collections::HashMap::new(); } }";
        assert!(scan_at("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn determinism_only_in_sampling_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert!(scan_at("crates/obs/src/timer.rs", src).is_empty());
        assert!(scan_at("crates/cli/src/main.rs", src).is_empty());
    }

    #[test]
    fn determinism_covers_the_trace_files() {
        // Trace and journal output must replay identically, so the wall
        // clock is off limits there even though the rest of `swh-obs`
        // (timers, histograms) measures real time by design.
        let src = "fn f() { let t = std::time::SystemTime::now(); }";
        for path in [
            "crates/obs/src/trace.rs",
            "crates/obs/src/journal.rs",
            "crates/obs/src/serve.rs",
        ] {
            let f = scan_at(path, src);
            assert!(
                f.iter().any(|f| f.rule == Rule::Determinism),
                "{path} not covered"
            );
        }
        // But determinism coverage must not drag panic hygiene along: the
        // obs trace files keep their unwraps in tests.
        let src = "fn f(v: Vec<u8>) -> u8 { v[0] }";
        assert!(scan_at("crates/obs/src/trace.rs", src).is_empty());
    }

    #[test]
    fn determinism_covers_the_batch_and_merge_files() {
        // The batched ingestion fast path and the parallel merge tree carry
        // a byte-identity / thread-count-independence contract, so the files
        // implementing them must stay under determinism coverage even if the
        // prefix list above is ever refactored into per-file entries. (The
        // throughput bench binary measures wall time by design and stays
        // exempt, like every bench target.)
        let src = "fn f() { let t = std::time::SystemTime::now(); }";
        for path in [
            "crates/core/src/merge.rs",
            "crates/core/src/hybrid_bernoulli.rs",
            "crates/core/src/hybrid_reservoir.rs",
            "crates/rand/src/skip.rs",
            "crates/warehouse/src/ingest.rs",
            "crates/warehouse/src/parallel.rs",
            "crates/warehouse/src/catalog.rs",
        ] {
            let f = scan_at(path, src);
            assert!(
                f.iter().any(|f| f.rule == Rule::Determinism),
                "{path} not covered"
            );
        }
        assert!(scan_at("crates/bench/src/bin/ingest_throughput.rs", src).is_empty());
    }

    #[test]
    fn determinism_covers_the_profiling_files() {
        // The profile tree, the fitted cost model, and the bench-history
        // gate carry reproducibility contracts (seq counters, run numbers,
        // bucket classification) and must never panic on malformed input,
        // so they stay pinned under both rules even though two of them live
        // outside the sampling-crate prefix list.
        let time_src = "fn f() { let t = std::time::SystemTime::now(); }";
        let panic_src = "fn f(v: Vec<u8>) -> u8 { v[0] }";
        for path in [
            "crates/obs/src/profile.rs",
            "crates/core/src/costmodel.rs",
            "crates/cli/src/bench_history.rs",
        ] {
            let f = scan_at(path, time_src);
            assert!(
                f.iter().any(|f| f.rule == Rule::Determinism),
                "{path} not under determinism"
            );
            let f = scan_at(path, panic_src);
            assert!(
                f.iter().any(|f| f.rule == Rule::Panic),
                "{path} not under panic hygiene"
            );
        }
        // The rest of the CLI stays exempt: command plumbing may index and
        // unwrap where the parser already guarantees shape.
        assert!(scan_at("crates/cli/src/commands.rs", panic_src).is_empty());
    }

    #[test]
    fn numeric_cast_flags_float_int_casts() {
        let src =
            "fn f(n: u64, x: f64) -> f64 { let a = n as f64; let b = x as u64; a + b as f64 }";
        let f = scan_at("crates/rand/src/binomial.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == Rule::NumericCast).count(), 3);
    }

    #[test]
    fn numeric_cast_ignores_non_probability_files() {
        let src = "fn f(n: u64) -> f64 { n as f64 }";
        assert!(scan_at("crates/core/src/histogram.rs", src).is_empty());
    }

    #[test]
    fn use_as_rename_is_not_a_cast() {
        let src = "use std::fmt::Debug as Dbg; fn f() {}";
        assert!(scan_at("crates/rand/src/stats.rs", src).is_empty());
    }

    #[test]
    fn float_cmp_flags_literal_comparison() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }";
        let f = scan_at("crates/rand/src/normal.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::FloatCmp);
    }

    #[test]
    fn int_equality_is_fine() {
        let src = "fn f(x: u64) -> bool { x == 0 }";
        assert!(scan_at("crates/rand/src/normal.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_flags_unwrap_expect_literal_index() {
        let src = "fn f(v: Vec<u64>) -> u64 { v.first().unwrap(); v.last().expect(\"x\"); v[0] }";
        let f = scan_at("crates/core/src/x.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == Rule::Panic).count(), 3);
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let src = "fn f(v: Option<u64>) -> u64 { v.unwrap_or(0).min(v.unwrap_or_default()) }";
        assert!(scan_at("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn variable_index_is_not_flagged() {
        let src = "fn f(v: &[u64], i: usize) -> u64 { v[i] }";
        assert!(scan_at("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn attribute_slice_is_not_a_literal_index() {
        let src = "#[repr(align(8))] struct S; fn f(v: &[u64]) { let _ = v.len(); }";
        assert!(scan_at("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn directive_parsing_accepts_well_formed() {
        let lexed =
            lex("// swh-analyze: allow(panic, determinism) -- trusted invariant\nlet x = 1;");
        let d = parse_directives(&lexed.comments);
        assert!(d.invalid.is_empty());
        assert_eq!(d.allows.len(), 1);
        assert_eq!(d.allows[0].rules, vec![Rule::Panic, Rule::Determinism]);
    }

    #[test]
    fn directive_without_reason_is_invalid() {
        let lexed = lex("// swh-analyze: allow(panic)\nlet x = 1;");
        let d = parse_directives(&lexed.comments);
        assert!(d.allows.is_empty());
        assert_eq!(d.invalid.len(), 1);
    }

    #[test]
    fn directive_with_unknown_rule_is_invalid() {
        let lexed = lex("// swh-analyze: allow(speling) -- oops\nlet x = 1;");
        let d = parse_directives(&lexed.comments);
        assert_eq!(d.invalid.len(), 1);
        assert!(d.invalid[0].reason.contains("unknown rule"));
    }

    #[test]
    fn directive_parsing_accepts_concurrency_rule_names() {
        // Stale-directive detection must know the concurrency rules: an
        // allow naming them parses (and is later checked for use).
        let lexed = lex(
            "// swh-analyze: allow(atomic-ordering, lock-order, blocking-in-hot-path) -- pinned\nlet x = 1;",
        );
        let d = parse_directives(&lexed.comments);
        assert!(d.invalid.is_empty(), "{:?}", d.invalid);
        assert_eq!(
            d.allows[0].rules,
            vec![
                Rule::AtomicOrdering,
                Rule::LockOrder,
                Rule::BlockingInHotPath
            ]
        );
    }

    #[test]
    fn annotations_parse_and_unknown_protocol_is_invalid() {
        let lexed = lex(
            "// swh-analyze: protocol(seqlock)\n// swh-analyze: hot\nfn f() {}\n// swh-analyze: protocol(lockfree)\n",
        );
        let d = parse_directives(&lexed.comments);
        assert_eq!(d.annotations.len(), 2);
        assert_eq!(d.annotations[0].kind, AnnotationKind::ProtocolSeqlock);
        assert_eq!(d.annotations[1].kind, AnnotationKind::Hot);
        assert_eq!(d.invalid.len(), 1);
        assert!(d.invalid[0].reason.contains("unknown protocol"));
    }

    #[test]
    fn doc_comment_mention_of_annotations_is_inert() {
        let lexed = lex("/// Mark files with `swh-analyze: protocol(seqlock)`.\nfn f() {}\n");
        let d = parse_directives(&lexed.comments);
        assert!(d.annotations.is_empty());
        assert!(d.invalid.is_empty());
    }

    #[test]
    fn concurrency_rules_cover_crate_src_trees_but_not_the_shim() {
        // The seqlock core, the parallel merge tree, and the workspace
        // facade are all in scope; the loom shim (which implements the
        // memory model) and non-src trees are not.
        for rule in [
            Rule::AtomicOrdering,
            Rule::LockOrder,
            Rule::BlockingInHotPath,
        ] {
            for path in [
                "crates/obs/src/journal.rs",
                "crates/obs/src/profile.rs",
                "crates/warehouse/src/parallel.rs",
                "src/shadow.rs",
            ] {
                assert!(rule.applies_to(path), "{} must cover {path}", rule.name());
            }
            for path in [
                "crates/loomshim/src/sched.rs",
                "crates/obs/tests/loom.rs",
                "crates/analyze/fixtures/atomic_ordering.rs",
            ] {
                assert!(!rule.applies_to(path), "{} must skip {path}", rule.name());
            }
        }
    }

    #[test]
    fn determinism_and_panic_cover_aqp_and_workloads() {
        let time_src = "fn f() { let t = std::time::SystemTime::now(); }";
        let panic_src = "fn f(v: Vec<u8>) -> u8 { v[0] }";
        for path in [
            "crates/aqp/src/quantiles.rs",
            "crates/workloads/src/dataset.rs",
            // The closed-loop health pipeline: the alert engine, the CI
            // gate command, the live view, and the self-audit (the last
            // via the core src prefix).
            "crates/obs/src/health.rs",
            "crates/cli/src/alerts.rs",
            "crates/cli/src/top.rs",
            "crates/core/src/audit.rs",
        ] {
            assert!(
                scan_at(path, time_src)
                    .iter()
                    .any(|f| f.rule == Rule::Determinism),
                "{path} not under determinism"
            );
            assert!(
                scan_at(path, panic_src)
                    .iter()
                    .any(|f| f.rule == Rule::Panic),
                "{path} not under panic hygiene"
            );
        }
    }
}
