//! Server/sim event-parity analysis.
//!
//! The conformance harness (DESIGN.md §9) asserts the threaded server
//! and the discrete-event simulator emit identical golden traces. That
//! only holds if *neither engine can construct an `EventKind` variant
//! the other cannot*. This rule turns that structural invariant into a
//! static check: parse the `EventKind` enum's variants out of
//! `crates/obs/src/event.rs`, collect every variant *construction* in
//! `crates/server` vs `crates/sim` non-test code, and report any
//! variant reachable from one engine but not the other, grouped by
//! lifecycle (submit/rank/reuse-graft/io/spill/terminal/chaos).
//!
//! `EventKind::X` occurrences in *pattern position* are uses, not
//! emissions, and are excluded: inside a `matches!(…)` invocation,
//! match arms (`EventKind::X {…} =>`), and `let`-destructurings.
//! Comparisons (`==`/`!=` against a fieldless variant) are likewise
//! reads. Everything else — struct-literal or bare-variant expressions
//! — counts as a construction site.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::rules::{skip_group, SourceFile};
use std::collections::BTreeMap;

/// Lifecycle grouping for diagnostics (ISSUE: per-lifecycle parity).
fn lifecycle(variant: &str) -> &'static str {
    match variant {
        "Submitted" | "Rejected" | "Shed" => "submit",
        "Ranked" => "rank",
        "LookupHit" | "Grafted" | "SubquerySpawned" => "reuse-graft",
        "PageRead" => "io",
        "Evicted" | "Spilled" | "Restored" => "spill",
        "Completed" | "Failed" | "TimedOut" | "Degraded" => "terminal",
        "WorkerPanicked" | "Quarantined" | "WorkerRestarted" | "Hung" => "chaos",
        _ => "other",
    }
}

/// Parses the variant names of `enum <name>` from a lexed file.
pub fn enum_variants(f: &SourceFile, name: &str) -> Vec<String> {
    let toks = &f.lexed.tokens;
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].is_ident("enum") && toks[i + 1].is_ident(name) && toks[i + 2].is_punct('{') {
            let end = skip_group(toks, i + 2) - 1;
            let mut out = Vec::new();
            let mut j = i + 3;
            while j < end {
                let t = &toks[j];
                if t.is_punct('#') {
                    // Attribute: `#[…]`.
                    if toks.get(j + 1).is_some_and(|x| x.is_punct('[')) {
                        j = skip_group(toks, j + 1);
                        continue;
                    }
                } else if t.kind == TokKind::Ident {
                    out.push(t.text.clone());
                    j += 1;
                    // Skip an optional payload group, then the comma.
                    if toks
                        .get(j)
                        .is_some_and(|x| x.is_punct('{') || x.is_punct('('))
                    {
                        j = skip_group(toks, j);
                    }
                    while j < end && !toks[j].is_punct(',') {
                        j += 1;
                    }
                    continue;
                }
                j += 1;
            }
            return out;
        }
        i += 1;
    }
    Vec::new()
}

/// Construction sites of `<enum>::<variant>` in one file's non-test
/// code: variant name → first line.
pub fn constructions(f: &SourceFile, enum_name: &str) -> BTreeMap<String, usize> {
    let toks = &f.lexed.tokens;
    // Pre-compute `matches!( … )` group extents; hits inside are patterns.
    let mut pattern_ranges: Vec<(usize, usize)> = Vec::new();
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].is_ident("matches") && toks[i + 1].is_punct('!') && toks[i + 2].is_punct('(') {
            pattern_ranges.push((i + 2, skip_group(toks, i + 2)));
        }
    }
    let mut out: BTreeMap<String, usize> = BTreeMap::new();
    let mut i = 0usize;
    while i + 3 < toks.len() {
        let hit = toks[i].is_ident(enum_name)
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].kind == TokKind::Ident;
        if !hit {
            i += 1;
            continue;
        }
        let variant = &toks[i + 3];
        let line = variant.line;
        if f.in_test(line) {
            i += 4;
            continue;
        }
        // Pattern contexts.
        let in_matches = pattern_ranges.iter().any(|&(lo, hi)| i > lo && i < hi);
        let after_let = i > 0 && toks[i - 1].is_ident("let");
        // Skip the optional payload group to see what follows.
        let mut j = i + 4;
        if toks
            .get(j)
            .is_some_and(|x| x.is_punct('{') || x.is_punct('('))
        {
            j = skip_group(toks, j);
        }
        let arm_arrow = toks.get(j).is_some_and(|x| x.is_punct('='))
            && toks.get(j + 1).is_some_and(|x| x.is_punct('>'));
        let compared = (toks.get(j).is_some_and(|x| x.is_punct('='))
            && toks.get(j + 1).is_some_and(|x| x.is_punct('=')))
            || (i >= 2 && toks[i - 1].is_punct('=') && toks[i - 2].is_punct('='))
            || (i >= 2 && toks[i - 1].is_punct('=') && toks[i - 2].is_punct('!'));
        // `|` alternation inside a match pattern.
        let alternated =
            toks.get(j).is_some_and(|x| x.is_punct('|')) || (i >= 1 && toks[i - 1].is_punct('|'));
        if !(in_matches || after_let || arm_arrow || compared || alternated) {
            out.entry(variant.text.clone()).or_insert(line);
        }
        i = j;
    }
    out
}

/// Checks construction parity between the two engines. `obs_event` is
/// the file declaring the enum; `server`/`sim` are each engine's source
/// files.
pub fn check(
    obs_event: &SourceFile,
    server: &[&SourceFile],
    sim: &[&SourceFile],
) -> Vec<Diagnostic> {
    let variants = enum_variants(obs_event, "EventKind");
    if variants.is_empty() {
        return vec![Diagnostic {
            rule: "event-parity",
            file: obs_event.rel.clone(),
            line: 1,
            message: "could not parse `enum EventKind` variants — rule cannot run".into(),
        }];
    }
    let collect = |files: &[&SourceFile]| -> BTreeMap<String, (String, usize)> {
        let mut all: BTreeMap<String, (String, usize)> = BTreeMap::new();
        for f in files {
            for (v, line) in constructions(f, "EventKind") {
                all.entry(v).or_insert((f.rel.clone(), line));
            }
        }
        all
    };
    let server_c = collect(server);
    let sim_c = collect(sim);

    let mut out = Vec::new();
    for v in &variants {
        let s = server_c.get(v);
        let m = sim_c.get(v);
        let (site, only, other) = match (s, m) {
            (Some(site), None) => (site, "server", "sim"),
            (None, Some(site)) => (site, "sim", "server"),
            _ => continue, // both or neither — parity holds
        };
        out.push(Diagnostic {
            rule: "event-parity",
            file: site.0.clone(),
            line: site.1,
            message: format!(
                "`EventKind::{v}` ({} lifecycle) is constructed by the {only} engine but \
                 never by the {other} engine — golden traces can diverge on this variant",
                lifecycle(v)
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENUM: &str = "\
pub enum EventKind {
    Submitted,
    #[doc(hidden)]
    Ranked { score: f64 },
    Grafted { src: u64 },
    Shed,
}
";

    fn sf(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(rel, src)
    }

    #[test]
    fn enum_variants_parse_payloads_and_attrs() {
        let f = sf("event.rs", ENUM);
        assert_eq!(
            enum_variants(&f, "EventKind"),
            ["Submitted", "Ranked", "Grafted", "Shed"]
        );
    }

    #[test]
    fn symmetric_construction_is_clean() {
        let e = sf("event.rs", ENUM);
        let srv = sf(
            "server.rs",
            "fn a() { emit(EventKind::Submitted); emit(EventKind::Ranked { score: 1.0 }); }",
        );
        let sim = sf(
            "sim.rs",
            "fn b() { log(EventKind::Ranked { score: 2.0 }); log(EventKind::Submitted); }",
        );
        let v = check(&e, &[&srv], &[&sim]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn one_sided_variant_fires_with_lifecycle() {
        let e = sf("event.rs", ENUM);
        let srv = sf(
            "server.rs",
            "fn a() { emit(EventKind::Submitted); emit(EventKind::Grafted { src: 3 }); }",
        );
        let sim = sf("sim.rs", "fn b() { log(EventKind::Submitted); }");
        let v = check(&e, &[&srv], &[&sim]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("EventKind::Grafted"));
        assert!(v[0].message.contains("reuse-graft"));
        assert!(v[0].message.contains("server engine"));
        assert_eq!(v[0].file, "server.rs");
    }

    #[test]
    fn patterns_do_not_count_as_construction() {
        let e = sf("event.rs", ENUM);
        let srv = sf("server.rs", "fn a() { emit(EventKind::Shed); }");
        // The sim only *matches* on Shed — match arm, matches!, and a
        // `==` comparison — none of which emit it.
        let sim = sf(
            "sim.rs",
            "fn b(k: &EventKind) -> u8 {\n if matches!(k, EventKind::Shed) { return 1; }\n \
             if *k == EventKind::Shed { return 2; }\n match k {\n  EventKind::Shed => 3,\n  \
             EventKind::Ranked { .. } | EventKind::Grafted { .. } => 4,\n  _ => 0,\n }\n}\n\
             fn c() { log(EventKind::Submitted); }\nfn d() { log2(EventKind::Shed); }",
        );
        let srv2 = sf("server2.rs", "fn e() { emit(EventKind::Submitted); }");
        let v = check(&e, &[&srv, &srv2], &[&sim]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_code_construction_does_not_count() {
        let e = sf("event.rs", ENUM);
        let srv = sf("server.rs", "fn a() { emit(EventKind::Submitted); }");
        let sim = sf(
            "sim.rs",
            "fn b() { log(EventKind::Submitted); }\n#[cfg(test)]\nmod t {\n fn x() { \
             log(EventKind::Shed); }\n}",
        );
        // Shed is constructed by neither engine's production code.
        let v = check(&e, &[&srv], &[&sim]);
        assert!(v.is_empty(), "{v:?}");
    }
}
