//! Static lock-acquisition-order analysis.
//!
//! Builds the lock-acquisition graph per function from the token
//! stream: a *guard binding* (`let g = recv.lock();` / `.read();` /
//! `.write();`) holds its lock class until `drop(g)` or the end of the
//! enclosing block (tracked by brace depth, token-accurate); an
//! assignment re-binding (`g = recv.lock();`) acquires the new lock
//! *before* the old guard drops, which is exactly parking_lot's
//! self-deadlock shape, so the old class is still counted as held; a
//! mid-expression `.lock()` (`recv.lock().push(x)`) is a momentary
//! acquisition recorded against the guards held at that point.
//!
//! Lock *classes* come from the declared hierarchy in
//! `docs/lock-order.md` (machine-readable ```` ```lock-order ````
//! block): each class names the struct fields whose `.lock()` /
//! `.read()` / `.write()` it covers and carries an integer level.
//! Acquiring a class requires its level to be strictly greater than
//! every held class's level. Acquiring a class *already held* is always
//! an error — this encodes DESIGN.md §13's same-shard-only rule: the
//! graft wait parks on the one `shard.state` guard it already owns
//! (condvar wait), and no thread may ever take a second shard lock.
//!
//! Acquisitions propagate through direct calls at depth 1: a call made
//! while guards are held contributes (held × callee's direct
//! acquisitions) edges, with the callee resolved by name only when that
//! name maps to exactly one function in the scanned workspace (so
//! ubiquitous names like `push` or `len` never mis-resolve — a
//! documented soundness limit, with trait-object and closure targets
//! unresolved likewise; see DESIGN.md §16).
//!
//! Independent of the declared levels, the full observed edge set
//! (including `lint:allow(lock-order)`-suppressed edges) feeds a cycle
//! detector: any cycle among distinct classes is reported even if each
//! individual edge was waved through.

use crate::diag::Diagnostic;
use crate::lexer::{self, Tok, TokKind};
use crate::rules::{skip_group_back, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// One declared lock class.
#[derive(Clone, Debug)]
pub struct LockClass {
    pub name: String,
    pub level: u32,
    /// Field names whose `.lock()`/`.read()`/`.write()` map to this
    /// class (e.g. `state` → `shard.state`).
    pub fields: Vec<String>,
}

/// The declared hierarchy from `docs/lock-order.md`.
#[derive(Clone, Debug, Default)]
pub struct LockSpec {
    pub classes: Vec<LockClass>,
}

impl LockSpec {
    /// Parses the ```` ```lock-order ```` block: one
    /// `class <name> <level> <field> [field …]` per line, `#` comments.
    pub fn parse(block: &[(usize, String)]) -> Result<LockSpec, String> {
        let mut classes: Vec<LockClass> = Vec::new();
        for (lineno, line) in block {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let w: Vec<&str> = line.split_whitespace().collect();
            if w.len() < 4 || w[0] != "class" {
                return Err(format!(
                    "lock-order spec line {lineno}: expected `class <name> <level> <field>…`, got {line:?}"
                ));
            }
            let level: u32 = w[2]
                .parse()
                .map_err(|_| format!("lock-order spec line {lineno}: bad level {:?}", w[2]))?;
            if classes.iter().any(|c| c.name == w[1]) {
                return Err(format!(
                    "lock-order spec line {lineno}: duplicate class {:?}",
                    w[1]
                ));
            }
            for fld in &w[3..] {
                if classes.iter().any(|c| c.fields.iter().any(|f| f == fld)) {
                    return Err(format!(
                        "lock-order spec line {lineno}: field {fld:?} already mapped"
                    ));
                }
            }
            classes.push(LockClass {
                name: w[1].to_string(),
                level,
                fields: w[3..].iter().map(|s| s.to_string()).collect(),
            });
        }
        if classes.is_empty() {
            return Err("lock-order spec declares no classes".into());
        }
        Ok(LockSpec { classes })
    }

    fn class_of(&self, field: &str) -> Option<&LockClass> {
        self.classes
            .iter()
            .find(|c| c.fields.iter().any(|f| f == field))
    }

    fn level(&self, class: &str) -> Option<u32> {
        self.classes
            .iter()
            .find(|c| c.name == class)
            .map(|c| c.level)
    }
}

/// A lock class acquired while another was held — one graph edge with a
/// representative source site.
#[derive(Clone, Debug)]
struct PairObs {
    held: String,
    acq: String,
    file: usize,
    line: usize,
    func: String,
    /// `Some(callee)` when the edge came from depth-1 call propagation.
    via: Option<String>,
}

/// Per-function scan result.
struct FnLocks {
    name: String,
    /// Classes this function acquires directly (guard or momentary).
    direct: Vec<String>,
}

/// A call site made while guards were held.
struct CallObs {
    callee: String,
    held: Vec<String>,
    file: usize,
    line: usize,
    func: String,
}

struct Held {
    class: String,
    name: Option<String>,
    depth: i32,
}

const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Walks backward from the `.` before a lock method and returns the
/// receiver's *field name*: the first identifier after skipping
/// trailing index/call groups and tuple indices. `self.shards[k % N]`
/// → `shards`; `gate.0` → `gate`; `sh.state` → `state`.
fn receiver_field(toks: &[Tok], dot: usize) -> Option<String> {
    let mut k = dot as isize - 1;
    while k >= 0 {
        let t = &toks[k as usize];
        if t.is_punct(')') || t.is_punct(']') {
            k = skip_group_back(toks, k as usize) as isize - 1;
        } else if t.kind == TokKind::Lit {
            // Tuple index (`gate.0`): step over it and its dot.
            if k >= 1 && toks[k as usize - 1].is_punct('.') {
                k -= 2;
            } else {
                return None;
            }
        } else if t.kind == TokKind::Ident {
            return Some(t.text.clone());
        } else {
            return None;
        }
    }
    None
}

/// Classifies the statement around an acquisition that ends in
/// `.lock();`: scans back to the nearest statement delimiter and
/// matches `let [mut] NAME =` (fresh binding) or `NAME =` (re-binding).
enum Binding {
    Let(String),
    Reassign(String),
    None,
}

fn binding_of(toks: &[Tok], lock_ident: usize, body_start: usize) -> Binding {
    let mut d = lock_ident as isize - 1;
    while d as usize > body_start {
        let t = &toks[d as usize];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_punct(')') || t.is_punct(']') {
            d = skip_group_back(toks, d as usize) as isize;
        }
        d -= 1;
    }
    let mut s = d as usize + 1;
    let is_let = toks.get(s).is_some_and(|t| t.is_ident("let"));
    if is_let {
        s += 1;
    }
    if toks.get(s).is_some_and(|t| t.is_ident("mut")) {
        s += 1;
    }
    let (Some(name_tok), Some(eq_tok)) = (toks.get(s), toks.get(s + 1)) else {
        return Binding::None;
    };
    // Require a single `=` (not `==`) right after the name.
    if name_tok.kind != TokKind::Ident
        || !eq_tok.is_punct('=')
        || toks.get(s + 2).is_some_and(|t| t.is_punct('='))
    {
        return Binding::None;
    }
    if is_let {
        Binding::Let(name_tok.text.clone())
    } else {
        Binding::Reassign(name_tok.text.clone())
    }
}

/// Identifiers that precede `(` without being workspace function calls.
/// The second group is std container/sync method names: resolution is by
/// name only, so a workspace fn sharing a name with e.g. `HashMap::drain`
/// would otherwise be "called" by every map drain in the codebase.
const CALL_STOPWORDS: &[&str] = &[
    "if",
    "while",
    "for",
    "match",
    "return",
    "loop",
    "unsafe",
    "move",
    "in",
    "let",
    "else",
    "fn",
    "impl",
    "pub",
    "use",
    "mod",
    "struct",
    "enum",
    "trait",
    "type",
    "where",
    "Some",
    "Ok",
    "Err",
    "None",
    "self",
    "Self",
    "super",
    "crate",
    "drop",
    "lock",
    "read",
    "write",
    "drain",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "clear",
    "take",
    "join",
    "wait",
    "send",
    "recv",
    "clone",
    "iter",
    "next",
    "len",
    "swap",
    "load",
    "store",
    "compare_exchange",
    "fetch_add",
    "notify_all",
    "notify_one",
];

/// Scans one function body for acquisitions, releases, and calls.
#[allow(clippy::too_many_arguments)]
fn scan_fn(
    f: &SourceFile,
    file_idx: usize,
    item: &lexer::FnItem,
    nested: &[(usize, usize)],
    spec: &LockSpec,
    pairs: &mut Vec<PairObs>,
    calls: &mut Vec<CallObs>,
    fns: &mut Vec<FnLocks>,
) {
    let toks = &f.lexed.tokens;
    let (bs, be) = item.body;
    let mut held: Vec<Held> = Vec::new();
    let mut direct: Vec<String> = Vec::new();
    let mut depth = 0i32;
    let mut i = bs;
    while i <= be && i < toks.len() {
        if let Some(&(_, ne)) = nested.iter().find(|(ns, _)| *ns == i) {
            i = ne + 1;
            continue;
        }
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            held.retain(|h| h.depth < depth);
            depth -= 1;
        } else if t.kind == TokKind::Ident
            && t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
            && toks.get(i + 2).is_some_and(|x| x.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|x| x.is_punct(')'))
        {
            let victim = &toks[i + 2].text;
            held.retain(|h| h.name.as_deref() != Some(victim));
            i += 4;
            continue;
        } else if t.kind == TokKind::Ident
            && LOCK_METHODS.contains(&t.text.as_str())
            && i > bs
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
            && toks.get(i + 2).is_some_and(|x| x.is_punct(')'))
        {
            if let Some(field) = receiver_field(toks, i - 1) {
                let class = spec
                    .class_of(&field)
                    .map(|c| c.name.clone())
                    .unwrap_or_else(|| format!("?{field}"));
                // Record edges against everything currently held —
                // including a re-bound guard's old class, which really is
                // still locked when the new acquisition happens.
                for h in &held {
                    pairs.push(PairObs {
                        held: h.class.clone(),
                        acq: class.clone(),
                        file: file_idx,
                        line: t.line,
                        func: item.name.clone(),
                        via: None,
                    });
                }
                if !direct.contains(&class) {
                    direct.push(class.clone());
                }
                let ends_stmt = toks.get(i + 3).is_some_and(|x| x.is_punct(';'));
                if ends_stmt {
                    match binding_of(toks, i, bs) {
                        Binding::Let(name) => held.push(Held {
                            class,
                            name: Some(name),
                            depth,
                        }),
                        Binding::Reassign(name) => {
                            held.retain(|h| h.name.as_deref() != Some(name.as_str()));
                            held.push(Held {
                                class,
                                name: Some(name),
                                depth,
                            });
                        }
                        Binding::None => {}
                    }
                }
                i += 3;
                continue;
            }
        } else if t.kind == TokKind::Ident
            && !held.is_empty()
            && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
            && !CALL_STOPWORDS.contains(&t.text.as_str())
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            calls.push(CallObs {
                callee: t.text.clone(),
                held: held.iter().map(|h| h.class.clone()).collect(),
                file: file_idx,
                line: t.line,
                func: item.name.clone(),
            });
        }
        i += 1;
    }
    fns.push(FnLocks {
        name: item.name.clone(),
        direct,
    });
}

/// Runs the analysis over the workspace files.
pub fn check(spec: &LockSpec, files: &[&SourceFile]) -> Vec<Diagnostic> {
    let mut pairs: Vec<PairObs> = Vec::new();
    let mut calls: Vec<CallObs> = Vec::new();
    let mut fns: Vec<FnLocks> = Vec::new();

    for (fi, f) in files.iter().enumerate() {
        let items = lexer::fn_items(&f.lexed.tokens);
        for item in &items {
            if f.in_test(item.line) {
                continue;
            }
            let nested = lexer::nested_bodies(&items, item);
            scan_fn(f, fi, item, &nested, spec, &mut pairs, &mut calls, &mut fns);
        }
    }

    // Depth-1 call propagation: resolve callees by workspace-unique name.
    let mut by_name: BTreeMap<&str, Vec<&FnLocks>> = BTreeMap::new();
    for fl in &fns {
        by_name.entry(fl.name.as_str()).or_default().push(fl);
    }
    for c in &calls {
        let Some(cands) = by_name.get(c.callee.as_str()) else {
            continue;
        };
        if cands.len() != 1 || cands[0].direct.is_empty() {
            continue;
        }
        for h in &c.held {
            for d in &cands[0].direct {
                pairs.push(PairObs {
                    held: h.clone(),
                    acq: d.clone(),
                    file: c.file,
                    line: c.line,
                    func: c.func.clone(),
                    via: Some(c.callee.clone()),
                });
            }
        }
    }

    let mut out: Vec<Diagnostic> = Vec::new();
    // One finding per (file, what is wrong), however many sites show it.
    let mut seen_keys: BTreeSet<(String, String)> = BTreeSet::new();
    let mut push_once = |out: &mut Vec<Diagnostic>, key: String, d: Diagnostic| {
        if seen_keys.insert((d.file.clone(), key)) {
            out.push(d);
        }
    };

    // Order and same-class violations.
    for p in &pairs {
        let file = &files[p.file];
        let unknowns: Vec<&str> = [p.held.as_str(), p.acq.as_str()]
            .into_iter()
            .filter(|c| c.starts_with('?'))
            .collect();
        if !unknowns.is_empty() {
            for u in unknowns {
                let key = format!("unknown:{}@{}", u, p.func);
                push_once(
                    &mut out,
                    key,
                    Diagnostic {
                        rule: "lock-order",
                        file: file.rel.clone(),
                        line: p.line,
                        message: format!(
                            "lock on undeclared field `{}` held together with other locks in \
                             `{}`; add a class for it to docs/lock-order.md",
                            &u[1..],
                            p.func
                        ),
                    },
                );
            }
            continue;
        }
        if file.marked(p.line, "lint:allow(lock-order)", 3) {
            continue;
        }
        let (lh, la) = (spec.level(&p.held).unwrap(), spec.level(&p.acq).unwrap());
        if p.held == p.acq {
            let key = format!("same:{}@{}", p.acq, p.func);
            push_once(
                &mut out,
                key,
                Diagnostic {
                    rule: "lock-order",
                    file: file.rel.clone(),
                    line: p.line,
                    message: format!(
                        "`{}` re-acquires lock class `{}` while an instance is already held{} — \
                         two instances of one class (e.g. two shard locks) may never be held \
                         together (DESIGN.md §13 same-shard-only rule)",
                        p.func,
                        p.acq,
                        p.via
                            .as_deref()
                            .map(|v| format!(" (via call to `{v}`)"))
                            .unwrap_or_default(),
                    ),
                },
            );
        } else if la <= lh {
            let key = format!("order:{}->{}@{}", p.held, p.acq, p.func);
            push_once(
                &mut out,
                key,
                Diagnostic {
                    rule: "lock-order",
                    file: file.rel.clone(),
                    line: p.line,
                    message: format!(
                        "`{}` acquires `{}` (level {la}) while holding `{}` (level {lh}){}; \
                         declared order in docs/lock-order.md requires strictly ascending levels",
                        p.func,
                        p.acq,
                        p.held,
                        p.via
                            .as_deref()
                            .map(|v| format!(" (via call to `{v}`)"))
                            .unwrap_or_default(),
                    ),
                },
            );
        }
    }

    // Cycle detection over the full edge set — `lint:allow` waves an
    // edge through but cannot hide a cycle it participates in.
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut rep: BTreeMap<(&str, &str), (usize, usize)> = BTreeMap::new();
    for p in &pairs {
        if p.held.starts_with('?') || p.acq.starts_with('?') || p.held == p.acq {
            continue;
        }
        edges.entry(&p.held).or_default().insert(&p.acq);
        rep.entry((&p.held, &p.acq)).or_insert((p.file, p.line));
    }
    for cycle in find_cycles(&edges) {
        let label = cycle.join(" -> ");
        let (fi, line) = rep[&(cycle[0], cycle[1 % cycle.len()])];
        let key = format!("cycle:{label}");
        push_once(
            &mut out,
            key,
            Diagnostic {
                rule: "lock-order",
                file: files[fi].rel.clone(),
                line,
                message: format!(
                    "lock-acquisition cycle: {label} -> {} — a deadlock is reachable regardless \
                     of declared levels",
                    cycle[0]
                ),
            },
        );
    }

    out
}

/// Finds elementary cycles (as normalized class lists) via DFS. Each
/// cycle is rotated to start at its lexicographically smallest node and
/// deduplicated.
fn find_cycles<'a>(edges: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<&'a str>> {
    let mut found: BTreeSet<Vec<&str>> = BTreeSet::new();
    for &start in edges.keys() {
        let mut stack: Vec<&str> = vec![start];
        dfs(start, edges, &mut stack, &mut found);
    }
    found.into_iter().collect()
}

fn dfs<'a>(
    node: &'a str,
    edges: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    stack: &mut Vec<&'a str>,
    found: &mut BTreeSet<Vec<&'a str>>,
) {
    let Some(next) = edges.get(node) else {
        return;
    };
    for &n in next {
        if let Some(pos) = stack.iter().position(|&s| s == n) {
            let mut cycle: Vec<&str> = stack[pos..].to_vec();
            let min = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| **s)
                .map(|(i, _)| i)
                .unwrap_or(0);
            cycle.rotate_left(min);
            found.insert(cycle);
        } else if stack.len() < 16 {
            stack.push(n);
            dfs(n, edges, stack, found);
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LockSpec {
        LockSpec::parse(&[
            (1, "# comment".into()),
            (2, "class admission 10 admission".into()),
            (3, "class shard.state 30 state".into()),
            (4, "class store 40 store".into()),
            (5, "class metrics 60 metrics".into()),
        ])
        .unwrap()
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&spec(), &[&SourceFile::new("t.rs", src)])
    }

    #[test]
    fn ascending_order_is_clean() {
        let v = run(
            "fn ok(&self) {\n let a = self.admission.lock();\n let s = self.shard.state.lock();\n \
             self.metrics.lock().push(1);\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn descending_order_fires() {
        let v = run(
            "fn bad(&self) {\n let s = self.store.write();\n let a = self.admission.lock();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "lock-order");
        assert_eq!(v[0].line, 3);
        assert!(
            v[0].message.contains("strictly ascending"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn drop_releases_the_guard() {
        let v = run(
            "fn ok(&self) {\n let s = self.store.write();\n drop(s);\n let a = self.admission.lock();\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn scope_end_releases_the_guard() {
        let v = run(
            "fn ok(&self) {\n {\n  let s = self.store.write();\n }\n let a = self.admission.lock();\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn same_class_twice_fires() {
        let v = run("fn bad(&self, a: &S, b: &S) {\n let x = a.state.lock();\n let y = b.state.lock();\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("same-shard-only"), "{}", v[0].message);
    }

    #[test]
    fn rebind_without_drop_is_self_deadlock() {
        let v =
            run("fn bad(&self) {\n let mut g = self.state.lock();\n g = self.state.lock();\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("re-acquires"));
    }

    #[test]
    fn rebind_after_drop_is_clean() {
        let v = run(
            "fn ok(&self) {\n let mut g = self.state.lock();\n drop(g);\n g = self.state.lock();\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn momentary_acquisition_is_instantaneous() {
        // Two momentary locks in sequence never overlap.
        let v = run(
            "fn ok(&self) {\n self.store.write().clear();\n self.admission.lock().reset();\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn momentary_under_guard_records_edge() {
        let v = run(
            "fn bad(&self) {\n let s = self.store.write();\n self.admission.lock().reset();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn call_propagation_depth_one() {
        let v = run(
            "fn callee(&self) {\n let s = self.store.write();\n}\nfn caller(&self) {\n \
             let m = self.metrics.lock();\n self.callee();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("via call to `callee`"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn ambiguous_callee_names_do_not_propagate() {
        let v = run(
            "fn twin(&self) {\n let s = self.store.write();\n}\nmod m {\n fn twin(&self) {\n \
             let s = self.store.write();\n}\n}\nfn caller(&self) {\n let m = self.metrics.lock();\n \
             self.twin();\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lint_allow_suppresses_order_but_not_cycles() {
        // A->B in one fn (allowed), B->A in another (allowed): both order
        // diagnostics suppressed, but the cycle still fires.
        let v = run(
            "fn one(&self) {\n let s = self.store.write();\n // lint:allow(lock-order): test\n \
             let m = self.admission.lock();\n}\nfn two(&self) {\n let a = self.admission.lock();\n \
             let t = self.store.write();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("cycle"), "{}", v[0].message);
    }

    #[test]
    fn undeclared_field_in_pair_fires() {
        let v =
            run("fn bad(&self) {\n let s = self.store.write();\n self.mystery.lock().go();\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("undeclared field `mystery`"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn undeclared_field_alone_is_quiet() {
        let v = run("fn ok(&self) {\n let s = self.mystery.lock();\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod t {\n fn bad(&self) {\n let s = self.store.write();\n \
                   let a = self.admission.lock();\n }\n}\n";
        let v = check(&spec(), &[&SourceFile::new("t.rs", src)]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn indexed_receiver_resolves_to_field() {
        let v = run(
            "fn bad(&self) {\n let s = self.shards[k].state.lock();\n let t = self.shards[j].state.lock();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("shard.state"), "{}", v[0].message);
    }

    #[test]
    fn spec_parser_rejects_garbage() {
        assert!(LockSpec::parse(&[(1, "class only_two 10".into())]).is_err());
        assert!(LockSpec::parse(&[(1, "class a x a".into())]).is_err());
        assert!(
            LockSpec::parse(&[(1, "class a 10 f".into()), (2, "class a 20 g".into())]).is_err()
        );
        assert!(
            LockSpec::parse(&[(1, "class a 10 f".into()), (2, "class b 20 f".into())]).is_err()
        );
    }
}
