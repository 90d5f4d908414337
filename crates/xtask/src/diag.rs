//! Structured diagnostics, stable fingerprints, JSON output, and the
//! ratcheted baseline file.
//!
//! Every rule emits [`Diagnostic`]s. A diagnostic's *fingerprint* is an
//! FNV-1a-64 hash over `rule | file | stable-key`, where the stable key
//! deliberately excludes line numbers: moving unrelated code above a
//! finding must not change its identity, or the baseline would churn on
//! every refactor. Rules choose semantic keys (held→acquired lock pair,
//! event-variant name); the legacy line rules
//! key on the sanitized line *text* plus an occurrence index among
//! identical texts in the same file.
//!
//! The baseline (`lint-baseline.json`) is a ratchet, not an ignore
//! list: a finding whose fingerprint appears there is suppressed, but a
//! baseline entry that no longer matches any finding is *stale* and
//! flagged (an error under `--strict-baseline`, the CI honesty job), so
//! fixed findings must be removed from the file.

use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
    pub fingerprint: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} {{{}}}",
            self.file, self.line, self.rule, self.message, self.fingerprint
        )
    }
}

/// FNV-1a 64-bit — tiny, dependency-free, and stable across platforms.
pub fn fnv1a64(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of (rule, file, stable key) as 16 hex digits.
pub fn fingerprint(rule: &str, file: &str, key: &str) -> String {
    format!("{:016x}", fnv1a64(&format!("{rule}|{file}|{key}")))
}

/// Disambiguates diagnostics that hash to the same (rule, file, key) —
/// e.g. two identical `.unwrap()` lines in one file — by appending an
/// occurrence index. Call after a rule collected all its diagnostics
/// for a file; `diags` must be in source order so indices are stable.
pub fn disambiguate(diags: &mut [Diagnostic]) {
    use std::collections::HashMap;
    let mut seen: HashMap<String, usize> = HashMap::new();
    for d in diags.iter_mut() {
        let n = seen.entry(d.fingerprint.clone()).or_insert(0);
        if *n > 0 {
            d.fingerprint = fingerprint(d.rule, &d.file, &format!("{}#{}", d.fingerprint, n));
        }
        *n += 1;
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a JSON array of objects, one per line, sorted
/// by (file, line, rule) for deterministic output.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"fingerprint\": \"{}\"}}{}\n",
            json_escape(d.rule),
            json_escape(&d.file),
            d.line,
            json_escape(&d.message),
            json_escape(&d.fingerprint),
            if i + 1 < diags.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

/// One entry in `lint-baseline.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineEntry {
    pub fingerprint: String,
    pub rule: String,
    pub note: String,
}

/// Parses the baseline file. The format is our own (written by
/// `--write-baseline` or by hand): a JSON object with a `version` and an
/// `entries` array of flat string-valued objects. The reader is a
/// minimal scanner for exactly that shape — not a general JSON parser —
/// and errors on anything it does not recognise rather than guessing.
pub fn parse_baseline(src: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries = Vec::new();
    let bytes = src.as_bytes();
    // Scan object-by-object inside the entries array; tolerate
    // whitespace and field order, require string values.
    let mut i = src
        .find("\"entries\"")
        .ok_or("baseline: missing \"entries\" key")?;
    while i < bytes.len() && bytes[i] != b'[' {
        i += 1;
    }
    if i == bytes.len() {
        return Err("baseline: \"entries\" is not an array".into());
    }
    i += 1;
    loop {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            return Err("baseline: unterminated entries array".into());
        }
        match bytes[i] {
            b']' => break,
            b',' => {
                i += 1;
                continue;
            }
            b'{' => {
                let end = src[i..]
                    .find('}')
                    .map(|p| i + p)
                    .ok_or("baseline: unterminated entry object")?;
                let obj = &src[i + 1..end];
                let mut fp = None;
                let mut rule = None;
                let mut note = None;
                for (k, v) in string_fields(obj)? {
                    match k.as_str() {
                        "fingerprint" => fp = Some(v),
                        "rule" => rule = Some(v),
                        "note" => note = Some(v),
                        other => return Err(format!("baseline: unknown field \"{other}\"")),
                    }
                }
                entries.push(BaselineEntry {
                    fingerprint: fp.ok_or("baseline: entry missing \"fingerprint\"")?,
                    rule: rule.unwrap_or_default(),
                    note: note.unwrap_or_default(),
                });
                i = end + 1;
            }
            c => {
                return Err(format!(
                    "baseline: unexpected byte {:?} in entries",
                    c as char
                ))
            }
        }
    }
    Ok(entries)
}

/// Splits a flat `"k": "v", "k2": "v2"` object body into pairs.
fn string_fields(obj: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = obj.trim();
    while !rest.is_empty() {
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
            continue;
        }
        let r = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("baseline: expected key in {obj:?}"))?;
        let kend = r.find('"').ok_or("baseline: unterminated key")?;
        let key = r[..kend].to_string();
        let r = r[kend + 1..].trim_start();
        let r = r
            .strip_prefix(':')
            .ok_or("baseline: expected ':' after key")?
            .trim_start();
        let r = r
            .strip_prefix('"')
            .ok_or("baseline: expected string value")?;
        // Values are fingerprints / rule names / notes — our writer never
        // emits escapes in them, so a plain quote scan suffices; a `\"`
        // would need a hand-edit and the unknown-field error catches drift.
        let vend = r.find('"').ok_or("baseline: unterminated value")?;
        out.push((key, r[..vend].to_string()));
        rest = r[vend + 1..].trim_start();
    }
    Ok(out)
}

/// Serialises a baseline from diagnostics (for `--write-baseline`).
pub fn write_baseline(diags: &[Diagnostic], notes: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let note = notes
            .iter()
            .find(|(fp, _)| *fp == d.fingerprint)
            .map(|(_, n)| *n)
            .unwrap_or("");
        out.push_str(&format!(
            "    {{\"fingerprint\": \"{}\", \"rule\": \"{}\", \"note\": \"{}\"}}{}\n",
            json_escape(&d.fingerprint),
            json_escape(d.rule),
            json_escape(note),
            if i + 1 < diags.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Splits findings against a baseline: (new findings, stale entries).
pub fn apply_baseline<'d, 'b>(
    diags: &'d [Diagnostic],
    baseline: &'b [BaselineEntry],
) -> (Vec<&'d Diagnostic>, Vec<&'b BaselineEntry>) {
    let new: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| !baseline.iter().any(|b| b.fingerprint == d.fingerprint))
        .collect();
    let stale: Vec<&BaselineEntry> = baseline
        .iter()
        .filter(|b| !diags.iter().any(|d| d.fingerprint == b.fingerprint))
        .collect();
    (new, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_line_free() {
        let a = fingerprint("r", "f.rs", "key");
        let b = fingerprint("r", "f.rs", "key");
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert_ne!(a, fingerprint("r", "f.rs", "other"));
        assert_ne!(a, fingerprint("r2", "f.rs", "key"));
    }

    #[test]
    fn disambiguate_splits_duplicates() {
        let mk = |line| Diagnostic {
            rule: "r",
            file: "f.rs".into(),
            line,
            message: String::new(),
            fingerprint: fingerprint("r", "f.rs", "same"),
        };
        let mut v = vec![mk(1), mk(5), mk(9)];
        disambiguate(&mut v);
        assert_ne!(v[0].fingerprint, v[1].fingerprint);
        assert_ne!(v[1].fingerprint, v[2].fingerprint);
        // First occurrence keeps the raw fingerprint.
        assert_eq!(v[0].fingerprint, fingerprint("r", "f.rs", "same"));
    }

    #[test]
    fn baseline_roundtrip() {
        let d = Diagnostic {
            rule: "event-parity",
            file: "crates/server/src/engine.rs".into(),
            line: 42,
            message: "server-only variant".into(),
            fingerprint: "deadbeefdeadbeef".into(),
        };
        let text = write_baseline(
            std::slice::from_ref(&d),
            &[("deadbeefdeadbeef", "threaded-only arc")],
        );
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].fingerprint, "deadbeefdeadbeef");
        assert_eq!(parsed[0].note, "threaded-only arc");
        let diags = [d];
        let (new, stale) = apply_baseline(&diags, &parsed);
        assert!(new.is_empty() && stale.is_empty());
    }

    #[test]
    fn baseline_detects_new_and_stale() {
        let d = Diagnostic {
            rule: "r",
            file: "f.rs".into(),
            line: 1,
            message: String::new(),
            fingerprint: "1111111111111111".into(),
        };
        let b = BaselineEntry {
            fingerprint: "2222222222222222".into(),
            rule: "r".into(),
            note: String::new(),
        };
        let (new, stale) = apply_baseline(std::slice::from_ref(&d), std::slice::from_ref(&b));
        assert_eq!(new.len(), 1);
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn baseline_rejects_unknown_fields() {
        let bad = r#"{"version": 1, "entries": [{"fingerprint": "x", "extra": "y"}]}"#;
        assert!(parse_baseline(bad).is_err());
    }

    #[test]
    fn json_output_is_valid_enough() {
        let d = Diagnostic {
            rule: "r",
            file: "a\"b.rs".into(),
            line: 3,
            message: "msg with \"quotes\" and\nnewline".into(),
            fingerprint: "f".into(),
        };
        let j = to_json(&[d]);
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\\n"));
        assert!(j.starts_with("[\n") && j.ends_with("]\n"));
    }
}
