//! Structured diagnostics and their text and JSON renderings. Every
//! rule emits [`Diagnostic`]s; any finding fails the run. The one escape
//! hatch is `nondet-iter`'s `// lint:sorted: why` comment.

use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
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
            "  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            json_escape(d.rule),
            json_escape(&d.file),
            d.line,
            json_escape(&d.message),
            if i + 1 < diags.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_is_valid_enough() {
        let d = Diagnostic {
            rule: "r",
            file: "a\"b.rs".into(),
            line: 3,
            message: "msg with \"quotes\" and\nnewline".into(),
        };
        let j = to_json(&[d]);
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\\n"));
        assert!(j.starts_with("[\n") && j.ends_with("]\n"));
    }
}
