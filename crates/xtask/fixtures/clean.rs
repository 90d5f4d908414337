// Clean fixture: scanned as a deterministic-surface file, expecting
// zero findings.
use std::collections::BTreeMap;

pub struct Ranked {
    ordered: BTreeMap<u64, f64>,
}

impl Ranked {
    pub fn top(&self) -> Option<u64> {
        self.ordered.keys().next().copied()
    }

    pub fn total(&self) -> f64 {
        self.ordered.values().sum()
    }
}

pub fn checked(v: Option<u64>) -> Result<u64, String> {
    v.ok_or_else(|| "missing".to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_and_unwrap_allowed_here() {
        let t = std::time::Instant::now();
        assert!(super::checked(Some(1)).unwrap() == 1);
        let _ = t.elapsed();
    }
}
