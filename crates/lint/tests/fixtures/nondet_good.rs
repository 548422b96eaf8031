//! Known-good corpus for `nondet-float-reduction`: every pattern here is a
//! deterministic reduction and must produce zero findings.
use std::collections::{BTreeMap, HashMap};

/// The PR-5 *fix*: collect, sort, then sum — order pinned.
pub fn sorted_sum(link_bytes: &HashMap<(usize, usize), f64>) -> f64 {
    let mut entries: Vec<((usize, usize), f64)> =
        link_bytes.iter().map(|(k, v)| (*k, *v)).collect();
    entries.sort_by_key(|(k, _)| *k);
    entries.iter().map(|(_, v)| v).sum()
}

/// BTreeMap iteration order is the key order: deterministic.
pub fn btree_sum(caps: &BTreeMap<(usize, usize), f64>) -> f64 {
    caps.values().sum()
}

/// Vec iteration is insertion order: deterministic.
pub fn vec_sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Keyed lookups into a HashMap are fine — only *iteration* order wobbles.
pub fn keyed_lookup(rates: &HashMap<usize, f64>, active: &[usize]) -> f64 {
    let mut total = 0.0;
    for &i in active {
        total += rates.get(&i).copied().unwrap_or(0.0);
    }
    total
}

/// Building a map by insertion is not a reduction.
pub fn build(pairs: &[(usize, f64)]) -> HashMap<usize, f64> {
    let mut m = HashMap::new();
    for &(k, v) in pairs {
        m.insert(k, v);
    }
    m
}

/// Exact test code is exempt: the rules guard shipped behavior.
#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn order_insensitive_assertion() {
        let m: HashMap<usize, f64> = HashMap::new();
        assert_eq!(m.values().sum::<f64>(), 0.0);
    }
}
