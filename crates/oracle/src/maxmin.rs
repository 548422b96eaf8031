//! Max-min fairness certificate: checks an allocation's defining property
//! instead of recomputing the allocation.

use std::collections::BTreeMap;
use topoopt_netsim::fluid::LinkKey;

/// Relative tolerance of every comparison: progressive filling subtracts
/// frozen rates from link residuals in float, so exact equality is too
/// strict, while any real fault is off by far more.
const TOL: f64 = 1e-9;

/// `a <= b` up to [`TOL`] relative to the larger magnitude.
fn at_most(a: f64, b: f64) -> bool {
    a <= b + TOL * a.abs().max(b.abs())
}

/// Check that `rates[k]` (bps) is the max-min fair allocation of flows with
/// node paths `paths[k]` over the directed-link `capacity`, under the
/// relay caps the allocators apply: a factor `< 1.0` caps a flow at
/// `factor ×` the smallest capacity on its path. Links missing from
/// `capacity` have capacity 0, and a path that crosses a link twice loads
/// it twice, as in both allocators.
///
/// The certificate holds when every rate is finite and non-negative, no
/// link carries more than its capacity, no flow exceeds its relay cap, and
/// every flow either sits at its relay cap or crosses a saturated link on
/// which no flow runs faster (its bottleneck). A flow whose path crosses no
/// link is never rated and is not checked. Returns the first violation.
pub fn check_max_min(
    capacity: &BTreeMap<LinkKey, f64>,
    paths: &[&[usize]],
    relay_factors: &[f64],
    rates: &[f64],
) -> Result<(), String> {
    if paths.len() != rates.len() || relay_factors.len() != rates.len() {
        return Err(format!(
            "{} paths and {} relay factors for {} rates",
            paths.len(),
            relay_factors.len(),
            rates.len()
        ));
    }
    if let Some((k, r)) = rates.iter().enumerate().find(|(_, r)| !(r.is_finite() && **r >= 0.0)) {
        return Err(format!("flow {k}: rate {r} is not finite and non-negative"));
    }
    let cap = |link: LinkKey| capacity.get(&link).copied().unwrap_or(0.0);
    // Per link: the summed load (once per crossing) and the fastest flow.
    let mut links: BTreeMap<LinkKey, (f64, f64)> = BTreeMap::new();
    for (path, &r) in paths.iter().zip(rates) {
        for w in path.windows(2) {
            let (load, fastest) = links.entry((w[0], w[1])).or_insert((0.0, 0.0));
            *load += r;
            *fastest = fastest.max(r);
        }
    }
    for (&link, &(load, _)) in &links {
        if !at_most(load, cap(link)) {
            return Err(format!("link {link:?}: load {load} exceeds capacity {}", cap(link)));
        }
    }
    for (k, (path, &r)) in paths.iter().zip(rates).enumerate() {
        if path.len() < 2 {
            continue;
        }
        let bottleneck = path.windows(2).map(|w| cap((w[0], w[1]))).fold(f64::INFINITY, f64::min);
        let relay_cap = if relay_factors[k] < 1.0 {
            relay_factors[k].max(0.0) * bottleneck
        } else {
            f64::INFINITY
        };
        if !at_most(r, relay_cap) {
            return Err(format!("flow {k}: rate {r} exceeds its relay cap {relay_cap}"));
        }
        if relay_cap.is_finite() && at_most(relay_cap, r) {
            continue;
        }
        let has_bottleneck = path.windows(2).any(|w| {
            let link = (w[0], w[1]);
            let (load, fastest) = links[&link];
            at_most(cap(link), load) && at_most(fastest, r)
        });
        if !has_bottleneck {
            return Err(format!(
                "flow {k}: rate {r} is below its relay cap but has no saturated link where it is \
                 fastest"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Links `0 -> 1` at 100 bps and `1 -> 2` at 10 bps.
    fn line() -> BTreeMap<LinkKey, f64> {
        BTreeMap::from([((0, 1), 100.0), ((1, 2), 10.0)])
    }

    #[test]
    fn accepts_the_max_min_allocation() {
        let paths: [&[usize]; 2] = [&[0, 1, 2], &[0, 1]];
        assert_eq!(check_max_min(&line(), &paths, &[1.0, 1.0], &[10.0, 90.0]), Ok(()));
        // A relay-capped flow at its cap leaves the headroom to its sharer.
        let paths: [&[usize]; 2] = [&[0, 1], &[0, 1]];
        assert_eq!(check_max_min(&line(), &paths, &[0.25, 1.0], &[25.0, 75.0]), Ok(()));
        // A path crossing `0 -> 1` twice loads it twice: 2 × 30 + 30 = 90.
        let caps = BTreeMap::from([((0, 1), 90.0), ((1, 0), 90.0)]);
        let paths: [&[usize]; 2] = [&[0, 1, 0, 1], &[0, 1]];
        assert_eq!(check_max_min(&caps, &paths, &[1.0, 1.0], &[30.0, 30.0]), Ok(()));
    }

    #[test]
    fn rejects_an_over_capacity_assignment() {
        let paths: [&[usize]; 2] = [&[0, 1], &[0, 1]];
        let err = check_max_min(&line(), &paths, &[1.0, 1.0], &[60.0, 60.0]).unwrap_err();
        assert!(err.contains("exceeds capacity"), "{err}");
        // A missing link has capacity 0.
        let err = check_max_min(&line(), &[&[2, 3]], &[1.0], &[1.0]).unwrap_err();
        assert!(err.contains("exceeds capacity"), "{err}");
    }

    #[test]
    fn rejects_an_under_filled_assignment() {
        // Flow 1 could take the 10 bps flow 0 leaves on `0 -> 1`.
        let paths: [&[usize]; 2] = [&[0, 1, 2], &[0, 1]];
        let err = check_max_min(&line(), &paths, &[1.0, 1.0], &[10.0, 80.0]).unwrap_err();
        assert!(err.contains("flow 1") && err.contains("no saturated link"), "{err}");
        // Saturated but unfair: flow 0 is slower than its sharer everywhere.
        let paths: [&[usize]; 2] = [&[0, 1], &[0, 1]];
        let err = check_max_min(&line(), &paths, &[1.0, 1.0], &[40.0, 60.0]).unwrap_err();
        assert!(err.contains("flow 0") && err.contains("no saturated link"), "{err}");
    }

    #[test]
    fn rejects_broken_rates_and_relay_caps() {
        let paths: [&[usize]; 1] = [&[0, 1]];
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let err = check_max_min(&line(), &paths, &[1.0], &[bad]).unwrap_err();
            assert!(err.contains("not finite and non-negative"), "{err}");
        }
        let err = check_max_min(&line(), &paths, &[0.5], &[100.0]).unwrap_err();
        assert!(err.contains("exceeds its relay cap"), "{err}");
        assert!(check_max_min(&line(), &paths, &[1.0], &[1.0, 2.0]).is_err());
    }
}
