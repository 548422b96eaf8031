//! `SelectPermutations` (Algorithm 3): pick `d_k` ring strides whose values
//! approximate a geometric sequence.
//!
//! The goal is to minimise the diameter of the AllReduce sub-topology so
//! that model-parallel transfers, which share the same links, need few hops.
//! With strides `{1, x, x², …}` where `x = k^(1/d_k)`, any modular distance
//! can be composed from at most `O(d_k · k^(1/d_k))` stride steps
//! (Theorem 1 / Appendix E.2) — the Chord-like structure the paper points
//! out.

use crate::totient::totient_perms;
use topoopt_collectives::ring::RingPermutation;

/// `SelectPermutations(n, d_k, P_k)` — Algorithm 3.
///
/// `candidates` is the stride set produced by `TotientPerms` for one group;
/// `degree` is the number of permutations (NIC interfaces) allocated to the
/// group. Returns the chosen permutations, in the order selected.
pub fn select_permutations(candidates: &[RingPermutation], degree: usize) -> Vec<RingPermutation> {
    if candidates.is_empty() || degree == 0 {
        return Vec::new();
    }
    let k = candidates[0].len() as f64;
    let degree = degree.min(candidates.len());

    // Available strides, sorted ascending.
    let mut strides: Vec<usize> = candidates.iter().map(|c| c.stride).collect();
    strides.sort_unstable();

    let mut chosen: Vec<usize> = Vec::new();
    // q starts at the minimum candidate (line 3).
    let mut q = strides[0] as f64;
    chosen.push(strides[0]);
    let mut remaining: Vec<usize> = strides[1..].to_vec();

    // Geometric ratio x = d_k-th root of the group size (line 5).
    let x = k.powf(1.0 / degree as f64);

    for _ in 1..degree {
        if remaining.is_empty() {
            break;
        }
        // Next target value on the geometric sequence (line 7).
        let target = x * q;
        // Project onto the remaining candidates with minimal L1 distance
        // (line 8).
        let (idx, &best) = remaining
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                let da = (a as f64 - target).abs();
                let db = (b as f64 - target).abs();
                da.total_cmp(&db)
            })
            .unwrap();
        chosen.push(best);
        q = best as f64;
        remaining.remove(idx);
    }

    chosen
        .into_iter()
        .map(|s| {
            candidates
                .iter()
                .find(|c| c.stride == s)
                .expect("chosen stride came from candidates")
                .clone()
        })
        .collect()
}

/// Count the directed links of a `k`-member circulant with the given
/// strides whose individual loss disconnects some ordered member pair
/// (critical links). Zero means the group's AllReduce rings survive any
/// single link failure: traffic detours over the surviving strides.
pub fn critical_links(k: usize, strides: &[usize]) -> usize {
    let g = topoopt_graph::topologies::from_permutations(k, strides, 1.0);
    let ids: Vec<_> = g.edges().map(|(id, _)| id).collect();
    ids.into_iter()
        .filter(|&id| {
            let mut cut = g.clone();
            cut.remove_edge(id);
            !cut.is_strongly_connected()
        })
        .count()
}

/// Availability-aware `SelectPermutations`: the geometric pick of
/// [`select_permutations`], repaired by greedy stride swaps until no
/// single link loss can disconnect the group's circulant (or no swap
/// improves the critical-link count). A single-stride selection is
/// returned untouched — one egress per member can never survive a cut;
/// redundancy must come from the degree split (see
/// `TopologyFinderInput::availability_aware`).
pub fn select_permutations_available(
    candidates: &[RingPermutation],
    degree: usize,
) -> Vec<RingPermutation> {
    let base = select_permutations(candidates, degree);
    if base.len() < 2 {
        return base;
    }
    let k = candidates[0].len();
    let mut strides: Vec<usize> = base.iter().map(|p| p.stride).collect();
    let mut best = critical_links(k, &strides);
    while best > 0 {
        // First strictly-better swap in candidate order wins: deterministic.
        let mut swap: Option<(usize, usize)> = None;
        for slot in 0..strides.len() {
            for c in candidates.iter().map(|c| c.stride) {
                if strides.contains(&c) {
                    continue;
                }
                let mut trial = strides.clone();
                trial[slot] = c;
                let crit = critical_links(k, &trial);
                if crit < best {
                    best = crit;
                    swap = Some((slot, c));
                }
            }
        }
        match swap {
            Some((slot, c)) => strides[slot] = c,
            None => break,
        }
    }
    strides
        .into_iter()
        .map(|s| {
            candidates
                .iter()
                .find(|c| c.stride == s)
                .expect("swapped stride came from candidates")
                .clone()
        })
        .collect()
}

/// Convenience: run `TotientPerms` + `SelectPermutations` for a group.
pub fn select_for_group(members: &[usize], degree: usize) -> Vec<RingPermutation> {
    select_permutations(&totient_perms(members), degree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_graph::paths::diameter;
    use topoopt_graph::topologies::from_permutations;

    fn strides_of(perms: &[RingPermutation]) -> Vec<usize> {
        perms.iter().map(|p| p.stride).collect()
    }

    #[test]
    fn selects_stride_one_first() {
        let members: Vec<usize> = (0..16).collect();
        let sel = select_for_group(&members, 3);
        assert_eq!(sel.len(), 3);
        assert_eq!(sel[0].stride, 1);
    }

    #[test]
    fn figure7_example_spreads_strides_geometrically() {
        // The DLRM example of Figure 7/9: 16 servers, 3 interfaces for the
        // AllReduce group. The chosen strides should roughly follow
        // 1, 16^(1/3) ≈ 2.5, 16^(2/3) ≈ 6.3, i.e. small / medium / large —
        // the paper picks +1, +3, +7.
        let members: Vec<usize> = (0..16).collect();
        let sel = select_for_group(&members, 3);
        let s = strides_of(&sel);
        assert_eq!(s[0], 1);
        assert!(s[1] >= 2 && s[1] <= 5, "mid stride = {}", s[1]);
        assert!(s[2] >= 5 && s[2] <= 9, "large stride = {}", s[2]);
    }

    #[test]
    fn selection_never_repeats_a_stride() {
        let members: Vec<usize> = (0..30).collect();
        let sel = select_for_group(&members, 6);
        let mut s = strides_of(&sel);
        s.sort_unstable();
        let before = s.len();
        s.dedup();
        assert_eq!(before, s.len());
    }

    #[test]
    fn degree_larger_than_candidates_is_capped() {
        let members: Vec<usize> = (0..6).collect(); // φ(6) = 2 candidates
        let sel = select_for_group(&members, 5);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn zero_degree_or_empty_candidates_yield_nothing() {
        let members: Vec<usize> = (0..8).collect();
        assert!(select_for_group(&members, 0).is_empty());
        assert!(select_permutations(&[], 3).is_empty());
    }

    #[test]
    fn geometric_selection_bounds_diameter_better_than_consecutive_strides() {
        // Theorem 1: the selected permutations give a Chord-like topology
        // whose diameter is O(d * n^(1/d)); picking the d smallest strides
        // instead gives a diameter of ~n/d.
        let n = 64;
        let members: Vec<usize> = (0..n).collect();
        let d = 3;
        let selected = select_for_group(&members, d);
        let geo = from_permutations(n, &strides_of(&selected), 1.0);
        let naive = from_permutations(n, &[1, 3, 5], 1.0);
        let dg = diameter(&geo).unwrap();
        let dn = diameter(&naive).unwrap();
        assert!(dg < dn, "geometric {dg} vs naive {dn}");
        // Theorem 1 bound with a small constant slack.
        let bound = (d as f64) * (n as f64).powf(1.0 / d as f64);
        assert!((dg as f64) <= 2.0 * bound, "diameter {dg} exceeds bound {bound}");
    }

    #[test]
    fn single_ring_is_all_critical_two_rings_survive() {
        // One directed ring: every member has a single egress, so every one
        // of the k links is critical. Two coprime strides detour around any
        // single cut.
        assert_eq!(critical_links(12, &[1]), 12);
        assert_eq!(critical_links(12, &[1, 5]), 0);
        assert_eq!(critical_links(16, &[1, 3, 7]), 0);
    }

    #[test]
    fn availability_selection_matches_geometric_when_already_survivable() {
        let members: Vec<usize> = (0..16).collect();
        let candidates = totient_perms(&members);
        let geo = select_permutations(&candidates, 3);
        let avail = select_permutations_available(&candidates, 3);
        assert_eq!(strides_of(&geo), strides_of(&avail));
        assert_eq!(critical_links(16, &strides_of(&avail)), 0);
    }

    #[test]
    fn availability_selection_leaves_single_stride_untouched() {
        let members: Vec<usize> = (0..10).collect();
        let candidates = totient_perms(&members);
        let avail = select_permutations_available(&candidates, 1);
        assert_eq!(strides_of(&avail), vec![1]);
    }

    #[test]
    fn diameter_shrinks_as_degree_grows() {
        let n = 128;
        let members: Vec<usize> = (0..n).collect();
        let mut last = usize::MAX;
        for d in [1usize, 2, 4, 8] {
            let sel = select_for_group(&members, d);
            let g = from_permutations(n, &strides_of(&sel), 1.0);
            let dia = diameter(&g).unwrap();
            assert!(dia <= last, "degree {d}: diameter {dia} > previous {last}");
            last = dia;
        }
        assert!(last <= 16);
    }
}
