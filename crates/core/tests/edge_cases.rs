//! Numeric edge cases for the permutation math in `topoopt-core`:
//! degenerate group sizes (n ∈ {0, 1, 2}) and degrees at or beyond n − 1.
//! These pin down behavior future refactors of `totient` / `coinchange` /
//! `select` must preserve — no panics, no phantom permutations.

use topoopt_core::coinchange::{coin_change_route, CoinChangeTable};
use topoopt_core::select::{select_for_group, select_permutations};
use topoopt_core::totient::{euler_totient, totient_perms, valid_strides};

// ---------------------------------------------------------------- totient

#[test]
fn totient_of_degenerate_sizes() {
    assert_eq!(euler_totient(0), 0);
    assert_eq!(euler_totient(1), 1);
    assert_eq!(euler_totient(2), 1);
}

#[test]
fn valid_strides_of_degenerate_sizes() {
    assert!(valid_strides(0).is_empty());
    assert!(valid_strides(1).is_empty());
    assert_eq!(valid_strides(2), vec![1]);
}

#[test]
fn two_member_group_has_exactly_the_unit_permutation() {
    // φ(2) = 1: the only ring over two members is +1, regardless of member
    // ids.
    let perms = totient_perms(&[7, 9]);
    assert_eq!(perms.len(), 1);
    assert_eq!(perms[0].stride, 1);
    assert!(perms[0].is_single_ring());
    assert_eq!(perms[0].len(), 2);
}

// ------------------------------------------------------------- coinchange

#[test]
fn coin_change_zero_node_group_is_inert() {
    // n = 0 used to panic (index into an empty hops table and `c % 0`).
    let t = CoinChangeTable::new(0, &[1, 3]);
    assert_eq!(t.max_hops(), 0);
    assert_eq!(t.hops_for_distance(5), usize::MAX);
    assert!(t.decompose(3).is_none());
    assert!(coin_change_route(0, &[1, 3], 0, 0).is_none());
}

#[test]
fn coin_change_single_node_group_only_self_routes() {
    // All coins collapse to 0 mod 1 and are dropped.
    let t = CoinChangeTable::new(1, &[1, 2, 3]);
    assert!(t.coins.is_empty());
    assert_eq!(t.hops_for_distance(0), 0);
    assert_eq!(t.max_hops(), 0);
    assert_eq!(coin_change_route(1, &[1], 0, 0).unwrap(), vec![0]);
}

#[test]
fn coin_change_two_node_group_crosses_in_one_hop() {
    let t = CoinChangeTable::new(2, &[1]);
    assert_eq!(t.hops_for_distance(1), 1);
    assert_eq!(t.max_hops(), 1);
    assert_eq!(coin_change_route(2, &[1], 1, 0).unwrap(), vec![1, 0]);
}

#[test]
fn coins_fold_modulo_group_size() {
    // A +9 ring over 8 nodes is a +1 ring; a +8 "ring" is a self-loop and
    // must be discarded rather than looping forever.
    let folded = CoinChangeTable::new(8, &[9]);
    assert_eq!(folded.coins, vec![1]);
    assert_eq!(folded.hops_for_distance(3), 3);

    let degenerate = CoinChangeTable::new(4, &[4]);
    assert!(degenerate.coins.is_empty());
    assert_eq!(degenerate.hops_for_distance(1), usize::MAX);
    assert!(coin_change_route(4, &[4], 0, 1).is_none());
}

// ----------------------------------------------------------------- select

#[test]
fn select_on_degenerate_groups_returns_nothing() {
    assert!(select_for_group(&[], 4).is_empty());
    assert!(select_for_group(&[3], 4).is_empty());
}

#[test]
fn select_degree_at_least_group_size_is_capped_to_candidates() {
    // Two members: one candidate. Any degree ≥ n − 1 = 1 must still return
    // exactly that one permutation.
    for degree in [1usize, 2, 5, usize::MAX] {
        let sel = select_for_group(&[0, 1], degree);
        assert_eq!(sel.len(), 1, "degree {degree}");
        assert_eq!(sel[0].stride, 1);
    }

    // Sixteen members: φ(16) = 8 candidates; degree n − 1 = 15 caps at 8
    // distinct strides.
    let members: Vec<usize> = (0..16).collect();
    let sel = select_for_group(&members, 15);
    assert_eq!(sel.len(), 8);
    let mut strides: Vec<usize> = sel.iter().map(|p| p.stride).collect();
    strides.sort_unstable();
    strides.dedup();
    assert_eq!(strides.len(), 8);
}

#[test]
fn select_permutations_empty_candidates_with_huge_degree() {
    assert!(select_permutations(&[], usize::MAX).is_empty());
}

#[test]
fn select_three_member_group_degree_two() {
    // n = 3: strides {1, 2}, degree = n − 1 = 2 uses both.
    let sel = select_for_group(&[0, 1, 2], 2);
    let mut strides: Vec<usize> = sel.iter().map(|p| p.stride).collect();
    strides.sort_unstable();
    assert_eq!(strides, vec![1, 2]);
    for p in &sel {
        assert!(p.is_single_ring());
    }
}
