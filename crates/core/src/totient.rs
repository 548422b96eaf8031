//! `TotientPerms` (Algorithm 2): enumerate regular ring-AllReduce
//! permutations of a server group.
//!
//! For a group of `k` servers, every stride `p < k` with `gcd(p, k) = 1`
//! generates a distinct Hamiltonian ring over the group (Theorem 2,
//! Appendix E.1): repeatedly adding `p` modulo `k` visits every member
//! exactly once. There are `φ(k)` such strides, where `φ` is Euler's totient
//! function, and every one of them is enumerated. At large scale the paper
//! restricts the strides to primes, which shrinks the candidate set to
//! `O(k / ln k)` by the prime number theorem. No experiment here needs that
//! restriction: the largest group has 128 servers and so 64 candidates.

use serde::{Deserialize, Serialize};
use topoopt_collectives::ring::{gcd, RingPermutation};

/// `TotientPerms` has no options: it enumerates every co-prime stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TotientPermsConfig;

/// All valid ring strides for a group of size `k`: integers `p in 1..k` with
/// `gcd(p, k) == 1`, in ascending order.
pub fn valid_strides(k: usize) -> Vec<usize> {
    (1..k).filter(|&p| gcd(p, k) == 1).collect()
}

/// `TotientPerms(n, k)` — Algorithm 2. Given the global node count and the
/// member list of one AllReduce group, return every regular ring permutation
/// of the group.
pub fn totient_perms(members: &[usize]) -> Vec<RingPermutation> {
    let k = members.len();
    valid_strides(k).into_iter().map(|p| RingPermutation::new(members.to_vec(), p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Euler's totient function φ(n): the number of integers in `1..n` co-prime
    /// with `n`.
    fn euler_totient(n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let mut result = n;
        let mut m = n;
        let mut p = 2;
        while p * p <= m {
            if m.is_multiple_of(p) {
                while m.is_multiple_of(p) {
                    m /= p;
                }
                result -= result / p;
            }
            p += 1;
        }
        if m > 1 {
            result -= result / m;
        }
        result
    }

    #[test]
    fn totient_known_values() {
        assert_eq!(euler_totient(1), 1);
        assert_eq!(euler_totient(12), 4);
        assert_eq!(euler_totient(16), 8);
        assert_eq!(euler_totient(13), 12);
        assert_eq!(euler_totient(100), 40);
        assert_eq!(euler_totient(0), 0);
    }

    #[test]
    fn strides_for_12_match_paper_example() {
        // §4.3: "for n = 12 servers, the ring generation rule for
        // p = 1, 5, 7, 11 will lead into four distinct ring-AllReduce
        // permutations".
        let s = valid_strides(12);
        assert_eq!(s, vec![1, 5, 7, 11]);
    }

    #[test]
    fn every_returned_permutation_is_a_single_ring() {
        let members: Vec<usize> = (10..26).collect(); // 16 members, offset ids
        for p in totient_perms(&members) {
            assert_eq!(gcd(p.stride, p.len()), 1, "stride {} not a ring", p.stride);
            assert_eq!(p.len(), 16);
        }
    }

    #[test]
    fn number_of_permutations_is_phi_of_group_size() {
        for k in 2..40 {
            let members: Vec<usize> = (0..k).collect();
            let perms = totient_perms(&members);
            assert_eq!(perms.len(), euler_totient(k), "k = {k}");
        }
    }

    #[test]
    fn trivial_groups_have_no_permutations() {
        assert!(totient_perms(&[]).is_empty());
        assert!(totient_perms(&[5]).is_empty());
    }

    proptest! {
        #[test]
        fn strides_are_coprime_and_in_range(k in 2usize..200) {
            for p in valid_strides(k) {
                prop_assert!(p >= 1 && p < k);
                prop_assert_eq!(gcd(p, k), 1);
            }
        }
    }
}
