//! Interned flat link storage and the index-based water-filler — the hot
//! core of the event engine.
//!
//! [`LinkArena`] interns every directed link the engine ever sees into a
//! dense [`LinkId`] (`u32`), so the event path stores capacities, byte
//! counters, and flow-on-link adjacency in plain `Vec`s indexed by id —
//! zero tree or hash lookups per event. The `BTreeMap`-ordered semantics of
//! the original map-keyed code survive only at the API boundary and in one
//! place here: the arena maintains a key-sorted id list
//! ([`LinkArena::ids_by_key`]) so order-sensitive reductions visit links in
//! exactly the order the map-keyed code did.
//!
//! # Determinism contract
//!
//! Float addition does not commute at the last ulp, so every reduction over
//! links must fix its iteration order to stay bit-stable run-over-run and
//! byte-identical to the committed artifacts:
//!
//! * the carried-bytes summary sums per-link byte counters in ascending
//!   `LinkKey` order via [`LinkArena::ids_by_key`] (O(links), no
//!   allocation — the sorted key set is maintained incrementally at intern
//!   time instead of being rebuilt per call);
//! * [`waterfill_ids`] scans candidate bottleneck links in ascending
//!   `LinkKey` order (the order the map-keyed `waterfill_slices` of the
//!   dev-only `topoopt-oracle` crate iterates its `BTreeMap`s in) and
//!   freezes flows in the same position order, so the flat and map-keyed
//!   water-fillers produce bit-identical rates;
//! * results must not depend on thread count: the water-filler is a pure
//!   function of the arena and the spans, and the shared fabric's
//!   per-component engines merge in deterministic component order.

use crate::fluid::LinkKey;
use std::collections::HashMap;

/// Dense index of an interned directed link.
pub(crate) type LinkId = u32;

/// Checked narrowing for every dense `u32` index the engine constructs
/// (link ids, union-find slots, CSR positions, component ids). `usize as
/// u32` truncates silently past 4 billion; this is the one audited place
/// where the bound is actually enforced, so `topoopt-lint`'s
/// `truncating-cast` rule can require all id construction to funnel here.
#[inline]
pub(crate) fn dense_u32(i: usize) -> u32 {
    // lint:allow(panic-in-engine): the single audited bounds check for id
    // narrowing — a fabric with more than u32::MAX links/flows/components
    // is a caller bug, not an event-path condition.
    u32::try_from(i).expect("dense index exceeds u32::MAX")
}

/// Dense arena of directed links: capacities and keys indexed by
/// [`LinkId`], with a hash index for interning and a key-sorted id list for
/// order-sensitive reductions.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkArena {
    /// `LinkId -> (src, dst)` node pair.
    keys: Vec<LinkKey>,
    /// `LinkId ->` aggregated capacity in bps (0.0 for links interned from
    /// a path but absent from the fabric: flows routed over them get rate 0).
    caps: Vec<f64>,
    /// `(src, dst) -> LinkId` interning index.
    index: HashMap<LinkKey, LinkId>,
    /// Every id, ordered by ascending `LinkKey` (see the determinism
    /// contract in the module docs). Maintained incrementally on intern.
    by_key: Vec<LinkId>,
}

impl LinkArena {
    /// Build from `(key, capacity)` pairs in ascending key order (e.g. a
    /// `BTreeMap` iteration). Ids are assigned in key order, so `by_key` is
    /// the identity until later interns insert out-of-order links.
    pub fn from_sorted_capacities(entries: impl IntoIterator<Item = (LinkKey, f64)>) -> Self {
        let mut arena = LinkArena::default();
        for (key, cap) in entries {
            debug_assert!(
                arena.keys.last().map(|&k| k < key).unwrap_or(true),
                "capacity entries must arrive in strictly ascending key order"
            );
            let id = dense_u32(arena.keys.len());
            arena.keys.push(key);
            arena.caps.push(cap);
            arena.index.insert(key, id);
            arena.by_key.push(id);
        }
        arena
    }

    /// Number of interned links.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// The `(src, dst)` pair of a link.
    pub fn key(&self, id: LinkId) -> LinkKey {
        self.keys[id as usize]
    }

    /// Capacity of a link in bps.
    pub fn cap(&self, id: LinkId) -> f64 {
        self.caps[id as usize]
    }

    /// Id of an already-interned link.
    pub fn lookup(&self, key: LinkKey) -> Option<LinkId> {
        self.index.get(&key).copied()
    }

    /// Intern a link, returning its id; new links start at capacity 0.0.
    pub fn intern(&mut self, key: LinkKey) -> LinkId {
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = dense_u32(self.keys.len());
        self.keys.push(key);
        self.caps.push(0.0);
        self.index.insert(key, id);
        let pos = self
            .by_key
            .binary_search_by(|&other| self.keys[other as usize].cmp(&key))
            .expect_err("key was not in the index, so it cannot be in by_key");
        self.by_key.insert(pos, id);
        id
    }

    /// Every id in ascending `LinkKey` order — the iteration order of the
    /// old `BTreeMap`-keyed code, kept so sums and scans stay bit-identical.
    pub fn ids_by_key(&self) -> &[LinkId] {
        &self.by_key
    }
}

/// Pooled per-call buffers for [`waterfill_ids_with`]: a water-filling pass
/// allocates nothing when driven through a scratch that has warmed up to the
/// workload's component size. The engine keeps one for its recompute path,
/// so steady-state event handling reuses the same heap blocks event after
/// event.
/// Every buffer is fully rewritten per call, so reuse cannot change results.
#[derive(Debug, Clone, Default)]
pub(crate) struct WaterfillScratch {
    touched: Vec<LinkId>,
    caps: Vec<f64>,
    span_slots: Vec<Vec<u32>>,
    flows_on: Vec<Vec<u32>>,
    residual: Vec<f64>,
    unfixed: Vec<usize>,
    fixed: Vec<bool>,
    frozen: Vec<u32>,
}

/// [`waterfill_ids_with`] over a throwaway scratch — convenience for tests
/// and one-shot callers.
#[cfg(test)]
pub(crate) fn waterfill_ids(
    links: &LinkArena,
    spans: &[&[LinkId]],
    relay_factors: &[f64],
) -> Vec<f64> {
    waterfill_ids_with(links, spans, relay_factors, &mut WaterfillScratch::default())
}

/// Progressive-filling max-min fair allocation over interned link ids — the
/// flat-index equivalent of the map-keyed `topoopt_oracle::waterfill_slices`,
/// returning rates (bps) aligned with `spans` positions.
///
/// `spans[k]` holds the link ids flow `k` traverses, one entry per path
/// window *including duplicates* (a path revisiting a link counts once per
/// crossing in the link's fair share, like the map-keyed code), and
/// `relay_factors[k]` its kernel-relay cap multiplier. The candidate
/// bottleneck scan visits touched links in ascending `LinkKey` order and
/// flows freeze in position order, replicating the map-keyed float
/// operation order exactly — the allocations are bit-identical, which is
/// what keeps the committed BENCH artifacts byte-stable across the flat
/// refactor (see the unit tests below, which assert `f64::to_bits`
/// equality against `waterfill_slices` and check every allocation with the
/// oracle crate's max-min certificate, `check_max_min`).
pub(crate) fn waterfill_ids_with(
    links: &LinkArena,
    spans: &[&[LinkId]],
    relay_factors: &[f64],
    scratch: &mut WaterfillScratch,
) -> Vec<f64> {
    debug_assert_eq!(spans.len(), relay_factors.len());
    let n = spans.len();
    let WaterfillScratch { touched, caps, span_slots, flows_on, residual, unfixed, fixed, frozen } =
        scratch;
    // Absolute rate caps for relayed logical connections; fabrics without
    // relay overhead skip the bookkeeping (same fast path as the map code).
    let any_capped = relay_factors.iter().any(|&f| f < 1.0);
    caps.clear();
    if any_capped {
        caps.extend(spans.iter().zip(relay_factors).map(|(span, &f)| {
            if f >= 1.0 {
                f64::INFINITY
            } else {
                let bottleneck = span.iter().map(|&id| links.cap(id)).fold(f64::INFINITY, f64::min);
                if bottleneck.is_finite() {
                    f.max(0.0) * bottleneck
                } else {
                    f64::INFINITY // zero-hop path: never rated anyway
                }
            }
        }));
    }

    // Touched links as dense slots, ordered by ascending LinkKey so the
    // most-constrained-link scan retraces the BTreeMap iteration.
    touched.clear();
    touched.extend(spans.iter().flat_map(|s| s.iter().copied()));
    touched.sort_unstable_by_key(|&id| links.key(id));
    touched.dedup();
    let t = touched.len();
    let slot_of = |touched: &[LinkId], id: LinkId| -> usize {
        touched
            .binary_search_by(|&other| links.key(other).cmp(&links.key(id)))
            // lint:allow(panic-in-engine): `touched` was built from exactly
            // these spans three lines up, so every span link is present.
            .expect("every span link is in the touched set")
    };
    // Per-flow slot lists mirror the spans (duplicates preserved). Inner
    // vectors are pooled: only the first `n` are used, each cleared first.
    if span_slots.len() < n {
        span_slots.resize_with(n, Vec::new);
    }
    if flows_on.len() < t {
        flows_on.resize_with(t, Vec::new);
    }
    for (pos, span) in spans.iter().enumerate() {
        let slots = &mut span_slots[pos];
        slots.clear();
        slots.extend(span.iter().map(|&id| dense_u32(slot_of(touched, id))));
    }
    let span_slots: &[Vec<u32>] = &span_slots[..n];

    residual.clear();
    residual.extend(touched.iter().map(|&id| links.cap(id)));
    let flows_on = &mut flows_on[..t];
    for f in flows_on.iter_mut() {
        f.clear();
    }
    for (pos, slots) in span_slots.iter().enumerate() {
        for &sl in slots {
            flows_on[sl as usize].push(dense_u32(pos));
        }
    }
    unfixed.clear();
    unfixed.extend(flows_on.iter().map(|v| v.len()));

    let mut rates = vec![0.0f64; n];
    fixed.clear();
    fixed.resize(n, false);
    let mut remaining_flows = n;
    while remaining_flows > 0 {
        // Most constrained link: min residual / #unfixed flows, scanning
        // slots in key order with a strict `<` so ties resolve to the
        // lowest key — exactly the map-keyed scan.
        let mut best: Option<(usize, f64)> = None;
        for sl in 0..t {
            let count = unfixed[sl];
            if count == 0 {
                continue;
            }
            let share = residual[sl] / count as f64;
            if best.map(|(_, b)| share < b).unwrap_or(true) {
                best = Some((sl, share));
            }
        }
        // Most constrained per-flow rate cap, ties by position.
        let mut best_cap: Option<(usize, f64)> = None;
        for (pos, &cap) in caps.iter().enumerate() {
            if fixed[pos] || cap.is_infinite() {
                continue;
            }
            if best_cap.map(|(_, b)| cap < b).unwrap_or(true) {
                best_cap = Some((pos, cap));
            }
        }
        // A capped flow freezes at its cap only when strictly below the
        // bottleneck fair share (ties defer to link freezing).
        if let Some((pos, cap)) = best_cap {
            let link_share = best.map(|(_, s)| s.max(0.0)).unwrap_or(f64::INFINITY);
            if cap < link_share {
                let cap = cap.max(0.0);
                rates[pos] = cap;
                fixed[pos] = true;
                remaining_flows -= 1;
                for &sl in &span_slots[pos] {
                    let sl = sl as usize;
                    residual[sl] = (residual[sl] - cap).max(0.0);
                    unfixed[sl] = unfixed[sl].saturating_sub(1);
                }
                continue;
            }
        }
        let Some((bottleneck, share)) = best else {
            // Remaining flows traverse no links (zero-hop spans); their
            // rates stay 0.0, matching the map-keyed fallback.
            break;
        };
        let share = share.max(0.0);
        // Freeze every unfixed flow crossing the bottleneck at `share`, in
        // registration (position) order.
        frozen.clear();
        frozen.extend(flows_on[bottleneck].iter().copied().filter(|&p| !fixed[p as usize]));
        for &pos in frozen.iter() {
            let pos = pos as usize;
            if fixed[pos] {
                continue; // listed twice on the bottleneck (path revisit)
            }
            rates[pos] = share;
            fixed[pos] = true;
            remaining_flows -= 1;
            for &sl in &span_slots[pos] {
                let sl = sl as usize;
                residual[sl] = (residual[sl] - share).max(0.0);
                unfixed[sl] = unfixed[sl].saturating_sub(1);
            }
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use topoopt_oracle::{check_max_min, waterfill_slices};

    /// Run the flat water-filler over `paths` and assert the max-min
    /// certificate on its allocation.
    fn certified_waterfill(
        capacity: &BTreeMap<LinkKey, f64>,
        paths: &[&[usize]],
        factors: &[f64],
    ) -> Vec<f64> {
        let mut arena = LinkArena::from_sorted_capacities(capacity.iter().map(|(&k, &v)| (k, v)));
        let spans: Vec<Vec<LinkId>> = paths
            .iter()
            .map(|p| p.windows(2).map(|w| arena.intern((w[0], w[1]))).collect())
            .collect();
        let span_refs: Vec<&[LinkId]> = spans.iter().map(|s| s.as_slice()).collect();
        let rates = waterfill_ids(&arena, &span_refs, factors);
        if let Err(violation) = check_max_min(capacity, paths, factors, &rates) {
            panic!("max-min certificate failed: {violation}\nrates {rates:?}\npaths {paths:?}");
        }
        rates
    }

    /// Assert the flat water-filler is max-min fair and matches the
    /// map-keyed one bit-for-bit.
    fn assert_bit_identical(
        capacity: &BTreeMap<LinkKey, f64>,
        paths: &[Vec<usize>],
        factors: &[f64],
    ) {
        let path_refs: Vec<&[usize]> = paths.iter().map(|p| p.as_slice()).collect();
        let flat = certified_waterfill(capacity, &path_refs, factors);

        let active: Vec<usize> = (0..paths.len()).collect();
        let map_rates = waterfill_slices(capacity, &active, &path_refs, factors);
        for (pos, &rate) in flat.iter().enumerate() {
            let expected = map_rates.get(&pos).copied().unwrap_or(0.0);
            assert_eq!(
                rate.to_bits(),
                expected.to_bits(),
                "flow {pos}: flat {rate} vs map {expected}"
            );
        }
    }

    /// Deterministic pseudo-random sequence for test-case generation.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((self.0 >> 33) as usize) % bound.max(1)
        }
    }

    #[test]
    fn intern_keeps_ids_stable_and_by_key_sorted() {
        let mut arena = LinkArena::from_sorted_capacities(vec![((0, 1), 10.0), ((2, 3), 20.0)]);
        assert_eq!(arena.intern((0, 1)), 0);
        let late = arena.intern((1, 2)); // out of key order
        assert_eq!(late, 2);
        assert_eq!(arena.cap(late), 0.0);
        assert_eq!(arena.lookup((2, 3)), Some(1));
        let keys: Vec<LinkKey> = arena.ids_by_key().iter().map(|&id| arena.key(id)).collect();
        assert_eq!(keys, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn matches_map_waterfill_on_shared_bottleneck() {
        let mut capacity = BTreeMap::new();
        capacity.insert((0, 1), 100.0);
        capacity.insert((1, 2), 10.0);
        let paths = vec![vec![0, 1, 2], vec![0, 1]];
        assert_bit_identical(&capacity, &paths, &[1.0, 1.0]);
    }

    #[test]
    fn matches_map_waterfill_with_relay_caps_and_missing_links() {
        let mut capacity = BTreeMap::new();
        capacity.insert((0, 1), 100.0);
        capacity.insert((1, 2), 40.0);
        // Path over the absent (2, 3) link gets rate 0; the relayed flow is
        // capped below its fair share.
        let paths = vec![vec![0, 1, 2, 3], vec![0, 1, 2], vec![0, 1]];
        assert_bit_identical(&capacity, &paths, &[1.0, 0.25, 1.0]);
    }

    #[test]
    fn matches_map_waterfill_on_revisiting_path() {
        let mut capacity = BTreeMap::new();
        capacity.insert((0, 1), 90.0);
        capacity.insert((1, 0), 90.0);
        // 0 -> 1 -> 0 -> 1 crosses (0, 1) twice: counts twice in its share.
        let paths = vec![vec![0, 1, 0, 1], vec![0, 1]];
        assert_bit_identical(&capacity, &paths, &[1.0, 1.0]);
    }

    #[test]
    fn dead_links_waterfill_to_zero_never_nan() {
        // The engine stalls flows on zero-capacity links instead of
        // dropping them, so the fair-share division `0 / count` must come
        // out as rate 0 — never NaN or a negative share — and flows whose
        // relay cap is `factor × 0` must freeze at exactly 0.
        let mut capacity: BTreeMap<LinkKey, f64> = BTreeMap::new();
        capacity.insert((0, 1), 100.0);
        capacity.insert((1, 2), 0.0); // failed link (capacity zeroed)
                                      // (2, 3) is intentionally absent: missing links count as dead.
        let rates = certified_waterfill(
            &capacity,
            &[&[0, 1], &[0, 1, 2], &[2, 3], &[0, 1, 2]],
            // Flow 3's cap is 0.5 × its zero bottleneck = 0.
            &[1.0, 1.0, 1.0, 0.5],
        );
        for (pos, &r) in rates.iter().enumerate() {
            assert!(r.is_finite() && r >= 0.0, "flow {pos}: rate {r} must be finite and >= 0");
        }
        assert_eq!(rates[1], 0.0, "flow over the zeroed link stalls");
        assert_eq!(rates[2], 0.0, "flow over the missing link stalls");
        assert_eq!(rates[3], 0.0, "relay-capped flow over the zeroed link stalls");
        // Stalled flows consume nothing, so the healthy flow still gets the
        // full 100 bps of its link.
        assert!((rates[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn matches_map_waterfill_on_random_ring_workloads() {
        let mut rng = Lcg(7);
        for case in 0..50 {
            let n = 4 + rng.next(12);
            let mut capacity = BTreeMap::new();
            for i in 0..n {
                capacity.insert((i, (i + 1) % n), 50.0 + rng.next(200) as f64);
            }
            let flows = 2 + rng.next(2 * n);
            let mut paths = Vec::new();
            let mut factors = Vec::new();
            for _ in 0..flows {
                let start = rng.next(n);
                let hops = 1 + rng.next(n - 1);
                let path: Vec<usize> = (0..=hops).map(|k| (start + k) % n).collect();
                paths.push(path);
                factors.push(if rng.next(4) == 0 { rng.next(100) as f64 / 100.0 } else { 1.0 });
            }
            assert_bit_identical(&capacity, &paths, &factors);
            let _ = case;
        }
    }
}
