//! Set-associative cache with LRU replacement.
//!
//! The building block of the memory hierarchy: used for the private L1/L2
//! levels (one instance per core) and the shared last level (one instance).
//! Tags are stored per set in MRU-first order; associativities in the
//! evaluation are ≤ 20, so linear probing within a set is faster than any
//! clever structure.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use serde::{Deserialize, Serialize};

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting another).
    Miss,
}

/// Sentinel marking an empty way. Unreachable as a real tag: line
/// addresses are byte addresses shifted right by the line bits, so hitting
/// `u64::MAX` would require an address far beyond the 64-bit space.
const EMPTY: u64 = u64::MAX;

/// A set-associative, write-allocate cache with true-LRU replacement,
/// indexed by line address (byte address >> log2(line size)).
///
/// Tags live in one flat array (`assoc` consecutive slots per set, MRU
/// first, empty slots at the tail as `EMPTY`) — the hottest lookup
/// structure in the simulator, so it is kept contiguous and
/// allocation-free rather than a `Vec` per set.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `tags[set * assoc ..][..assoc]` holds the set's ways, MRU first.
    tags: Vec<u64>,
    set_shift: u32,
    set_mask: u64,
    assoc: usize,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `size_bytes` capacity with `associativity` ways
    /// and `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless `line_size` is a power of two, the number of lines is
    /// divisible by the associativity, and the resulting set count is a
    /// power of two.
    pub fn new(size_bytes: u64, associativity: u32, line_size: u32) -> Self {
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        let lines = size_bytes / line_size as u64;
        assert!(lines > 0 && lines.is_multiple_of(associativity as u64), "bad geometry");
        let num_sets = lines / associativity as u64;
        assert!(num_sets.is_power_of_two(), "set count {num_sets} must be a power of two");
        Self {
            tags: vec![EMPTY; lines as usize],
            set_shift: line_size.trailing_zeros(),
            set_mask: num_sets - 1,
            assoc: associativity as usize,
            hits: 0,
            misses: 0,
        }
    }

    /// The set's way slots, MRU first.
    #[inline]
    fn ways_mut(&mut self, line: u64) -> &mut [u64] {
        let start = (line & self.set_mask) as usize * self.assoc;
        &mut self.tags[start..start + self.assoc]
    }

    #[inline]
    fn ways(&self, line: u64) -> &[u64] {
        let start = (line & self.set_mask) as usize * self.assoc;
        &self.tags[start..start + self.assoc]
    }

    /// Converts a byte address to this cache's line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.set_shift
    }

    /// Position of `line` among `ways`, if present. Probes the flat
    /// sentinel tag array in batches of four ways with no early exit
    /// inside a batch: the equality tests become straight-line compares
    /// the compiler can turn into SIMD lanes, where a per-way
    /// `position()` scan is a chain of data-dependent branches. Tags are
    /// unique within a set, so the first match is the only match.
    #[inline]
    fn find_way(ways: &[u64], line: u64) -> Option<usize> {
        let mut i = 0;
        while i + 4 <= ways.len() {
            let m = (ways[i] == line) as u32
                | ((ways[i + 1] == line) as u32) << 1
                | ((ways[i + 2] == line) as u32) << 2
                | ((ways[i + 3] == line) as u32) << 3;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 4;
        }
        while i < ways.len() {
            if ways[i] == line {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Accesses `line` (a line address): returns `Hit` and promotes it to
    /// MRU, or fills it (LRU eviction) and returns `Miss`.
    pub fn access(&mut self, line: u64) -> AccessOutcome {
        let ways = self.ways_mut(line);
        if let Some(pos) = Self::find_way(ways, line) {
            // Move to front (MRU): one bounded rotate, no allocation.
            ways[..=pos].rotate_right(1);
            self.hits += 1;
            AccessOutcome::Hit
        } else {
            // Insert at MRU; the last slot (the LRU way, or an empty
            // sentinel when the set is not full) rotates out.
            ways.rotate_right(1);
            ways[0] = line;
            self.misses += 1;
            AccessOutcome::Miss
        }
    }

    /// True if `line` is present (does not touch LRU order or counters).
    pub fn contains(&self, line: u64) -> bool {
        self.ways(line).contains(&line)
    }

    /// Removes `line` if present (coherence invalidation). Returns whether
    /// it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let ways = self.ways_mut(line);
        if let Some(pos) = Self::find_way(ways, line) {
            // Shift the tail up and leave an empty slot at the end,
            // preserving the LRU order of the remaining ways.
            ways[pos..].rotate_left(1);
            *ways.last_mut().expect("assoc >= 1") = EMPTY;
            true
        } else {
            false
        }
    }

    /// Drops all contents and statistics (cold state).
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.hits = 0;
        self.misses = 0;
    }

    /// Installs `line` without touching the hit/miss counters (prefetch
    /// fill). No-op if already present; evicts LRU when full.
    pub fn install(&mut self, line: u64) {
        let ways = self.ways_mut(line);
        if ways.contains(&line) {
            return;
        }
        ways.rotate_right(1);
        ways[0] = line;
    }

    /// Fills an empty cache with exactly the contents and LRU order that
    /// [`access`](Self::access)ing every line of `spans` in order (each
    /// span ascending) would leave, without touching the hit/miss counters.
    ///
    /// From an empty cache, that state is, per set, the first `assoc`
    /// distinct lines of the *reversed* access sequence, MRU first. So the
    /// spans are walked last to first and each span's lines high to low,
    /// skipping the parts a later span already covered (those lines were
    /// offered then): every distinct line is offered once, and each set
    /// appends lines until it is full. The walk stops once every set is
    /// full.
    ///
    /// The cache must be empty (freshly built or [`reset`](Self::reset)).
    pub fn fill_from_spans(&mut self, spans: &[RangeInclusive<u64>]) {
        debug_assert_eq!(self.occupancy(), 0, "bulk fill needs an empty cache");
        let assoc = self.assoc as u32;
        let set_mask = self.set_mask;
        let tags = &mut self.tags;
        let mut fill = vec![0u32; set_mask as usize + 1];
        let mut open_sets = fill.len();
        // Offers `lines` high to low; true once every set is full.
        let mut offer = |lines: std::ops::Range<u64>| {
            for line in lines.rev() {
                let set = (line & set_mask) as usize;
                let ways = fill[set];
                if ways < assoc {
                    tags[set * assoc as usize + ways as usize] = line;
                    fill[set] = ways + 1;
                    if ways + 1 == assoc {
                        open_sets -= 1;
                        if open_sets == 0 {
                            return true;
                        }
                    }
                }
            }
            false
        };
        // Union of the spans walked so far as disjoint, non-adjacent
        // `start -> end` (inclusive) runs.
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for span in spans.iter().rev() {
            let (lo, hi) = (*span.start(), *span.end());
            // Lines `lo..top` are not offered yet; `top` drops past each
            // covered run met walking down, and the runs touching the span
            // merge into one.
            let mut top = hi + 1;
            let (mut run_lo, mut run_hi) = (lo, hi);
            while let Some((&s, &e)) = covered.range(..=hi.saturating_add(1)).next_back() {
                if e.saturating_add(1) < lo {
                    break;
                }
                covered.remove(&s);
                if e + 1 < top && offer(e + 1..top) {
                    return;
                }
                top = top.min(s);
                run_lo = run_lo.min(s);
                run_hi = run_hi.max(e);
            }
            if lo < top && offer(lo..top) {
                return;
            }
            covered.insert(run_lo, run_hi);
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over the cache's lifetime; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpoint_stats::rng::Xoshiro256pp;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512 B
        SetAssocCache::new(512, 2, 64)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small();
        assert_eq!(c.access(7), AccessOutcome::Miss);
        assert_eq!(c.access(7), AccessOutcome::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.access(0);
        c.access(4);
        // Touch 0 so 4 becomes LRU.
        assert_eq!(c.access(0), AccessOutcome::Hit);
        // Fill a third line in the same set: evicts 4, not 0.
        c.access(8);
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = small();
        for line in 0..4u64 {
            assert_eq!(c.access(line), AccessOutcome::Miss);
        }
        for line in 0..4u64 {
            assert_eq!(c.access(line), AccessOutcome::Hit, "line {line}");
        }
    }

    #[test]
    fn invalidate_removes_only_target() {
        let mut c = small();
        c.access(0);
        c.access(4);
        assert!(c.invalidate(0));
        assert!(!c.contains(0));
        assert!(c.contains(4));
        assert!(!c.invalidate(0), "second invalidate is a no-op");
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut c = small();
        for line in 0..100u64 {
            c.access(line);
        }
        assert_eq!(c.occupancy(), c.capacity_lines());
        assert_eq!(c.capacity_lines(), 8);
    }

    #[test]
    fn reset_returns_to_cold_state() {
        let mut c = small();
        c.access(1);
        c.access(2);
        c.reset();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.access(1), AccessOutcome::Miss);
    }

    #[test]
    fn line_of_uses_line_size() {
        let c = SetAssocCache::new(1024, 2, 64);
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(63), 0);
        assert_eq!(c.line_of(64), 1);
        assert_eq!(c.line_of(6400), 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        SetAssocCache::new(512, 2, 48);
    }

    /// Random line spans over a line space a few times the cache, mixing
    /// fresh spans with exact duplicates, nested, partially overlapping
    /// and adjacent copies of earlier ones.
    fn random_spans(rng: &mut Xoshiro256pp, capacity: u64) -> Vec<RangeInclusive<u64>> {
        let space = 4 * capacity;
        let mut spans: Vec<RangeInclusive<u64>> = Vec::new();
        for _ in 0..rng.next_range(1, 13) {
            let fresh = |rng: &mut Xoshiro256pp| {
                let lo = rng.next_below(space);
                lo..=lo + rng.next_below(capacity + capacity / 2)
            };
            let span = match (spans.is_empty(), rng.next_below(6)) {
                (true, _) | (false, 0) => fresh(rng),
                (false, kind) => {
                    let prev = spans[rng.next_below(spans.len() as u64) as usize].clone();
                    let (lo, hi) = (*prev.start(), *prev.end());
                    let inside = rng.next_range(lo, hi);
                    let reach = rng.next_range(1, capacity);
                    match kind {
                        1 => prev,
                        2 => inside..=rng.next_range(inside, hi),
                        3 => inside..=hi + reach,
                        4 => lo.saturating_sub(reach)..=inside,
                        _ => hi + 1..=hi + reach,
                    }
                }
            };
            spans.push(span);
        }
        spans
    }

    #[test]
    fn bulk_fill_matches_sequential_accesses() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xB01C_F111);
        for assoc in [1u32, 2, 8, 16, 20] {
            for sets in [1u64, 4, 32] {
                let size = sets * assoc as u64 * 64;
                for case in 0..200 {
                    let spans = random_spans(&mut rng, sets * assoc as u64);
                    let mut sequential = SetAssocCache::new(size, assoc, 64);
                    for span in &spans {
                        for line in span.clone() {
                            sequential.access(line);
                        }
                    }
                    let mut bulk = SetAssocCache::new(size, assoc, 64);
                    bulk.fill_from_spans(&spans);
                    // Same lines in the same MRU-first order, set by set.
                    assert_eq!(
                        bulk.tags, sequential.tags,
                        "{assoc}-way, {sets} sets, case {case}: {spans:?}"
                    );
                    assert_eq!((bulk.hits(), bulk.misses()), (0, 0), "counters untouched");
                }
            }
        }
    }

    #[test]
    fn bulk_fill_keeps_the_most_recent_lines_mru_first() {
        // 1 set x 2 ways: of 0,1,2,3 then 1,2 again, the last two
        // distinct lines touched are 2 (MRU) then 1.
        let mut c = SetAssocCache::new(128, 2, 64);
        c.fill_from_spans(&[0..=3, 1..=2]);
        assert_eq!(c.tags, [2, 1]);
        // An empty span list leaves the cache empty.
        let mut c = small();
        c.fill_from_spans(&[]);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        // Cyclic walk over 16 lines (cache holds 8) with LRU => 0% hit rate.
        let mut c = small();
        for _ in 0..10 {
            for line in 0..16u64 {
                c.access(line);
            }
        }
        assert!(c.hit_rate() < 1e-9);
    }
}
