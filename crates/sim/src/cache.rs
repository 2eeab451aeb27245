//! Set-associative cache with LRU replacement.
//!
//! The building block of the memory hierarchy: used for the private L1/L2
//! levels (one instance per core) and the shared last level (one instance).
//! Tags are stored per set in MRU-first order; associativities in the
//! evaluation are ≤ 20, so linear probing within a set is faster than any
//! clever structure.

use std::collections::BTreeMap;
use std::ops::{Range, RangeInclusive};

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

/// Tag bytes one window of [`SetAssocCache::fill_from_spans`] writes:
/// small enough to stay in a host core's L2 (1,024 sets of a 20-way
/// cache).
const FILL_WINDOW_BYTES: usize = 160 * 1024;

/// The lines that walking `spans` last to first, each span high to low,
/// offers for the first time: non-empty `lo..top` runs in offer order,
/// each offered high to low. Parts of a span that a later span already
/// covered are skipped, so every distinct line appears exactly once.
fn offer_runs(spans: &[RangeInclusive<u64>]) -> Vec<Range<u64>> {
    let mut runs = Vec::new();
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
            if e + 1 < top {
                runs.push(e + 1..top);
            }
            top = top.min(s);
            run_lo = run_lo.min(s);
            run_hi = run_hi.max(e);
        }
        if lo < top {
            runs.push(lo..top);
        }
        covered.insert(run_lo, run_hi);
    }
    runs
}

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
    /// appends lines until it is full.
    ///
    /// The fill runs in two passes. The first computes the uncovered runs
    /// in offer order (`offer_runs`); the second writes them one window
    /// of consecutive sets at a time, sized so a window's tags stay in a
    /// host core's L2, instead of striding across the whole tag array once
    /// per way. Sets are independent and every set still receives its
    /// lines in offer order, so the result does not depend on the window.
    ///
    /// The cache must be empty (freshly built or [`reset`](Self::reset)).
    pub fn fill_from_spans(&mut self, spans: &[RangeInclusive<u64>]) {
        let window = (FILL_WINDOW_BYTES / (self.assoc * std::mem::size_of::<u64>())).max(1);
        self.fill_runs(&offer_runs(spans), window);
    }

    /// Appends the lines of `runs` (runs in order, each run's lines high to
    /// low) to their sets until each set holds `assoc` lines, visiting
    /// `window` consecutive sets at a time.
    fn fill_runs(&mut self, runs: &[Range<u64>], window: usize) {
        debug_assert_eq!(self.occupancy(), 0, "bulk fill needs an empty cache");
        let assoc = self.assoc;
        let sets = self.set_mask as usize + 1;
        let set_bits = self.set_mask.count_ones();
        let mut fill = vec![0u32; sets];
        for first in (0..sets).step_by(window) {
            let last = (first + window).min(sets);
            let mut open = last - first;
            // Within a run, a set's lines lie one period (`sets` lines)
            // apart; walking the periods high to low keeps each set's
            // lines in offer order.
            'runs: for run in runs {
                for period in ((run.start >> set_bits)..=((run.end - 1) >> set_bits)).rev() {
                    let base = period << set_bits;
                    let lo = run.start.max(base + first as u64);
                    let hi = run.end.min(base + last as u64);
                    for line in (lo..hi).rev() {
                        let set = (line - base) as usize;
                        let ways = fill[set] as usize;
                        if ways < assoc {
                            self.tags[set * assoc + ways] = line;
                            fill[set] += 1;
                            if ways + 1 == assoc {
                                open -= 1;
                                if open == 0 {
                                    break 'runs;
                                }
                            }
                        }
                    }
                }
            }
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

    /// Fills a fresh `assoc`-way, `sets`-set cache with `fill` and with
    /// sequential accesses of the same random spans, `cases` times, and
    /// asserts both leave the same tags.
    fn check_bulk_fill(
        rng: &mut Xoshiro256pp,
        assoc: u32,
        sets: u64,
        cases: usize,
        fill: impl Fn(&mut SetAssocCache, &[RangeInclusive<u64>]),
        label: &str,
    ) {
        let size = sets * assoc as u64 * 64;
        for case in 0..cases {
            let spans = random_spans(rng, sets * assoc as u64);
            let mut sequential = SetAssocCache::new(size, assoc, 64);
            for span in &spans {
                for line in span.clone() {
                    sequential.access(line);
                }
            }
            let mut bulk = SetAssocCache::new(size, assoc, 64);
            fill(&mut bulk, &spans);
            // Same lines in the same MRU-first order, set by set.
            assert_eq!(
                bulk.tags, sequential.tags,
                "{assoc}-way, {sets} sets, {label}, case {case}: {spans:?}"
            );
            assert_eq!((bulk.hits(), bulk.misses()), (0, 0), "counters untouched");
        }
    }

    #[test]
    fn bulk_fill_matches_sequential_accesses() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xB01C_F111);
        for assoc in [1u32, 2, 8, 16, 20] {
            for sets in [1u64, 4, 32] {
                check_bulk_fill(&mut rng, assoc, sets, 200, |c, s| c.fill_from_spans(s), "one");
            }
        }
    }

    #[test]
    fn bulk_fill_matches_sequential_accesses_across_windows() {
        // Windows far smaller than the set count, most not dividing it:
        // runs cross window and set-period boundaries many times over.
        let mut rng = Xoshiro256pp::seed_from_u64(0x3141_F111);
        for assoc in [1u32, 2, 8] {
            for sets in [4u64, 32, 64] {
                for window in [1usize, 3, 5, 8, 13] {
                    check_bulk_fill(
                        &mut rng,
                        assoc,
                        sets,
                        40,
                        |c, s| c.fill_runs(&offer_runs(s), window),
                        &format!("window {window}"),
                    );
                }
            }
        }
        // The production window on caches that span several windows:
        // 20 ways give two full 1,024-set windows, 16 ways a 1,280-set
        // window plus a partial one.
        for (assoc, windows) in [(20u32, 2), (16, 2)] {
            let sets = 2048u64;
            let window = FILL_WINDOW_BYTES / (assoc as usize * 8);
            assert_eq!((sets as usize).div_ceil(window), windows, "{assoc}-way window {window}");
            check_bulk_fill(&mut rng, assoc, sets, 6, |c, s| c.fill_from_spans(s), "default");
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

    /// True LRU, one `VecDeque` per set, MRU at the front.
    struct LruModel {
        sets: Vec<std::collections::VecDeque<u64>>,
        assoc: usize,
    }

    impl LruModel {
        fn set(&mut self, line: u64) -> &mut std::collections::VecDeque<u64> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line % n) as usize]
        }

        fn access(&mut self, line: u64) -> AccessOutcome {
            let assoc = self.assoc;
            let set = self.set(line);
            let outcome = match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    set.remove(pos);
                    AccessOutcome::Hit
                }
                None => AccessOutcome::Miss,
            };
            set.push_front(line);
            set.truncate(assoc);
            outcome
        }

        fn install(&mut self, line: u64) {
            let assoc = self.assoc;
            let set = self.set(line);
            if !set.contains(&line) {
                set.push_front(line);
                set.truncate(assoc);
            }
        }

        fn invalidate(&mut self, line: u64) -> bool {
            let set = self.set(line);
            match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    set.remove(pos);
                    true
                }
                None => false,
            }
        }
    }

    #[test]
    fn matches_a_true_lru_model_on_random_streams() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x1A0_CAC4E);
        for assoc in [1u32, 2, 8, 16, 20] {
            let sets = 8u64;
            let mut cache = SetAssocCache::new(sets * assoc as u64 * 64, assoc, 64);
            let mut model = LruModel {
                sets: vec![std::collections::VecDeque::new(); sets as usize],
                assoc: assoc as usize,
            };
            // Lines from a space about twice the capacity: hits, misses,
            // evictions and invalidations of present and absent lines all
            // occur often.
            let space = 2 * sets * assoc as u64;
            for step in 0..20_000 {
                let line = rng.next_below(space);
                match rng.next_below(8) {
                    0 => {
                        cache.install(line);
                        model.install(line);
                    }
                    1 => assert_eq!(cache.invalidate(line), model.invalidate(line)),
                    _ => assert_eq!(cache.access(line), model.access(line), "step {step}"),
                }
                let set = (line % sets) as usize;
                let ways = &cache.tags[set * assoc as usize..][..assoc as usize];
                let resident: Vec<u64> = ways.iter().copied().filter(|&t| t != EMPTY).collect();
                assert!(
                    resident.iter().eq(model.sets[set].iter()),
                    "{assoc}-way, step {step}: {ways:?} vs {:?}",
                    model.sets[set]
                );
                // Empty ways only ever trail the resident ones.
                assert!(ways[resident.len()..].iter().all(|&t| t == EMPTY));
            }
            let resident: usize = model.sets.iter().map(|s| s.len()).sum();
            assert_eq!(cache.occupancy(), resident);
        }
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
