//! Replacement policies for the set-associative cache model.
//!
//! The ground-truth LLC and the ATD both use true LRU (the ATD's per-way hit
//! counters rely on the LRU stack property). A random policy is provided for
//! sensitivity studies.

use serde::{Deserialize, Serialize};

/// Replacement policy selector for [`crate::cache::PartitionedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// True least-recently-used replacement.
    Lru,
    /// Pseudo-random replacement (xorshift over the victim ways).
    Random,
}

/// An LRU recency stack over at most `capacity` cache lines (tags).
///
/// Position 0 is the most recently used line. The *stack distance* of an
/// access is the position of its tag before the access (0-based), or `None`
/// for a cold miss; an access with stack distance `d` hits in any cache with
/// more than `d` ways and misses otherwise — the LRU stack property that lets
/// a single pass produce the miss count for every associativity up to the
/// capacity at once.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LruStack {
    /// Tags ordered from most recently used to least recently used.
    stack: Vec<u64>,
    capacity: usize,
}

impl LruStack {
    /// Creates an empty stack bounded to `capacity` entries: exactly one
    /// `capacity`-way LRU set.
    ///
    /// A tag pushed past the capacity is forgotten, so its next reference
    /// reports `None` like a cold miss: distances below `capacity` are exact
    /// and every distance `>= capacity` reads as `None`. By LRU inclusion
    /// such an access misses with any `ways <= capacity`, so a stack bounded
    /// to the associativity answers every way-allocation query exactly (the
    /// stack-distance profiler relies on this).
    pub fn new(capacity: usize) -> Self {
        LruStack {
            stack: Vec::with_capacity(capacity.min(64)),
            capacity,
        }
    }

    /// Creates a stack that never forgets a tag, so its distances are exact
    /// at any depth: the test oracle the bounded stacks are checked against.
    #[cfg(test)]
    pub(crate) fn unbounded() -> Self {
        LruStack::new(usize::MAX)
    }

    /// References `tag`: returns its previous stack distance (`None` if the
    /// tag was not resident, i.e. a cold miss) and moves it to the MRU
    /// position, evicting the LRU entry if the capacity is exceeded.
    pub fn touch(&mut self, tag: u64) -> Option<usize> {
        match self.stack.iter().position(|&t| t == tag) {
            Some(p) => {
                // Move to front.
                self.stack[..=p].rotate_right(1);
                Some(p)
            }
            None => {
                if self.stack.len() < self.capacity {
                    self.stack.push(tag);
                } else if let Some(lru) = self.stack.last_mut() {
                    // Full: the LRU entry is evicted in place.
                    *lru = tag;
                } else {
                    return None;
                }
                self.stack.rotate_right(1);
                None
            }
        }
    }

    /// Current number of resident tags.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// Whether the stack holds no tags.
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// The tag at stack position `pos` (0 = most recently used).
    pub fn peek(&self, pos: usize) -> Option<u64> {
        self.stack.get(pos).copied()
    }

    /// Removes and returns the least recently used tag.
    pub fn evict_lru(&mut self) -> Option<u64> {
        self.stack.pop()
    }

    /// Whether `tag` is resident.
    pub fn contains(&self, tag: u64) -> bool {
        self.stack.contains(&tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_distances_follow_reuse() {
        let mut s = LruStack::unbounded();
        assert_eq!(s.touch(10), None); // cold
        assert_eq!(s.touch(20), None);
        assert_eq!(s.touch(30), None);
        // Reusing 10 after touching 20 and 30: distance 2.
        assert_eq!(s.touch(10), Some(2));
        // Immediately reusing 10: distance 0.
        assert_eq!(s.touch(10), Some(0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn bounded_stack_evicts_lru() {
        let mut s = LruStack::new(2);
        s.touch(1);
        s.touch(2);
        s.touch(3); // evicts 1
        assert!(!s.contains(1));
        assert!(s.contains(2) && s.contains(3));
        assert_eq!(s.len(), 2);
        // Touching 1 again is a cold miss from the stack's perspective.
        assert_eq!(s.touch(1), None);
    }

    #[test]
    fn peek_and_evict() {
        let mut s = LruStack::unbounded();
        s.touch(1);
        s.touch(2);
        assert_eq!(s.peek(0), Some(2));
        assert_eq!(s.peek(1), Some(1));
        assert_eq!(s.evict_lru(), Some(1));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn hit_iff_ways_exceed_distance() {
        // Simulate a small trace against caches of different associativity
        // and check the stack property explicitly.
        let trace = [5u64, 6, 7, 5, 8, 6, 5, 9, 7];
        for ways in 1..=4usize {
            let mut full = LruStack::new(ways);
            let mut profiler = LruStack::unbounded();
            for &t in &trace {
                let hit_in_cache = full.touch(t).is_some();
                let dist = profiler.touch(t);
                let hit_by_property = matches!(dist, Some(d) if d < ways);
                assert_eq!(hit_in_cache, hit_by_property, "ways={ways} tag={t}");
            }
        }
    }
}
