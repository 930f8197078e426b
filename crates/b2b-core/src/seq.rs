//! A table of entries under ids issued in sequence.

/// Entries under ids issued in sequence (`first`, `first + 1`, …): the
/// entry of id `first + i` is the `i`-th pushed, found by arithmetic, not
/// hashing. Entries live in segments of doubling size — [`FIRST_SEGMENT`]
/// entries, then twice that, and so on — so growth never moves an entry,
/// and a table of `n` entries has room for fewer than `2n + FIRST_SEGMENT`.
///
/// The coordinator keeps its tickets in one; the order service its public
/// tickets, under one lock.
#[derive(Debug)]
pub struct SeqTable<T> {
    first: u64,
    len: u64,
    segments: Vec<Vec<T>>,
}

/// Entries in the first segment (a power of two).
pub const FIRST_SEGMENT: usize = 16;

/// The segment of the `index`-th entry, and its place there: segment `s`
/// holds `FIRST_SEGMENT << s` entries, from index `FIRST_SEGMENT·(2ˢ − 1)`.
fn locate(index: u64) -> (usize, usize) {
    let shifted = index + FIRST_SEGMENT as u64;
    let top = u64::BITS - 1 - shifted.leading_zeros();
    let segment = top - FIRST_SEGMENT.trailing_zeros();
    (segment as usize, (shifted - (1 << top)) as usize)
}

impl<T> SeqTable<T> {
    /// An empty table whose first id will be `first`.
    pub const fn new(first: u64) -> SeqTable<T> {
        SeqTable {
            first,
            len: 0,
            segments: Vec::new(),
        }
    }

    /// The id the next [`SeqTable::push`] issues.
    pub fn next_id(&self) -> u64 {
        self.first + self.len
    }

    /// Stores `value` under the next id, and returns that id.
    pub fn push(&mut self, value: T) -> u64 {
        let (segment, _) = locate(self.len);
        if segment == self.segments.len() {
            self.segments
                .push(Vec::with_capacity(FIRST_SEGMENT << segment));
        }
        self.segments[segment].push(value);
        self.len += 1;
        self.next_id() - 1
    }

    /// The entry of `id`, if the table holds one.
    pub fn get(&self, id: u64) -> Option<&T> {
        let index = id.checked_sub(self.first).filter(|&i| i < self.len)?;
        let (segment, at) = locate(index);
        Some(&self.segments[segment][at])
    }

    /// The entry of `id`, mutably, if the table holds one.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let index = id.checked_sub(self.first).filter(|&i| i < self.len)?;
        let (segment, at) = locate(index);
        Some(&mut self.segments[segment][at])
    }

    /// Drops every entry. The ids issued so far stay unknown; the next one
    /// continues the sequence.
    pub fn clear(&mut self) {
        self.first = self.next_id();
        self.len = 0;
        self.segments = Vec::new();
    }

    /// How many entries the table holds.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_resolve_across_segments_and_past_a_clear() {
        let mut table = SeqTable::new(1);
        for i in 0..10_000u64 {
            assert_eq!(table.push(i * 3), i + 1);
        }
        assert_eq!(table.len(), 10_000);
        for id in 1..=10_000u64 {
            assert_eq!(table.get(id), Some(&((id - 1) * 3)));
        }
        *table.get_mut(777).unwrap() = 1;
        assert_eq!(table.get(777), Some(&1));
        for id in [0, 10_001, u64::MAX] {
            assert_eq!(table.get(id), None);
            assert!(table.get_mut(id).is_none());
        }
        // Segments double, and none is ever reallocated.
        for (s, segment) in table.segments.iter().enumerate() {
            assert_eq!(segment.capacity(), FIRST_SEGMENT << s);
        }
        table.clear();
        assert!(table.is_empty() && table.get(5).is_none());
        assert_eq!(table.push(9), 10_001);
        assert_eq!(table.get(10_001), Some(&9));
    }
}
