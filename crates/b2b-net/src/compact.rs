//! The capacity policy of per-group containers that are usually empty or
//! short: a resident group is held for the process's life, so what its
//! lists keep beyond their length is paid once per group.

use std::collections::VecDeque;

/// Up to this many entries a small container grows one entry at a time;
/// from there it doubles, as `Vec` does.
pub const SMALL: usize = 4;

/// Growth and release for a container sized to what it holds.
pub trait Compact<T> {
    /// Appends `x`, growing by one entry while the container is short.
    fn push_small(&mut self, x: T);
    /// Gives the capacity of an emptied container back.
    fn release_if_empty(&mut self);
}

impl<T> Compact<T> for Vec<T> {
    fn push_small(&mut self, x: T) {
        if self.len() == self.capacity() && self.len() < SMALL {
            self.reserve_exact(1);
        }
        self.push(x);
    }

    fn release_if_empty(&mut self) {
        if self.is_empty() && self.capacity() > 0 {
            *self = Vec::new();
        }
    }
}

impl<T> Compact<T> for VecDeque<T> {
    fn push_small(&mut self, x: T) {
        if self.len() == self.capacity() && self.len() < SMALL {
            self.reserve_exact(1);
        }
        self.push_back(x);
    }

    fn release_if_empty(&mut self) {
        if self.is_empty() && self.capacity() > 0 {
            *self = VecDeque::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_by_one_while_short_then_doubles() {
        let mut v: Vec<u64> = Vec::new();
        for i in 0..SMALL {
            v.push_small(i as u64);
            assert_eq!(v.capacity(), i + 1);
        }
        v.push_small(9);
        assert!(v.capacity() >= 2 * SMALL);
        let mut d: VecDeque<u64> = VecDeque::new();
        d.push_small(1);
        assert_eq!(d.capacity(), 1);
    }

    #[test]
    fn an_emptied_container_gives_its_capacity_back() {
        let mut v = vec![1u8, 2, 3];
        v.release_if_empty();
        assert_eq!(v.capacity(), 3);
        v.clear();
        v.release_if_empty();
        assert_eq!(v.capacity(), 0);
        let mut d: VecDeque<u8> = VecDeque::with_capacity(8);
        d.release_if_empty();
        assert_eq!(d.capacity(), 0);
    }
}
