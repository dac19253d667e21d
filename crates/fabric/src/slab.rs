//! The engine's store for in-flight packets.

/// Slab with stable `u32` indices, LIFO slot reuse, and per-slot generation
/// tags.
///
/// Generations start at 0 and bump on removal, so a live handle is
/// `(index, generation)` and a stale handle is detected by comparing
/// generations: engine events carry the flight's generation as their epoch.
/// Slot reuse order decides which index a new flight gets, and that index is
/// part of the trace, so the LIFO free list is part of the determinism
/// contract.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Insert, returning `(index, generation)` of the slot used.
    pub(crate) fn insert(&mut self, value: T) -> (u32, u32) {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            debug_assert!(self.slots[idx as usize].is_none());
            self.slots[idx as usize] = Some(value);
            (idx, self.gens[idx as usize])
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Some(value));
            self.gens.push(0);
            (idx, 0)
        }
    }

    /// Remove the value at `idx`, bumping its generation and recycling the
    /// slot (LIFO). Returns `None` if the slot is already vacant.
    pub(crate) fn remove(&mut self, idx: u32) -> Option<T> {
        let v = self.slots.get_mut(idx as usize)?.take()?;
        self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
        self.free.push(idx);
        self.len -= 1;
        Some(v)
    }

    #[inline]
    pub(crate) fn get(&self, idx: u32) -> Option<&T> {
        self.slots.get(idx as usize)?.as_ref()
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, idx: u32) -> Option<&mut T> {
        self.slots.get_mut(idx as usize)?.as_mut()
    }

    /// Current generation of slot `idx` (0 for never-used indices in range).
    #[inline]
    pub(crate) fn generation(&self, idx: u32) -> u32 {
        self.gens.get(idx as usize).copied().unwrap_or(0)
    }

    /// True iff `(idx, generation)` names a live value.
    #[inline]
    pub(crate) fn contains(&self, idx: u32, generation: u32) -> bool {
        self.generation(idx) == generation && self.get(idx).is_some()
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Iterate `(index, &value)` over occupied slots in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_reuses_slots_lifo_and_bumps_generation() {
        let mut s = Slab::new();
        let (a, ga) = s.insert("a");
        let (b, gb) = s.insert("b");
        assert_eq!((a, ga, b, gb), (0, 0, 1, 0));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(b), Some("b"));
        assert_eq!(s.remove(b), None);
        // LIFO: last freed slot is reused first.
        let (c, gc) = s.insert("c");
        assert_eq!((c, gc), (b, 1));
        let (d, gd) = s.insert("d");
        assert_eq!((d, gd), (a, 1));
        assert!(s.contains(c, 1));
        assert!(!s.contains(c, 0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().map(|(i, _)| i).collect::<Vec<_>>(), vec![0, 1]);
    }
}
