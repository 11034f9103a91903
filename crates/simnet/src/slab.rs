//! A slot arena: values live at stable small indices, and a freed index
//! is the next one handed out. For state keyed by tokens that only the
//! owner ever sees (packets held by a device, handler runs in flight),
//! where a hash map would hash a counter on every event.

/// Grows on demand; never shrinks.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    pub fn new() -> Slab<T> {
        Slab::default()
    }

    /// Store `value`; the key stays valid until [`Self::remove`].
    pub fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(key) => {
                self.slots[key] = Some(value);
                key
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    pub fn remove(&mut self, key: usize) -> Option<T> {
        let value = self.slots.get_mut(key)?.take()?;
        self.free.push(key);
        Some(value)
    }

    pub fn get(&self, key: usize) -> Option<&T> {
        self.slots.get(key)?.as_ref()
    }

    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        self.slots.get_mut(key)?.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_reused() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!((s.get(a), s.get(b)), (Some(&"a"), Some(&"b")));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None, "double free is a no-op");
        let c = s.insert("c");
        assert_eq!(c, a, "freed slot is handed out again");
        assert_eq!(s.get(b), Some(&"b"), "other keys unaffected");
        *s.get_mut(c).expect("live") = "c2";
        assert_eq!(s.remove(c), Some("c2"));
        assert_eq!(s.get(99), None);
    }
}
