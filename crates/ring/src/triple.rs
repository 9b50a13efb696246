//! Triples and their circular sort orders.

use crate::Id;

/// A labeled edge `s --p--> o` of the graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject (source node).
    pub s: Id,
    /// Predicate (edge label).
    pub p: Id,
    /// Object (target node).
    pub o: Id,
}

impl Triple {
    /// Convenience constructor.
    pub fn new(s: Id, p: Id, o: Id) -> Self {
        Self { s, p, o }
    }

    /// Key for the `spo` lexicographic order (which `L_o` lists objects in).
    #[inline]
    pub fn spo_key(&self) -> (Id, Id, Id) {
        (self.s, self.p, self.o)
    }

    /// Key for the `pos` order (which `L_s` lists subjects in).
    #[inline]
    pub fn pos_key(&self) -> (Id, Id, Id) {
        (self.p, self.o, self.s)
    }

    /// Key for the `osp` order (which `L_p` lists predicates in).
    #[inline]
    pub fn osp_key(&self) -> (Id, Id, Id) {
        (self.o, self.s, self.p)
    }
}

impl From<(Id, Id, Id)> for Triple {
    fn from((s, p, o): (Id, Id, Id)) -> Self {
        Self { s, p, o }
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({} -{}-> {})", self.s, self.p, self.o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_rotate_components() {
        let t = Triple::new(1, 2, 3);
        assert_eq!(t.spo_key(), (1, 2, 3));
        assert_eq!(t.pos_key(), (2, 3, 1));
        assert_eq!(t.osp_key(), (3, 1, 2));
    }

    #[test]
    fn ordering_is_spo() {
        let mut v = vec![
            Triple::new(2, 0, 0),
            Triple::new(1, 9, 9),
            Triple::new(1, 0, 5),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Triple::new(1, 0, 5),
                Triple::new(1, 9, 9),
                Triple::new(2, 0, 0)
            ]
        );
    }
}
