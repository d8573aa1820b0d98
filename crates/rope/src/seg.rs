//! Segment-reference support inside ropes.
//!
//! The paper's string-librarian optimization needs *no grammar or
//! evaluator changes*: "All that needs to be changed is the
//! implementation of the standard string data type used for code
//! attributes" (§4.2). This module is that change: a rope may contain
//! [`SegmentId`] references to text stored at the librarian. Evaluators
//! concatenate such ropes exactly like ordinary ones; the librarian
//! [`Rope::resolve`]s the final rope against its [`SegmentStore`].

use crate::{Inner, Rope, SegmentId, SegmentStore, UnknownSegment};

/// A flattened view element of a rope: either owned text or a segment
/// reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Piece {
    /// Literal text carried by the rope itself.
    Text(String),
    /// Reference to librarian-stored text with its logical length.
    Seg(SegmentId, usize),
}

impl Rope {
    /// Creates a rope that is a reference to librarian-stored text of
    /// logical length `len`.
    pub fn seg(id: SegmentId, len: usize) -> Rope {
        if len == 0 {
            return Rope::new();
        }
        Rope::inner(Inner::Seg(id, len))
    }

    /// `true` if the rope contains unresolved segment references.
    /// O(1): inner nodes cache it.
    pub fn has_segments(&self) -> bool {
        match self.as_inner() {
            None => false,
            Some(Inner::Seg(..)) => true,
            Some(Inner::Cat(c)) => c.segs,
        }
    }

    /// Segment ids referenced, left to right.
    pub fn seg_ids(&self) -> Vec<SegmentId> {
        self.pieces()
            .into_iter()
            .filter_map(|p| match p {
                Piece::Seg(id, _) => Some(id),
                Piece::Text(_) => None,
            })
            .collect()
    }

    /// Flattens the rope into maximal text runs and segment references.
    pub fn pieces(&self) -> Vec<Piece> {
        let mut out: Vec<Piece> = Vec::new();
        let mut stack: Vec<&Rope> = vec![self];
        while let Some(n) = stack.pop() {
            if let Some(s) = n.as_leaf() {
                match out.last_mut() {
                    Some(Piece::Text(t)) => t.push_str(s),
                    _ => out.push(Piece::Text(s.to_string())),
                }
                continue;
            }
            match n.as_inner() {
                None => {}
                Some(Inner::Seg(id, len)) => out.push(Piece::Seg(*id, *len)),
                Some(Inner::Cat(c)) => {
                    stack.push(&c.right);
                    stack.push(&c.left);
                }
            }
        }
        out
    }

    /// Replaces text runs of at least `threshold` bytes with fresh
    /// segments allocated through `alloc` (which must register the text
    /// with the librarian). Segment references already present are kept.
    ///
    /// Returns the deflated rope and how many new segments were created.
    pub fn deflate(
        &self,
        threshold: usize,
        alloc: &mut dyn FnMut(Rope) -> SegmentId,
    ) -> (Rope, usize) {
        let mut created = 0;
        let mut result = Rope::new();
        for piece in self.pieces() {
            match piece {
                Piece::Text(t) if t.len() >= threshold => {
                    let len = t.len();
                    let id = alloc(Rope::leaf(t));
                    result.push_rope(&Rope::seg(id, len));
                    created += 1;
                }
                Piece::Text(t) => result.push_str(&t),
                Piece::Seg(id, len) => result.push_rope(&Rope::seg(id, len)),
            }
        }
        (result, created)
    }

    /// Resolves every segment reference against `store`, producing a
    /// pure-text rope.
    ///
    /// # Errors
    ///
    /// [`UnknownSegment`] if a referenced segment was never registered.
    pub fn resolve(&self, store: &SegmentStore) -> Result<Rope, UnknownSegment> {
        if !self.has_segments() {
            return Ok(self.clone());
        }
        let mut result = Rope::new();
        for piece in self.pieces() {
            match piece {
                Piece::Text(t) => result.push_str(&t),
                Piece::Seg(id, _) => {
                    let r = store.get(id).ok_or(UnknownSegment(id))?;
                    // Stored text may itself contain segments (an inner
                    // evaluator's descriptors); resolve recursively.
                    result.push_rope(&r.resolve(store)?);
                }
            }
        }
        Ok(result)
    }

    /// Bytes physically carried by this rope on the wire: literal text
    /// plus 9 bytes per segment reference plus a header. This is what
    /// the librarian optimization shrinks — the logical [`Rope::len`] is
    /// unchanged. O(1): inner nodes cache it.
    pub fn physical_wire_size(&self) -> usize {
        8 + self.phys_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(pairs: &[(SegmentId, &str)]) -> SegmentStore {
        let mut s = SegmentStore::new();
        for (id, text) in pairs {
            s.register(*id, Rope::from(*text));
        }
        s
    }

    #[test]
    fn seg_rope_has_logical_length() {
        let id = SegmentId::from_parts(1, 0);
        let r = Rope::seg(id, 100);
        assert_eq!(r.len(), 100);
        assert!(r.has_segments());
        assert_eq!(r.seg_ids(), vec![id]);
        assert_eq!(r.physical_wire_size(), 8 + 9);
    }

    #[test]
    fn zero_length_seg_collapses() {
        let r = Rope::seg(SegmentId(1), 0);
        assert!(r.is_empty());
        assert!(!r.has_segments());
    }

    #[test]
    fn pieces_merge_adjacent_text() {
        let id = SegmentId(9);
        let r = Rope::from("ab")
            .concat(&Rope::from("cd"))
            .concat(&Rope::seg(id, 5))
            .concat(&Rope::from("ef"));
        assert_eq!(
            r.pieces(),
            vec![
                Piece::Text("abcd".into()),
                Piece::Seg(id, 5),
                Piece::Text("ef".into())
            ]
        );
    }

    #[test]
    fn resolve_round_trips() {
        let a = SegmentId::from_parts(0, 0);
        let store = store_with(&[(a, "HELLO")]);
        let r = Rope::from("<")
            .concat(&Rope::seg(a, 5))
            .concat(&Rope::from(">"));
        assert_eq!(r.len(), 7);
        let resolved = r.resolve(&store).unwrap();
        assert_eq!(resolved.to_string(), "<HELLO>");
        assert!(!resolved.has_segments());
    }

    #[test]
    fn resolve_is_recursive() {
        // Segment a's stored text itself references segment b — the
        // nested-evaluator case.
        let a = SegmentId::from_parts(0, 0);
        let b = SegmentId::from_parts(1, 0);
        let mut store = SegmentStore::new();
        store.register(b, Rope::from("inner"));
        store.register(
            a,
            Rope::from("[")
                .concat(&Rope::seg(b, 5))
                .concat(&Rope::from("]")),
        );
        let r = Rope::seg(a, 7);
        assert_eq!(r.resolve(&store).unwrap().to_string(), "[inner]");
    }

    #[test]
    fn resolve_unknown_segment_errors() {
        let store = SegmentStore::new();
        let r = Rope::seg(SegmentId(77), 3);
        assert!(r.resolve(&store).is_err());
    }

    #[test]
    fn deflate_extracts_large_text_runs() {
        let mut store = SegmentStore::new();
        let mut next = 0u32;
        let big = "x".repeat(1000);
        let r = Rope::from(big.as_str()).concat(&Rope::from("tiny"));
        let (deflated, created) = {
            let mut alloc = |text: Rope| {
                let id = SegmentId::from_parts(5, next);
                next += 1;
                store.register(id, text);
                id
            };
            r.deflate(256, &mut alloc)
        };
        assert_eq!(created, 1);
        assert_eq!(deflated.len(), r.len());
        assert!(deflated.physical_wire_size() < 100);
        assert_eq!(
            deflated.resolve(&store).unwrap().to_string(),
            format!("{big}tiny")
        );
    }

    #[test]
    fn deflate_preserves_existing_segments() {
        let child = SegmentId::from_parts(1, 0);
        let mut store = store_with(&[(child, "CHILD")]);
        let local = "y".repeat(500);
        let r = Rope::from(local.as_str()).concat(&Rope::seg(child, 5));
        let mut next = 0u32;
        let (deflated, created) = {
            let mut alloc = |text: Rope| {
                let id = SegmentId::from_parts(2, next);
                next += 1;
                store.register(id, text);
                id
            };
            r.deflate(256, &mut alloc)
        };
        assert_eq!(created, 1);
        assert_eq!(deflated.seg_ids().len(), 2);
        assert_eq!(
            deflated.resolve(&store).unwrap().to_string(),
            format!("{local}CHILD")
        );
    }

    #[test]
    fn deflate_below_threshold_is_identity_shaped() {
        let r = Rope::from("small");
        let (d, created) = r.deflate(256, &mut |_| unreachable!("no alloc expected"));
        assert_eq!(created, 0);
        assert_eq!(d.to_string(), "small");
    }
}
