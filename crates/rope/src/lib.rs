//! Persistent rope strings with O(1) concatenation.
//!
//! The paper (§4.3) implements compiler string attributes — most importantly
//! the generated-code attribute — as *binary trees with the actual text
//! residing in the leaves*, so that string concatenation is a constant-time
//! operation and all values are immutable (applicative). This crate is that
//! data structure, plus the *descriptor* machinery used by the string
//! librarian process (§4.2): an evaluator ships its code text to the
//! librarian once, and passes only a small [`Descriptor`] up the process
//! tree; the librarian reassembles the final code from descriptors.
//!
//! # Short leaves are merged
//!
//! A code generator concatenates many small pieces — one instruction
//! line is ~20 bytes — so a rope with one leaf per piece spends more on
//! tree nodes than on text, and every walk (`to_string`, deflation,
//! drop) pays per leaf. Concatenation therefore merges short leaves,
//! following Boehm, Atkinson & Plass, "Ropes: an Alternative to
//! Strings" (SP&E 1995): a leaf never grows past [`CHUNK_BYTES`] by
//! merging, and `a.concat(b)` copies text only in three cases —
//!
//! * leaf + leaf → one leaf;
//! * `Cat(L, leaf)` + leaf → `Cat(L, leaf')`;
//! * leaf + `Cat(leaf, R)` → `Cat(leaf', R)`;
//!
//! each when the two leaves together fit the bound. Every other
//! concatenation is one new inner node, as in the paper. The bound is a
//! constant, not a setting: merging copies at most `CHUNK_BYTES` per
//! concatenation, so concatenation stays O(1). Segment references
//! (§4.2) are never merged, so the text runs and references a rope
//! carries — what [`Rope::pieces`], [`Rope::deflate`] and
//! [`Rope::physical_wire_size`] see — do not depend on how the text
//! was split into leaves. Inner nodes cache their length, depth,
//! physical wire size and whether any segment reference lies below, so
//! those queries are O(1).
//!
//! # Examples
//!
//! ```
//! use paragram_rope::Rope;
//!
//! let a = Rope::from("movl r1, r2\n");
//! let b = Rope::from("addl2 $4, r2\n");
//! let code = a.concat(&b); // O(1), shares or merges its inputs
//! assert_eq!(code.len(), a.len() + b.len());
//! assert_eq!(code.to_string(), "movl r1, r2\naddl2 $4, r2\n");
//! assert_eq!(code.leaf_count(), 1); // two short leaves merged
//! ```

mod descriptor;
mod seg;

pub use descriptor::{Descriptor, SegmentId, SegmentStore, UnknownSegment};
pub use seg::Piece;

use std::fmt;
use std::sync::Arc;

/// Longest leaf that concatenation builds by merging two shorter
/// leaves. Leaves created directly ([`Rope::leaf`]) may be longer.
pub const CHUNK_BYTES: usize = 512;

/// A rope's root: a text leaf (one allocation), or a segment reference
/// or concatenation behind one shared pointer, or nothing.
#[derive(Clone)]
pub(crate) enum Repr {
    /// Literal text; never empty.
    Leaf(Arc<str>),
    /// `None` is the empty rope.
    Inner(Option<Arc<Inner>>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inner(None)
    }
}

pub(crate) enum Inner {
    /// Reference to librarian-stored text with its logical length
    /// (librarian protocol, see [`crate::seg`]).
    Seg(SegmentId, usize),
    /// Concatenation of two non-empty ropes.
    Cat(Cat),
}

pub(crate) struct Cat {
    pub(crate) left: Rope,
    pub(crate) right: Rope,
    len: usize,
    /// Literal text bytes plus 9 per segment reference below.
    phys: usize,
    depth: u32,
    segs: bool,
}

/// An immutable string represented as a binary tree of text chunks.
///
/// Cloning and concatenating are cheap (reference-counted structure
/// sharing; short leaves are merged, see the crate docs); extracting
/// the flat text is O(n). All compiler "string" attributes in this
/// repository are `Rope`s, exactly as in the paper.
///
/// A rope may contain *segment references* to text held by the string
/// librarian ([`Rope::seg`], §4.2 of the paper). Text-reading methods
/// (`to_string`, [`Rope::chunks`], [`Rope::byte_at`], equality)
/// see only the locally carried text; call [`Rope::resolve`] against a
/// [`SegmentStore`] first when segments may be present
/// ([`Rope::has_segments`]).
#[derive(Clone, Default)]
pub struct Rope {
    pub(crate) repr: Repr,
}

impl Rope {
    /// Creates an empty rope.
    ///
    /// ```
    /// let r = paragram_rope::Rope::new();
    /// assert!(r.is_empty());
    /// ```
    pub fn new() -> Self {
        Rope::default()
    }

    /// Creates a rope holding a single leaf with `text`.
    pub fn leaf(text: impl Into<Arc<str>>) -> Self {
        let text: Arc<str> = text.into();
        if text.is_empty() {
            Rope::new()
        } else {
            Rope {
                repr: Repr::Leaf(text),
            }
        }
    }

    pub(crate) fn inner(inner: Inner) -> Self {
        Rope {
            repr: Repr::Inner(Some(Arc::new(inner))),
        }
    }

    /// The concatenation node over two non-empty ropes.
    fn cat(left: Rope, right: Rope) -> Rope {
        Rope::inner(Inner::Cat(Cat {
            len: left.len() + right.len(),
            phys: left.phys_bytes() + right.phys_bytes(),
            depth: left.depth().max(right.depth()) + 1,
            segs: left.has_segments() || right.has_segments(),
            left,
            right,
        }))
    }

    /// A leaf holding `a` followed by `b`, built in one allocation.
    fn joined(a: &str, b: &str) -> Rope {
        let mut buf = Arc::<[u8]>::new_uninit_slice(a.len() + b.len());
        let dst = Arc::get_mut(&mut buf).expect("a fresh Arc is unique");
        let (head, tail) = dst.split_at_mut(a.len());
        head.write_copy_of_slice(a.as_bytes());
        tail.write_copy_of_slice(b.as_bytes());
        // SAFETY: every byte was written above; two valid UTF-8 strings
        // back to back are valid UTF-8, and `str` has the layout of
        // `[u8]`.
        let text = unsafe { Arc::from_raw(Arc::into_raw(buf.assume_init()) as *const str) };
        Rope {
            repr: Repr::Leaf(text),
        }
    }

    pub(crate) fn as_leaf(&self) -> Option<&str> {
        match &self.repr {
            Repr::Leaf(s) => Some(s),
            Repr::Inner(_) => None,
        }
    }

    pub(crate) fn as_inner(&self) -> Option<&Inner> {
        match &self.repr {
            Repr::Leaf(_) => None,
            Repr::Inner(i) => i.as_deref(),
        }
    }

    fn as_cat(&self) -> Option<&Cat> {
        match self.as_inner()? {
            Inner::Cat(c) => Some(c),
            Inner::Seg(..) => None,
        }
    }

    /// Literal text bytes plus 9 per segment reference (O(1)).
    pub(crate) fn phys_bytes(&self) -> usize {
        match &self.repr {
            Repr::Leaf(s) => s.len(),
            Repr::Inner(None) => 0,
            Repr::Inner(Some(i)) => match &**i {
                Inner::Seg(..) => 9,
                Inner::Cat(c) => c.phys,
            },
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Leaf(s) => s.len(),
            Repr::Inner(None) => 0,
            Repr::Inner(Some(i)) => match &**i {
                Inner::Seg(_, len) => *len,
                Inner::Cat(c) => c.len,
            },
        }
    }

    /// `true` if the rope contains no text.
    pub fn is_empty(&self) -> bool {
        matches!(self.repr, Repr::Inner(None))
    }

    /// Height of the underlying tree (a leaf has depth 0).
    pub fn depth(&self) -> u32 {
        self.as_cat().map_or(0, |c| c.depth)
    }

    /// Number of text leaves.
    pub fn leaf_count(&self) -> usize {
        self.chunks().count()
    }

    /// Concatenates two ropes in O(1), sharing both inputs. Short
    /// leaves at the seam are merged into one of at most
    /// [`CHUNK_BYTES`] (see the crate docs), which copies at most that
    /// many bytes.
    ///
    /// ```
    /// use paragram_rope::Rope;
    /// let r = Rope::from("ab").concat(&Rope::from("cd"));
    /// assert_eq!(r.to_string(), "abcd");
    /// ```
    pub fn concat(&self, other: &Rope) -> Rope {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let fits = |a: &str, b: &str| a.len() + b.len() <= CHUNK_BYTES;
        match (self.as_leaf(), other.as_leaf()) {
            (Some(a), Some(b)) if fits(a, b) => return Rope::joined(a, b),
            (None, Some(b)) => {
                if let Some(c) = self.as_cat() {
                    if let Some(a) = c.right.as_leaf().filter(|a| fits(a, b)) {
                        return Rope::cat(c.left.clone(), Rope::joined(a, b));
                    }
                }
            }
            (Some(a), None) => {
                if let Some(c) = other.as_cat() {
                    if let Some(b) = c.left.as_leaf().filter(|b| fits(a, b)) {
                        return Rope::cat(Rope::joined(a, b), c.right.clone());
                    }
                }
            }
            _ => {}
        }
        Rope::cat(self.clone(), other.clone())
    }

    /// Appends `text` (O(1); merged into a short last leaf).
    pub fn push_str(&mut self, text: &str) {
        if !text.is_empty() {
            *self = self.concat(&Rope::leaf(text));
        }
    }

    /// Appends another rope (O(1)).
    pub fn push_rope(&mut self, other: &Rope) {
        *self = self.concat(other);
    }

    /// Iterates over the text chunks (leaves) left to right.
    pub fn chunks(&self) -> Chunks<'_> {
        Chunks { stack: vec![self] }
    }

    /// Iterates over the lines of the rope (without trailing `\n`),
    /// crossing chunk boundaries.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        LineIter {
            chunks: self.chunks(),
            cur: "",
            pending: String::new(),
            done: false,
        }
    }

    /// Number of `\n` bytes in the rope.
    pub fn newline_count(&self) -> usize {
        self.chunks()
            .map(|c| c.bytes().filter(|&b| b == b'\n').count())
            .sum()
    }

    /// Byte at position `i`, or `None` past the end. O(depth).
    pub fn byte_at(&self, mut i: usize) -> Option<u8> {
        if i >= self.len() {
            return None;
        }
        let mut node = self;
        loop {
            match (&node.repr, node.as_inner()) {
                (Repr::Leaf(s), _) => return s.as_bytes().get(i).copied(),
                (_, Some(Inner::Cat(c))) => {
                    if i < c.left.len() {
                        node = &c.left;
                    } else {
                        i -= c.left.len();
                        node = &c.right;
                    }
                }
                _ => return None, // unresolved text
            }
        }
    }

    /// Rebuilds the rope into a balanced form with chunked leaves.
    ///
    /// Long evaluation pipelines produce deep, list-like ropes; the
    /// librarian flattens before final output. The text is copied once.
    pub fn rebalance(&self) -> Rope {
        if self.len() <= 1 || self.has_segments() {
            return self.clone();
        }
        const LEAF: usize = 4096;
        let flat = self.to_string();
        let mut leaves: Vec<Rope> = Vec::new();
        let mut rest = flat.as_str();
        while !rest.is_empty() {
            let take = rest.len().min(LEAF);
            // Avoid splitting a UTF-8 sequence.
            let mut cut = take;
            while !rest.is_char_boundary(cut) {
                cut -= 1;
            }
            let (head, tail) = rest.split_at(cut);
            leaves.push(Rope::leaf(head));
            rest = tail;
        }
        build_balanced(&leaves)
    }

    /// Approximate number of bytes needed to transmit this rope's text
    /// over the network in flattened form (text plus a length header).
    pub fn wire_size(&self) -> usize {
        self.len() + 8
    }

    /// `true` if both ropes have identical text content.
    ///
    /// Structural sharing is ignored: `"ab"+"c"` equals `"a"+"bc"`.
    pub fn content_eq(&self, other: &Rope) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut a = self.chunks();
        let mut b = other.chunks();
        let (mut ca, mut cb) = ("", "");
        loop {
            if ca.is_empty() {
                match a.next() {
                    Some(c) => ca = c,
                    None => return cb.is_empty() && b.next().is_none(),
                }
                continue;
            }
            if cb.is_empty() {
                match b.next() {
                    Some(c) => cb = c,
                    None => return false,
                }
                continue;
            }
            let n = ca.len().min(cb.len());
            if ca.as_bytes()[..n] != cb.as_bytes()[..n] {
                return false;
            }
            ca = &ca[n..];
            cb = &cb[n..];
        }
    }
}

fn build_balanced(leaves: &[Rope]) -> Rope {
    match leaves.len() {
        0 => Rope::new(),
        1 => leaves[0].clone(),
        n => {
            let (l, r) = leaves.split_at(n / 2);
            build_balanced(l).concat(&build_balanced(r))
        }
    }
}

/// Left-to-right iterator over a rope's text chunks.
///
/// Produced by [`Rope::chunks`].
pub struct Chunks<'a> {
    stack: Vec<&'a Rope>,
}

impl<'a> Iterator for Chunks<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        while let Some(node) = self.stack.pop() {
            match (&node.repr, node.as_inner()) {
                (Repr::Leaf(s), _) => return Some(s),
                (_, Some(Inner::Cat(c))) => {
                    self.stack.push(&c.right);
                    self.stack.push(&c.left);
                }
                // Empty, or unresolved text that is not visible.
                _ => {}
            }
        }
        None
    }
}

struct LineIter<'a> {
    chunks: Chunks<'a>,
    cur: &'a str,
    pending: String,
    done: bool,
}

impl<'a> Iterator for LineIter<'a> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        if self.done {
            return None;
        }
        loop {
            if self.cur.is_empty() {
                match self.chunks.next() {
                    Some(c) => self.cur = c,
                    None => {
                        self.done = true;
                        if self.pending.is_empty() {
                            return None;
                        }
                        return Some(std::mem::take(&mut self.pending));
                    }
                }
                continue;
            }
            match self.cur.find('\n') {
                Some(pos) => {
                    self.pending.push_str(&self.cur[..pos]);
                    self.cur = &self.cur[pos + 1..];
                    return Some(std::mem::take(&mut self.pending));
                }
                None => {
                    self.pending.push_str(self.cur);
                    self.cur = "";
                }
            }
        }
    }
}

impl fmt::Display for Rope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for chunk in self.chunks() {
            f.write_str(chunk)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Rope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rope({:?})", self.to_string())
    }
}

impl PartialEq for Rope {
    fn eq(&self, other: &Self) -> bool {
        self.content_eq(other)
    }
}

impl Eq for Rope {}

impl From<&str> for Rope {
    fn from(s: &str) -> Self {
        Rope::leaf(s)
    }
}

impl From<String> for Rope {
    fn from(s: String) -> Self {
        Rope::leaf(s)
    }
}

impl FromIterator<Rope> for Rope {
    fn from_iter<I: IntoIterator<Item = Rope>>(iter: I) -> Self {
        let leaves: Vec<Rope> = iter.into_iter().collect();
        build_balanced(&leaves)
    }
}

impl<'a> FromIterator<&'a str> for Rope {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Self {
        iter.into_iter().map(Rope::leaf).collect()
    }
}

impl Extend<Rope> for Rope {
    fn extend<I: IntoIterator<Item = Rope>>(&mut self, iter: I) {
        for r in iter {
            self.push_rope(&r);
        }
    }
}

impl std::hash::Hash for Rope {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for chunk in self.chunks() {
            state.write(chunk.as_bytes());
        }
        state.write_u8(0xff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rope() {
        let r = Rope::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.to_string(), "");
        assert_eq!(r.depth(), 0);
        assert_eq!(r.leaf_count(), 0);
    }

    #[test]
    fn leaf_basics() {
        let r = Rope::from("hello");
        assert_eq!(r.len(), 5);
        assert_eq!(r.to_string(), "hello");
        assert_eq!(r.leaf_count(), 1);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn empty_leaf_collapses() {
        let r = Rope::leaf("");
        assert!(r.is_empty());
        assert_eq!(r.leaf_count(), 0);
    }

    /// `n` bytes of `ch`: a leaf past the merge bound when `n > CHUNK_BYTES`.
    fn long(ch: char, n: usize) -> String {
        std::iter::repeat_n(ch, n).collect()
    }

    #[test]
    fn concat_is_constant_shape() {
        // Leaves past the chunk bound are never merged: concatenation
        // is one new node over both inputs.
        let (sa, sb) = (long('a', CHUNK_BYTES + 1), long('b', CHUNK_BYTES + 1));
        let a = Rope::from(sa.as_str());
        let b = Rope::from(sb.as_str());
        let c = a.concat(&b);
        assert_eq!(c.len(), sa.len() + sb.len());
        assert_eq!(c.depth(), 1);
        assert_eq!(c.leaf_count(), 2);
        assert_eq!(c.to_string(), format!("{sa}{sb}"));
        // inputs unchanged (persistence)
        assert_eq!(a.to_string(), sa);
        assert_eq!(b.to_string(), sb);
    }

    #[test]
    fn short_leaves_merge_up_to_the_chunk_bound() {
        // leaf + leaf
        let ab = Rope::from("aa").concat(&Rope::from("bb"));
        assert_eq!((ab.depth(), ab.leaf_count()), (0, 1));
        assert_eq!(ab.to_string(), "aabb");
        // Cat(L, leaf) + leaf
        let big = long('x', CHUNK_BYTES);
        let left = Rope::from(big.as_str()).concat(&Rope::from("c"));
        assert_eq!(left.leaf_count(), 2);
        let r = left.concat(&Rope::from("d"));
        assert_eq!((r.depth(), r.leaf_count()), (1, 2));
        assert_eq!(r.to_string(), format!("{big}cd"));
        // leaf + Cat(leaf, R)
        let right = Rope::from("e").concat(&Rope::from(big.as_str()));
        let r = Rope::from("f").concat(&right);
        assert_eq!((r.depth(), r.leaf_count()), (1, 2));
        assert_eq!(r.to_string(), format!("fe{big}"));
        // A merge that would pass the bound is a new node instead.
        let half = long('h', CHUNK_BYTES / 2 + 1);
        let r = Rope::from(half.as_str()).concat(&Rope::from(half.as_str()));
        assert_eq!((r.depth(), r.leaf_count()), (1, 2));
        // Appending short pieces keeps leaves near the bound.
        let mut acc = Rope::new();
        for i in 0..1000 {
            acc.push_str(&format!("line {i}\n"));
        }
        assert!(acc.len() / acc.leaf_count() > CHUNK_BYTES / 2);
    }

    #[test]
    fn merging_never_crosses_a_segment() {
        let seg = Rope::seg(SegmentId(3), 4);
        let r = Rope::from("a").concat(&seg).concat(&Rope::from("b"));
        assert_eq!(
            r.pieces(),
            vec![
                Piece::Text("a".into()),
                Piece::Seg(SegmentId(3), 4),
                Piece::Text("b".into())
            ]
        );
        assert_eq!(r.physical_wire_size(), 8 + 1 + 9 + 1);
        assert!(r.has_segments());
    }

    #[test]
    fn concat_with_empty_is_identity() {
        let a = Rope::from("xyz");
        let e = Rope::new();
        assert_eq!(a.concat(&e).to_string(), "xyz");
        assert_eq!(e.concat(&a).to_string(), "xyz");
        assert_eq!(e.concat(&e).len(), 0);
    }

    #[test]
    fn push_str_accumulates() {
        let mut r = Rope::new();
        r.push_str("one ");
        r.push_str("two ");
        r.push_str("three");
        assert_eq!(r.to_string(), "one two three");
    }

    #[test]
    fn byte_at_traverses_tree() {
        let r = Rope::from("abc").concat(&Rope::from("defg"));
        assert_eq!(r.byte_at(0), Some(b'a'));
        assert_eq!(r.byte_at(2), Some(b'c'));
        assert_eq!(r.byte_at(3), Some(b'd'));
        assert_eq!(r.byte_at(6), Some(b'g'));
        assert_eq!(r.byte_at(7), None);
    }

    #[test]
    fn content_eq_ignores_structure() {
        let a = Rope::from("ab").concat(&Rope::from("c"));
        let b = Rope::from("a").concat(&Rope::from("bc"));
        assert_eq!(a, b);
        assert_ne!(a, Rope::from("abd"));
        assert_ne!(a, Rope::from("ab"));
    }

    #[test]
    fn lines_cross_chunks() {
        let (head, tail) = (long('1', CHUNK_BYTES), long('3', CHUNK_BYTES));
        let r = Rope::from(format!("{head}\ntw")).concat(&Rope::from(format!("o\n{tail}")));
        assert_eq!(r.leaf_count(), 2, "the line crosses a chunk boundary");
        let lines: Vec<String> = r.lines().collect();
        assert_eq!(lines, vec![head.as_str(), "two", tail.as_str()]);
        assert_eq!(r.newline_count(), 2);
    }

    #[test]
    fn lines_trailing_newline() {
        let r = Rope::from("a\nb\n");
        let lines: Vec<String> = r.lines().collect();
        assert_eq!(lines, vec!["a", "b"]);
    }

    #[test]
    fn rebalance_preserves_content() {
        let mut r = Rope::new();
        let pad = long('-', CHUNK_BYTES);
        for i in 0..200 {
            r.push_str(&format!("line {i} {pad}\n"));
        }
        assert!(r.depth() >= 100); // list-like
        let b = r.rebalance();
        assert!(b.depth() < 20);
        assert_eq!(r, b);
    }

    #[test]
    fn from_iterator_balances() {
        let r: Rope = (0..64).map(|i| Rope::from(format!("{i},"))).collect();
        assert!(r.depth() <= 7);
        assert!(r.to_string().starts_with("0,1,2,"));
    }

    #[test]
    fn hash_agrees_with_content_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |r: &Rope| {
            let mut s = DefaultHasher::new();
            r.hash(&mut s);
            s.finish()
        };
        let a = Rope::from("ab").concat(&Rope::from("c"));
        let b = Rope::from("a").concat(&Rope::from("bc"));
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn wire_size_tracks_len() {
        let r = Rope::from("12345");
        assert_eq!(r.wire_size(), 5 + 8);
    }
}
